"""The asyncio frontend: protocol, batching, ordering, snapshots, loadgen."""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import os
import signal
import threading

import pytest

from repro.api import SchemeSpec
from repro.online import OnlineAllocator
from repro.serve import (
    AllocationServer,
    BlockingServeClient,
    ProtocolError,
    ServeClient,
    ServeConfig,
    ServeError,
    ShardPool,
    ShardPoolError,
    protocol,
    run_loadgen,
)

SPEC = SchemeSpec(
    scheme="kd_choice",
    params={"n_bins": 128, "k": 2, "d": 4, "n_balls": 20000},
    seed=11,
)
#: The same process with room for a few million places.
BIG_SPEC = SchemeSpec(
    scheme="kd_choice",
    params={"n_bins": 128, "k": 2, "d": 4, "n_balls": 4_000_000},
    seed=11,
)


def run(coroutine):
    return asyncio.run(coroutine)


async def with_server(body, config=None, spec=SPEC):
    """Start a thread-mode server, run ``body(server)``, always stop."""
    server = AllocationServer(
        spec, config or ServeConfig(n_shards=2, mode="thread")
    )
    await server.start()
    try:
        return await body(server)
    finally:
        await server.stop()


async def until(predicate, timeout=10.0):
    deadline = asyncio.get_running_loop().time() + timeout
    while not predicate():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.001)


async def fire_in_order(server, calls):
    """Run ``calls`` (client coroutine factories) with a known arrival order.

    The pool thread is held on a gate while the requests go out one at a
    time, each reaching the server queue before the next is sent.  The
    first request is taken as a window of its own; the rest wait in the
    queue and are served, once the gate opens, as windows of up to
    ``max_batch`` requests.  Returns each call's result or exception.
    """
    gate = threading.Event()
    server._pool_executor.submit(gate.wait)
    tasks = []
    try:
        for position, call in enumerate(calls):
            arrived = server.requests + 1
            tasks.append(asyncio.ensure_future(call()))
            await until(
                lambda: server.requests == arrived
                and (position > 0 or server._queue.empty())
            )
    finally:
        gate.set()
    return await asyncio.gather(*tasks, return_exceptions=True)


class TestProtocol:
    def test_encode_is_canonical(self):
        line = protocol.encode({"op": "ping", "id": 3})
        assert line == b'{"id":3,"op":"ping"}\n'

    def test_decode_roundtrip(self):
        request = protocol.decode_request(b'{"id":1,"op":"place"}')
        assert request == {"id": 1, "op": "place"}

    @pytest.mark.parametrize(
        "line,match",
        [
            (b"not json", "not valid JSON"),
            (b"[1,2]", "JSON object"),
            (b'{"op":"levitate"}', "unknown op"),
            (b'{"op":"place_batch"}', "count"),
            (b'{"op":"place_batch","count":-1}', "count"),
            (b'{"op":"place_batch","count":true}', "count"),
            (b'{"op":"remove"}', "item"),
            (b'{"op":"snapshot"}', "path"),
            (b'{"op":"snapshot","path":""}', "path"),
        ],
    )
    def test_malformed_requests(self, line, match):
        with pytest.raises(ProtocolError, match=match):
            protocol.decode_request(line)

    def test_responses(self):
        assert protocol.ok_response(4, shard=1) == {
            "id": 4, "ok": True, "shard": 1,
        }
        assert protocol.error_response(4, "boom") == {
            "id": 4, "ok": False, "error": "boom",
        }


class TestServer:
    def test_place_remove_and_stats(self):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                assert await client.ping()
                shard, bin_index = await client.place("x")
                shards, bins = await client.place_batch(16)
                assert len(shards) == len(bins) == 16
                assert await client.remove("x") == (shard, bin_index)
                stats = await client.stats()
                assert stats["server"]["places"] == 17
                assert stats["server"]["removes"] == 1
                assert stats["pool"]["placed"] == 17
                assert stats["pool"]["removed"] == 1
            finally:
                await client.close()

        run(with_server(body))

    def test_concurrent_places_coalesce_into_windows(self):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                await asyncio.gather(*(client.place() for _ in range(200)))
            finally:
                await client.close()
            assert server.places == 200
            assert server.batches < 200  # pipelined places share windows
            assert server.largest_batch > 1
            stats = server.server_stats()
            assert stats["batched_places"] == 200
            assert stats["mean_batch"] > 1.0

        run(with_server(body, ServeConfig(
            n_shards=2, mode="thread", max_batch=64,
        )))

    def test_server_stream_matches_inprocess_pool(self):
        """Transport adds nothing: same spec, same placements as ShardPool."""
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                shards, bins = await client.place_batch(300)
            finally:
                await client.close()
            return shards, bins

        shards, bins = run(with_server(body))
        with ShardPool(SPEC, 2, mode="thread") as pool:
            expected_shards, expected_bins = pool.place_batch(300)
        assert shards == expected_shards.tolist()
        assert bins == expected_bins.tolist()

    def test_malformed_line_gets_error_response_and_keeps_connection(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(b"this is not json\n")
                await writer.drain()
                response = json.loads(await reader.readline())
                assert response["ok"] is False
                assert "JSON" in response["error"]
                writer.write(protocol.encode({"id": 5, "op": "ping"}))
                await writer.drain()
                assert json.loads(await reader.readline())["ok"] is True
            finally:
                writer.close()
                await writer.wait_closed()
            assert server.protocol_errors == 1

        run(with_server(body))

    def test_pool_errors_become_error_responses(self, tmp_path):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                with pytest.raises(ServeError, match="unknown item"):
                    await client.remove("ghost")
                await client.place("dup")
                with pytest.raises(ServeError, match="already"):
                    await client.place("dup")
                with pytest.raises(ServeError, match="No such file"):
                    await asyncio.wait_for(
                        client.snapshot(str(tmp_path / "missing" / "m.json")),
                        timeout=10,
                    )
                await client.place("after")  # the server still serves
            finally:
                await client.close()

        run(with_server(body))

    def test_snapshot_op_quiesces_and_writes_manifest(self, tmp_path):
        path = tmp_path / "live.manifest.json"

        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                # In-flight places queued before the snapshot land in it.
                places = [
                    asyncio.create_task(client.place()) for _ in range(50)
                ]
                await asyncio.sleep(0)  # every place writes its line first
                response = await client.snapshot(str(path))
                await asyncio.gather(*places)
                assert response["shards"] == 2
            finally:
                await client.close()

        run(with_server(body))
        with ShardPool.load(path) as restored:
            assert restored.placed == 50
            assert sum(restored.shard_loads()) == 50

    def test_shutdown_op_stops_the_server(self):
        async def body():
            server = AllocationServer(
                SPEC, ServeConfig(n_shards=2, mode="thread")
            )
            await server.start()
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                await client.place()
                await client.shutdown()
            finally:
                await client.close()
            await asyncio.wait_for(server.serve_forever(), timeout=10)
            with pytest.raises(ConnectionRefusedError):
                await asyncio.open_connection("127.0.0.1", server.port)

        run(body())

    def test_snapshot_on_exit(self, tmp_path):
        path = tmp_path / "exit.manifest.json"

        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                await client.place_batch(30)
            finally:
                await client.close()

        run(with_server(body, ServeConfig(
            n_shards=2, mode="thread", snapshot_on_exit=str(path),
        )))
        with ShardPool.load(path) as restored:
            assert restored.placed == 30

    def test_pipelined_requests_make_no_tasks(self):
        # No task per request: a connection with 500 places in flight runs
        # on as many tasks as an idle one, and every answer arrives.
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                writer.write(protocol.encode({"id": -1, "op": "ping"}))
                assert json.loads(await reader.readline())["ok"]
                idle = len(asyncio.all_tasks())
                gate = threading.Event()
                server._pool_executor.submit(gate.wait)  # the places pile up
                try:
                    writer.write(b"".join(
                        protocol.encode({"id": i, "op": "place"})
                        for i in range(500)
                    ))
                    await until(lambda: server.requests == 501)
                    peak = len(asyncio.all_tasks())
                finally:
                    gate.set()
                answers = []
                for _ in range(500):
                    answers.append(json.loads(await reader.readline()))
                    peak = max(peak, len(asyncio.all_tasks()))
            finally:
                writer.close()
                await writer.wait_closed()
            return idle, peak, answers

        idle, peak, answers = run(with_server(body))
        assert peak == idle
        assert sorted(answer["id"] for answer in answers) == list(range(500))
        assert all(answer["ok"] for answer in answers)

    def test_connection_closed_mid_window_is_dropped_cleanly(self, caplog):
        async def body(server):
            gate = threading.Event()
            server._pool_executor.submit(gate.wait)  # hold the window open
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"".join(
                    protocol.encode({"id": i, "op": "place", "item": f"o{i}"})
                    for i in range(100)
                ))
                await until(lambda: server.requests == 100)
                writer.close()  # before reading a single answer
                await writer.wait_closed()
            finally:
                gate.set()
            await until(lambda: not server._connections)
            # The pool committed the orphaned places.
            assert server.places == 100
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                assert await client.ping()
                shard, bin_index = await client.place("after")
                assert await client.remove("o7") is not None
                stats = await client.stats()
            finally:
                await client.close()
            await server._pool_call(server.pool.check_invariants)
            return stats

        with caplog.at_level(logging.ERROR):
            stats = run(with_server(body))
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == []
        assert stats["server"]["places"] == 101
        assert stats["pool"]["placed"] == 101

    def test_a_client_that_does_not_read_stalls_only_its_own_connection(self):
        count, requests = 4000, 1000
        # A place_batch answer carries count (shard, bin) pairs: at most
        # "1," and "127," each with 128 bins per shard.
        answer_bytes = 6 * count + 100

        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            try:
                await until(lambda: len(server._connections) == 1)
                (stalled,) = server._connections
                _, high = stalled.transport.get_write_buffer_limits()
                lines = [
                    protocol.encode({"id": i, "op": "place_batch", "count": count})
                    for i in range(requests)
                ]
                # Send each request once the previous one is answered, until
                # the server's buffer for this connection passes its
                # high-water mark; then send all the rest at once.
                sent = 0
                while sent < requests:
                    writer.write(lines[sent])
                    sent += 1
                    await until(lambda: server.places == sent * count)
                    if stalled.transport.get_write_buffer_size() > high:
                        break
                writer.write(b"".join(lines[sent:]))
                await asyncio.sleep(0.2)
                read = server.requests
                buffered = stalled.transport.get_write_buffer_size()
                # Another connection is served meanwhile.
                client = await ServeClient.connect("127.0.0.1", server.port)
                try:
                    assert await client.ping()
                    await client.place_batch(3)
                finally:
                    await client.close()
                await asyncio.sleep(0.1)
                assert server.requests == read + 2
            finally:
                writer.close()
                await writer.wait_closed()
            await until(lambda: not server._connections)
            return sent, read, high, buffered

        sent, read, high, buffered = run(with_server(body, spec=BIG_SPEC))
        # The reader was already waiting for the next line when the buffer
        # passed the mark, so it reads that one line and then stops, long
        # before the client runs out of requests ...
        assert read == sent + 1 < requests
        # ... so what waits in the buffer is bounded by the high-water mark
        # plus those two answers, not by the number of requests.
        assert high < buffered <= high + 2 * answer_bytes

    def test_stop_with_client_connected_closes_it_cleanly(self, caplog):
        async def body():
            server = AllocationServer(
                SPEC, ServeConfig(n_shards=2, mode="thread")
            )
            await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(protocol.encode({"id": 1, "op": "ping"}))
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            await server.stop()
            try:
                # The server hung up on the idle connection.
                return await asyncio.wait_for(reader.read(), timeout=5)
            finally:
                writer.close()

        with caplog.at_level(logging.ERROR):
            assert run(body()) == b""
        errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
        assert errors == []

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            AllocationServer()
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(RuntimeError, match="not been started"):
            AllocationServer(SPEC).port


class TestServeWindows:
    """Self-clocked ordered windows: grouping never changes an answer."""

    def test_mixed_stream_equals_one_by_one_pool(self, tmp_path):
        path = str(tmp_path / "mid.manifest.json")
        # (connection, op, argument); connections alternate, so the
        # server reads the stream from two pipelined sockets.
        stream = [
            (0, "place", "a"),       # the first window, alone
            (1, "place", "b"),       # second window: ops 1..8
            (0, "place", None),
            (1, "place", None),
            (0, "remove", "a"),      # placed in an earlier window
            (1, "place", "c"),
            (0, "remove", "c"),      # placed in this window
            (1, "place_batch", 5),
            (0, "place", "d"),
            (1, "snapshot", path),   # third window: ops 9..16
            (0, "place", None),
            (1, "place", "e"),
            (0, "remove", "b"),
            (1, "place", "a"),       # the removed id, placed again
            (0, "remove", "d"),
            (1, "place", None),
            (0, "place", "f"),
            (1, "remove", "e"),      # fourth window: op 17
        ]

        async def body(server):
            clients = [
                await ServeClient.connect("127.0.0.1", server.port)
                for _ in range(2)
            ]
            try:
                answers = await fire_in_order(server, [
                    functools.partial(getattr(clients[conn], op), arg)
                    for conn, op, arg in stream
                ])
                stats = await clients[0].stats()
                await server._pool_call(server.pool.check_invariants)
            finally:
                for client in clients:
                    await client.close()
            return answers, stats

        answers, stats = run(with_server(body, ServeConfig(
            n_shards=2, mode="thread", max_batch=8,
        )))
        assert stats["server"]["windows"] == 4
        assert stats["server"]["mean_window"] == len(stream) / 4
        with open(path, encoding="utf-8") as handle:
            served_manifest = json.load(handle)
        with ShardPool(SPEC, 2, mode="thread") as pool:
            for (_, op, arg), answer in zip(stream, answers):
                if op == "place":
                    assert answer == pool.place(arg)
                elif op == "remove":
                    assert answer == pool.remove(arg)
                elif op == "place_batch":
                    shards, bins = pool.place_batch(arg)
                    assert answer == (shards.tolist(), bins.tolist())
                else:
                    assert (answer["path"], answer["shards"]) == (path, 2)
                    # Shard digests (they leave out wall-clock telemetry),
                    # router state and item map alike.
                    expected = pool.snapshot()
                    for manifest in (served_manifest, expected):
                        manifest["shards"] = [
                            shard["digest"] for shard in manifest["shards"]
                        ]
                    assert served_manifest == json.loads(json.dumps(expected))
            assert stats["pool"] == json.loads(json.dumps(pool.summary()))
            pool.check_invariants()

    def test_failed_op_fails_only_its_request(self):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                answers = await fire_in_order(server, [
                    lambda: client.place("x"),
                    lambda: client.place("y"),
                    lambda: client.remove("ghost"),
                    lambda: client.place(),
                    lambda: client.remove("x"),
                ])
                await server._pool_call(server.pool.check_invariants)
            finally:
                await client.close()
            assert server.windows == 2  # everything after "x" shared one
            return answers

        x, y, ghost, untracked, removed = run(with_server(body))
        assert isinstance(ghost, ServeError) and "unknown item" in str(ghost)
        for answer in (x, y, untracked):
            assert isinstance(answer, tuple) and len(answer) == 2
        assert removed == x

    def test_untracked_places_beside_a_tracked_one_stay_untracked(self):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                answers = await fire_in_order(
                    server,
                    [lambda: client.place()]
                    + [lambda: client.place("a")]
                    + [lambda: client.place()] * 5,
                )
                items = server.pool.items()
                # No id is reserved: a client may use any string.
                await client.place("__serve_auto_1")
                await server._pool_call(server.pool.check_invariants)
            finally:
                await client.close()
            return answers, items

        answers, items = run(with_server(body))
        assert items == {"a": answers[1][0]}
        assert not any(isinstance(answer, Exception) for answer in answers)


class TestWindowFailures:
    """A failed exchange anywhere in a window fails every place of that
    window; removes keep their answers, no item is left with an unknown
    bin, the divergence is checkable, and the next window is served."""

    def test_a_rejected_queued_remove_fails_the_places_of_its_window(
        self, monkeypatch
    ):
        remove = OnlineAllocator.remove

        def refuse(allocator, item):
            if item == "x":
                raise RuntimeError("refused")
            return remove(allocator, item)

        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                x = await client.place("x")
                monkeypatch.setattr(OnlineAllocator, "remove", refuse)
                answers = await fire_in_order(server, [
                    lambda: client.place("w"),   # a window of its own
                    lambda: client.place("y"),
                    lambda: client.remove("x"),  # its shard refuses it
                    lambda: client.place(),
                    lambda: client.place_batch(3),
                ])
                monkeypatch.undo()
                pool = server.pool
                assert all(bin_ >= 0 for _, bin_ in pool._items.values())
                with pytest.raises(
                    ShardPoolError,
                    match=rf"invariants violated: shard {x[0]} holds \d+ "
                    rf"items, the pool counts \d+",
                ):
                    await server._pool_call(pool.check_invariants)
                after = await client.place("v")  # the next window is served
            finally:
                await client.close()
            return x, answers, after

        x, (w, y, removed, untracked, batch), after = run(with_server(body))
        assert isinstance(w, tuple)
        assert removed == x
        for answer in (y, untracked, batch):
            assert isinstance(answer, ServeError)
            assert "queued remove of item 'x' rejected" in str(answer)
        assert isinstance(after, tuple) and after[1] >= 0

    def test_a_shard_killed_mid_window_fails_the_places_of_its_window(self):
        async def body(server):
            pool = server.pool
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                first = await client.place("w")  # round robin: shard 0
                await client.place("u")  # shard 1
                victim = pool._shards[1].worker
                remove = pool.remove

                def kill_then_remove(item):
                    if victim.is_alive():
                        os.kill(victim.pid, signal.SIGKILL)
                        victim.join(timeout=10)
                    return remove(item)

                pool.remove = kill_then_remove  # mid-window, on the pool thread
                answers = await fire_in_order(server, [
                    lambda: client.place("a"),  # a window of its own: shard 0
                    lambda: client.place("b"),  # shard 1
                    lambda: client.remove("w"),  # kills shard 1
                    lambda: client.place("c"),  # shard 0
                ])
                del pool.remove
                assert all(bin_ >= 0 for _, bin_ in pool._items.values())
                with pytest.raises(ShardPoolError, match="shard 1 died"):
                    await server._pool_call(pool.check_invariants)
                later = await fire_in_order(server, [
                    lambda: client.remove("a"),  # answered from the map
                    lambda: client.place("d"),  # shard 1
                ])
                later.append(await client.place("e"))  # shard 0
            finally:
                await client.close()
            return first, answers, later

        first, (a, b, removed, c), (removed_a, d, e) = run(with_server(
            body, ServeConfig(n_shards=2, mode="process", policy="round_robin")
        ))
        assert a[0] == 0 and removed == first
        for answer in (b, c):
            assert isinstance(answer, ServeError)
            assert "shard 1 died" in str(answer)
        assert removed_a == a
        assert isinstance(d, ServeError) and "shard 1 died" in str(d)
        assert e[0] == 0


class TestExchangeCounter:
    def test_stats_and_loadgen_report_pool_exchanges(self):
        async def body(server):
            client = await ServeClient.connect("127.0.0.1", server.port)
            try:
                before = server.server_stats()["pool_exchanges"]
                await fire_in_order(server, [
                    lambda: client.place("x"),   # window 1: one exchange
                    lambda: client.place("y"),   # window 2: one exchange
                    lambda: client.remove("x"),
                    lambda: client.place(),
                    lambda: client.remove("y"),  # y's bin is pending: +1
                    lambda: client.place_batch(4),
                ])
                # The stats op adds its own summary exchange.
                stats = await client.stats()
                assert stats["server"]["pool_exchanges"] == before + 4
                report = await run_loadgen(
                    "127.0.0.1", server.port, items=50, connections=2, seed=3,
                    workload="uniform", workload_params={"churn": 0.5},
                )
            finally:
                await client.close()
            return report

        report = run(with_server(body))
        exchanges = report.server["pool_exchanges"]
        assert exchanges > 0
        assert f"pool_exchanges={exchanges}" in report.format_text()


class TestBlockingClient:
    def test_blocking_facade(self):
        done = threading.Event()
        holder = {}

        def serve():
            async def body(server):
                holder["port"] = server.port
                done.set()
                await server.serve_forever()

            run(with_server(body))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert done.wait(timeout=10)
        with BlockingServeClient("127.0.0.1", holder["port"]) as client:
            assert client.ping()
            shard, bin_index = client.place("a")
            assert client.remove("a") == (shard, bin_index)
            shards, bins = client.place_batch(8)
            assert len(shards) == len(bins) == 8
            assert client.stats()["server"]["places"] == 9
            client.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()


class TestLoadgen:
    def test_loadgen_counts_and_report(self):
        async def body(server):
            report = await run_loadgen(
                "127.0.0.1", server.port,
                items=400, connections=3, seed=9,
                workload="uniform", workload_params={"churn": 0.2},
            )
            assert report.places == 400
            assert report.errors == 0
            assert report.removes == report.events - 400
            assert report.connections == 3
            assert report.placements_per_sec > 0
            assert set(report.latency_ms) == {"p50", "p95", "p99", "mean", "max"}
            assert report.server["places"] == 400
            assert report.pool["placed"] == 400
            assert report.pool["removed"] == report.removes
            # The stats op reaches every shard, queued removes first.
            assert report.pool["shard_removed"] == report.removes
            # The dict and text renderings carry the same numbers.
            assert report.to_dict()["places"] == 400
            assert f"{report.places} places" in report.format_text()
            assert f"windows={report.server['windows']}," in report.format_text()
            assert f"shard_removed={report.removes}," in report.format_text()

        run(with_server(body))

    def test_loadgen_event_stream_is_deterministic(self):
        from repro.serve.loadgen import _partition_events, generate_events

        events = generate_events("uniform", 200, {"churn": 0.3}, seed=4)
        again = generate_events("uniform", 200, {"churn": 0.3}, seed=4)
        assert events == again
        parts = _partition_events(events, 4)
        assert sum(len(part) for part in parts) == len(events)
        for part in parts:
            live = set()
            for event in part:
                if event["op"] == "place":
                    live.add(event["item"])
                else:
                    # The remove rides the connection that placed the item.
                    assert event["item"] in live

    def test_loadgen_validation(self):
        with pytest.raises(ValueError, match="connections"):
            run(run_loadgen("127.0.0.1", 1, items=10, connections=0))
        with pytest.raises(ValueError, match="max_in_flight"):
            run(run_loadgen("127.0.0.1", 1, items=10, max_in_flight=0))

    def test_loadgen_shutdown_after(self):
        async def body():
            server = AllocationServer(
                SPEC, ServeConfig(n_shards=2, mode="thread")
            )
            await server.start()
            report = await run_loadgen(
                "127.0.0.1", server.port, items=100, connections=2,
                shutdown_after=True,
            )
            assert report.places == 100
            await asyncio.wait_for(server.serve_forever(), timeout=10)

        run(body())
