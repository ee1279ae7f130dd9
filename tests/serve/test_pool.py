"""ShardPool: bit-identity, routing, churn, manifests, error surfaces."""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import threading

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.online import OnlineAllocator, snapshot_digest
from repro.serve import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ShardPool,
    ShardPoolError,
    make_router,
)

KD_PARAMS = {"n_bins": 64, "k": 2, "d": 4, "n_balls": 600}


def kd_spec(seed=7, **overrides):
    params = dict(KD_PARAMS, **overrides)
    return SchemeSpec(scheme="kd_choice", params=params, seed=seed)


@pytest.fixture(params=["thread", "process"])
def mode(request):
    return request.param


class TestShardIdentity:
    def test_each_shard_matches_a_standalone_allocator(self, mode):
        """The tentpole contract: the pool adds routing, never drift."""
        with ShardPool(kd_spec(), 3, policy="two_choice", mode=mode) as pool:
            shards, bins = pool.place_batch(400)
            for shard_index in range(3):
                subsequence = np.flatnonzero(shards == shard_index)
                standalone = OnlineAllocator(pool.shard_specs[shard_index])
                expected = standalone.place_batch(len(subsequence))
                assert np.array_equal(bins[subsequence], expected), (
                    f"shard {shard_index} diverged from its standalone twin"
                )

    def test_chunking_is_invisible(self, mode):
        """One 300-batch and 300 singles produce identical placements."""
        with ShardPool(kd_spec(), 4, mode=mode) as batch_pool, ShardPool(
            kd_spec(), 4, mode=mode
        ) as single_pool:
            shards_a, bins_a = batch_pool.place_batch(300)
            singles = [single_pool.place() for _ in range(300)]
            assert shards_a.tolist() == [s for s, _ in singles]
            assert bins_a.tolist() == [b for _, b in singles]

    def test_thread_and_process_modes_agree(self):
        with ShardPool(kd_spec(), 2, mode="thread") as a, ShardPool(
            kd_spec(), 2, mode="process"
        ) as b:
            assert a.place_batch(200)[1].tolist() == b.place_batch(200)[1].tolist()
            summary_a, summary_b = a.summary(), b.summary()
            assert summary_a.pop("mode") == "thread"
            assert summary_b.pop("mode") == "process"
            assert summary_a == summary_b

    def test_single_shard_pool_is_the_plain_allocator(self, mode):
        with ShardPool(kd_spec(), 1, mode=mode) as pool:
            _, bins = pool.place_batch(250)
            standalone = OnlineAllocator(pool.shard_specs[0])
            assert np.array_equal(bins, standalone.place_batch(250))


class TestRoutingAndChurn:
    def test_router_instance_can_be_injected(self):
        router = make_router("round_robin", 2)
        with ShardPool(kd_spec(), 2, policy=router, mode="thread") as pool:
            shards, _ = pool.place_batch(6)
            assert shards.tolist() == [0, 1, 0, 1, 0, 1]

    def test_router_shard_count_mismatch(self):
        with pytest.raises(ShardPoolError, match="router covers"):
            ShardPool(kd_spec(), 3, policy=make_router("round_robin", 2))

    def test_tracked_place_and_remove_roundtrip(self, mode):
        with ShardPool(kd_spec(), 2, mode=mode) as pool:
            placements = {f"item-{i}": pool.place(f"item-{i}") for i in range(40)}
            assert pool.live_items == 40
            for item, (shard, bin_index) in placements.items():
                assert pool.remove(item) == (shard, bin_index)
            assert pool.live_items == 0
            assert pool.shard_loads().tolist() == [0, 0]

    def test_remove_frees_router_capacity(self):
        with ShardPool(kd_spec(), 2, policy="least_loaded", mode="thread") as pool:
            pool.place_batch(10, items=[f"i{n}" for n in range(10)])
            before = pool.shard_loads()
            pool.remove("i0")
            after = pool.shard_loads()
            assert after.sum() == before.sum() - 1

    def test_unknown_item_remove(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            with pytest.raises(ShardPoolError, match="unknown item"):
                pool.remove("ghost")

    def test_duplicate_and_colliding_items_rejected(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            with pytest.raises(ShardPoolError, match="duplicate"):
                pool.place_batch(2, items=["a", "a"])
            pool.place("a")
            with pytest.raises(ShardPoolError, match="already"):
                pool.place_batch(1, items=["a"])
            with pytest.raises(ShardPoolError, match="entries"):
                pool.place_batch(2, items=["b"])
            with pytest.raises(ShardPoolError, match="None"):
                pool.place_batch(2, items=["b", None])

    def test_capacity_is_enforced(self):
        with ShardPool(kd_spec(n_balls=20), 2, mode="thread") as pool:
            pool.place_batch(20)
            assert pool.remaining == 0
            with pytest.raises(ShardPoolError, match="capacity"):
                pool.place()

    def test_capacity_requires_a_sized_spec(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": None, "k": 2, "d": 4}, seed=0
        )
        with pytest.raises(ShardPoolError, match="capacity"):
            ShardPool(spec, 2, mode="thread")

    def test_closed_pool_rejects_work(self):
        pool = ShardPool(kd_spec(), 2, mode="thread")
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(ShardPoolError, match="closed"):
            pool.place()


class TestManifests:
    def test_snapshot_restore_resumes_bit_identically(self, mode):
        with ShardPool(kd_spec(), 3, mode=mode) as pool:
            pool.place_batch(200, items=[f"i{n}" for n in range(200)])
            pool.remove("i7")
            manifest = json.loads(json.dumps(pool.snapshot()))
            reference_tail = pool.place_batch(150)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["version"] == MANIFEST_VERSION
        with ShardPool.restore(manifest, mode="thread") as restored:
            assert restored.placed == 200
            assert restored.removed == 1
            assert restored.live_items == 199
            restored_tail = restored.place_batch(150)
            assert np.array_equal(reference_tail[0], restored_tail[0])
            assert np.array_equal(reference_tail[1], restored_tail[1])

    def test_restore_preserves_loads_and_telemetry(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            pool.place_batch(120, items=[f"i{n}" for n in range(120)])
            pool.remove("i3")
            loads = [l.tolist() for l in pool.bin_loads()]
            telemetry = pool.telemetry_counters()
            summary = pool.summary()
            manifest = json.loads(json.dumps(pool.snapshot()))
        with ShardPool.restore(manifest) as restored:
            assert [l.tolist() for l in restored.bin_loads()] == loads
            # wall_time is a wall-clock anchor, not event state: the live
            # restored pool keeps its own elapsed time running.
            def counts(shards):
                return [
                    {k: v for k, v in shard.items() if k != "wall_time"}
                    for shard in shards
                ]
            assert counts(restored.telemetry_counters()) == counts(telemetry)
            assert restored.summary() == summary

    def test_save_load_roundtrip(self, tmp_path, mode):
        path = tmp_path / "pool.manifest.json"
        with ShardPool(kd_spec(), 2, mode=mode) as pool:
            pool.place_batch(100)
            pool.save(path)
            expected = pool.place_batch(50)[1].tolist()
        assert not path.with_suffix(".json.tmp").exists()
        with ShardPool.load(path, mode="thread") as restored:
            assert restored.place_batch(50)[1].tolist() == expected

    def test_digest_mismatch_is_rejected_before_any_worker_starts(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            pool.place_batch(50)
            manifest = pool.snapshot()
        manifest["shards"][1]["snapshot"]["placed"] = 49  # tamper
        with pytest.raises(ShardPoolError, match="digest mismatch"):
            ShardPool.restore(manifest)

    def test_item_missing_from_its_shard_snapshot_is_rejected(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            pool.place_batch(5, items=list("abcde"))
            manifest = pool.snapshot()
        manifest["items"].append(["ghost", 0])
        with pytest.raises(ShardPoolError, match="'ghost' is not tracked"):
            ShardPool.restore(manifest)

    def test_shard_that_cannot_restore_fails_to_start(self, mode):
        with ShardPool(kd_spec(), 2, mode=mode) as pool:
            pool.place_batch(20)
            manifest = pool.snapshot()
        entry = manifest["shards"][1]
        entry["snapshot"]["version"] = 999
        entry["digest"] = snapshot_digest(entry["snapshot"])
        with pytest.raises(ShardPoolError, match="shard 1 failed to start"):
            ShardPool.restore(manifest, mode=mode)
        workers = threading.enumerate() + multiprocessing.active_children()
        assert not [
            worker.name for worker in workers
            if worker.name.startswith("repro-serve-shard-")
        ]

    def test_forced_compiled_without_backend_fails_before_any_worker(
        self, mode, no_backend, monkeypatch
    ):
        from repro.serve import pool as pool_module

        real_shard = pool_module._Shard
        started = []

        def spy(index, payload, shard_mode):
            started.append(index)
            return real_shard(index, payload, shard_mode)

        monkeypatch.setattr(pool_module, "_Shard", spy)
        spec = SchemeSpec(
            scheme="kd_choice", params=KD_PARAMS, seed=7, engine="compiled"
        )
        with pytest.raises(ShardPoolError, match="compiled backend unavailable"):
            ShardPool(spec, 2, mode=mode)
        assert started == []
        workers = threading.enumerate() + multiprocessing.active_children()
        assert not [
            worker.name for worker in workers
            if worker.name.startswith("repro-serve-shard-")
        ]

    def test_wrong_format_and_version_rejected(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            manifest = pool.snapshot()
        with pytest.raises(ShardPoolError, match="not a shard-pool manifest"):
            ShardPool.restore(dict(manifest, format="something-else"))
        with pytest.raises(ShardPoolError, match="version"):
            ShardPool.restore(dict(manifest, version=99))

    def test_shard_count_mismatch_rejected(self):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            manifest = pool.snapshot()
        manifest["shards"] = manifest["shards"][:1]
        with pytest.raises(ShardPoolError, match="2 shards"):
            ShardPool.restore(manifest)

    def test_truncated_manifest_file_rejected_cleanly(self, tmp_path):
        path = tmp_path / "pool.manifest.json"
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            pool.place_batch(50)
            pool.save(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text[: len(text) // 2], encoding="utf-8")
        with pytest.raises(ShardPoolError, match="truncated or corrupt"):
            ShardPool.load(path)


class TestSeeding:
    def test_shard_seeds_fan_out_of_the_root_seed(self):
        with ShardPool(kd_spec(seed=5), 4, mode="thread") as a, ShardPool(
            kd_spec(seed=5), 4, mode="thread"
        ) as b:
            assert a.shard_seeds == b.shard_seeds
            assert a.router_seed == b.router_seed
        with ShardPool(kd_spec(seed=6), 4, mode="thread") as c:
            assert c.shard_seeds != a.shard_seeds

    def test_shards_have_distinct_streams(self):
        with ShardPool(kd_spec(), 3, mode="thread") as pool:
            assert len(set(pool.shard_seeds)) == 3
            streams = [
                OnlineAllocator(spec).place_batch(50).tolist()
                for spec in pool.shard_specs
            ]
            assert streams[0] != streams[1]

    def test_non_integer_seed_rejected(self):
        spec = SchemeSpec(
            scheme="kd_choice", params=dict(KD_PARAMS),
            seed=np.random.SeedSequence(3),
        )
        with pytest.raises(ShardPoolError, match="integer"):
            ShardPool(spec, 2, mode="thread")

    def test_bad_construction_arguments(self):
        with pytest.raises(ShardPoolError, match="n_shards"):
            ShardPool(kd_spec(), 0, mode="thread")
        with pytest.raises(ShardPoolError, match="mode"):
            ShardPool(kd_spec(), 2, mode="fiber")


def churn_stream(seed, length=240):
    """A seed-pinned tracked stream: each op removes a live item with
    probability 0.5, else places a run of 1-4 ids, some of them re-used
    from earlier removes."""
    rng = np.random.default_rng(seed)
    live, retired, ops, fresh = [], [], [], 0
    for _ in range(length):
        if live and rng.random() < 0.5:
            item = live.pop(int(rng.integers(len(live))))
            ops.append(("remove", item))
            retired.append(item)
            continue
        run = []
        for _ in range(int(rng.integers(1, 5))):
            if retired and rng.random() < 0.3:
                run.append(retired.pop(int(rng.integers(len(retired)))))
            else:
                run.append(f"i{fresh}")
                fresh += 1
        ops.append(("place", run))
        live.extend(run)
    return ops


class TestQueuedRemoves:
    """Removes are answered from the pool's map and shipped ahead of each
    shard's next command; every shard still sees the sequential stream."""

    def test_churn_stream_matches_standalone_allocators(self, mode):
        pool = ShardPool(kd_spec(n_balls=2000), 3, mode=mode)
        twins = [OnlineAllocator(spec) for spec in pool.shard_specs]
        router = make_router("two_choice", 3, seed=pool.router_seed)
        counts = np.zeros(3, dtype=np.int64)
        where, run_of = {}, {}  # item -> its shard / its place run
        covered = dict.fromkeys(
            ("same_run_removes", "queued_replaces", "restored_removes"), 0
        )
        last_removed_run = restored_at = None
        ops = churn_stream(seed=2024)
        try:
            for step, (op, arg) in enumerate(ops):
                # Mid-stream, with removes queued: snapshot -> restore.
                if restored_at is None and step >= len(ops) // 2 and any(
                    pool._outboxes
                ):
                    restored_at = step
                    manifest = json.loads(json.dumps(pool.snapshot()))
                    assert [entry["digest"] for entry in manifest["shards"]] == [
                        snapshot_digest(twin.snapshot()) for twin in twins
                    ]
                    # Manifest version 1: items map to shards; restore
                    # takes the bins from the shard snapshots.
                    assert dict(manifest["items"]) == where
                    pool.close()
                    pool = ShardPool.restore(manifest, mode=mode)
                if op == "remove":
                    shard = where.pop(arg)
                    assert pool.remove(arg) == (shard, twins[shard].remove(arg))
                    counts[shard] -= 1
                    if run_of[arg] == last_removed_run:
                        covered["same_run_removes"] += 1
                    if restored_at is not None and run_of[arg] < restored_at:
                        covered["restored_removes"] += 1
                    last_removed_run = run_of[arg]
                    continue
                queued = {
                    entry[1] for box in pool._outboxes for entry in box
                    if entry[0] == "remove"
                }
                covered["queued_replaces"] += len(queued.intersection(arg))
                expected_shards = router.route_batch(len(arg), counts)
                shards, bins = pool.place_batch(len(arg), items=arg)
                assert shards.tolist() == expected_shards.tolist()
                for shard in range(3):
                    positions = np.flatnonzero(shards == shard)
                    run = [arg[p] for p in positions]
                    assert bins[positions].tolist() == (
                        twins[shard].place_batch(len(run), items=run).tolist()
                    )
                    counts[shard] += len(run)
                for item, shard in zip(arg, shards.tolist()):
                    where[item], run_of[item] = shard, step
                last_removed_run = None
            assert restored_at is not None
            assert min(covered.values()) > 0, covered
            summary = pool.summary()
            assert summary["shards"] == [twin.summary() for twin in twins]
            assert summary["removed"] == sum(twin.removed for twin in twins)
            assert [loads.tolist() for loads in pool.bin_loads()] == [
                twin.loads.tolist() for twin in twins
            ]
            assert [entry["digest"] for entry in pool.snapshot()["shards"]] == [
                snapshot_digest(twin.snapshot()) for twin in twins
            ]
            assert pool.items() == where
            pool.check_invariants()
        finally:
            pool.close()

    def test_removes_send_no_message_until_the_next_place_batch(
        self, monkeypatch
    ):
        router = make_router("round_robin", 3)
        with ShardPool(kd_spec(), 3, policy=router, mode="thread") as pool:
            pool.place_batch(30, items=[f"i{n}" for n in range(30)])
            sent = []
            for shard in pool._shards:
                def counted(message, shard=shard, submit=shard.submit):
                    sent.append((shard.index, message))
                    submit(message)
                monkeypatch.setattr(shard, "submit", counted)
            victims = [f"i{n}" for n in range(1, 30, 3)]  # all on shard 1
            for item in victims:
                assert pool.remove(item)[0] == 1
            assert sent == []
            assert pool.place("fresh")[0] == 0  # round robin: shard 0
            assert sorted(index for index, _ in sent) == [0, 1]
            assert dict(sent)[1] == (
                "flush", [("remove", item) for item in victims]
            )
            assert dict(sent)[0] == ("flush", [("place", 1, ["fresh"])])
            assert pool.summary()["shards"][1]["removed"] == len(victims)
            pool.check_invariants()

    def test_every_command_carries_the_queued_removes(
        self, mode, monkeypatch
    ):
        with ShardPool(kd_spec(), 2, mode=mode) as pool:
            pool.place_batch(20, items=[f"i{n}" for n in range(20)])
            commands = [
                pool.telemetry_counters, pool.bin_loads, pool.snapshot,
                pool.check_invariants, pool.summary,
            ]
            for n, command in enumerate(commands, 1):
                pool.remove(f"i{n}")
                command()
                assert not any(pool._outboxes)
            removals = [c["removals"] for c in pool.telemetry_counters()]
            assert sum(removals) == len(commands)
            last, _ = pool.remove("i0")
            sent = []
            for shard in pool._shards:
                def spied(message, shard=shard, submit=shard.submit):
                    sent.append((shard.index, message))
                    submit(message)
                monkeypatch.setattr(shard, "submit", spied)
            applied = []
            remove = OnlineAllocator.remove

            def counted(allocator, item):
                bin_index = remove(allocator, item)
                applied.append(item)
                return bin_index

            monkeypatch.setattr(OnlineAllocator, "remove", counted)
            pool.close()  # the stop command carries the last remove
            assert dict(sent) == {
                index: ("stop", [("remove", "i0")] if index == last else [])
                for index in range(2)
            }
            if mode == "thread":  # the worker applied it before stopping
                assert applied == ["i0"]

    def test_rejected_queued_remove_fails_its_carrier(self, monkeypatch):
        with ShardPool(kd_spec(), 2, mode="thread") as pool:
            pool.place_batch(10, items=[f"i{n}" for n in range(10)])
            shard, _ = pool.remove("i3")

            def refuse(allocator, item):
                raise RuntimeError("refused")

            monkeypatch.setattr(OnlineAllocator, "remove", refuse)
            with pytest.raises(
                ShardPoolError, match=rf"shard {shard}: .*'i3'.*refused"
            ):
                pool.summary()
            monkeypatch.undo()
            # The pool stays usable, and the divergence is checkable.
            assert pool.summary()["removed"] == 1
            with pytest.raises(ShardPoolError, match="invariants violated"):
                pool.check_invariants()

    def test_dead_shard_after_a_remove(self):
        with ShardPool(kd_spec(), 2, mode="process") as pool:
            pool.place_batch(10, items=[f"i{n}" for n in range(10)])
            shard, _ = pool.remove("i0")
            process = pool._shards[shard].worker
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            with pytest.raises(ShardPoolError, match=f"shard {shard} died"):
                pool.summary()

    def test_a_dead_shard_leaves_no_reply_unread(self):
        """A failed send must not strand the replies of the shards before it."""
        with ShardPool(kd_spec(), 3, mode="process") as pool:
            pool.place_batch(30)
            process = pool._shards[1].worker
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=10)
            with pytest.raises(ShardPoolError, match="shard 1 died"):
                pool.summary()
            with pytest.raises(ShardPoolError, match="shard 1 died"):
                pool.bin_loads()
            for index in (0, 2):
                shard = pool._shards[index]
                shard.submit(("loads", []))
                placed, loads = shard.result()
                assert placed == [] and isinstance(loads, np.ndarray)



def apply_op(pool, op):
    """One op of a mixed stream; a snapshot answers with its comparable parts."""
    if op[0] == "place_batch":
        return pool.place_batch(op[1], items=op[2])
    if op[0] == "remove":
        return pool.remove(op[1])
    manifest = pool.snapshot()
    return json.dumps(
        dict(manifest, shards=[entry["digest"] for entry in manifest["shards"]]),
        sort_keys=True,
    )


class TestWindows:
    """A window queues its places in each shard's ordered outbox and sends
    each busy shard one envelope at its end; every answer stays the one
    the same ops give one by one."""

    MIXED = [
        ("remove", "p1"),                    # placed before the window
        ("place_batch", 3, ["a", "b", "c"]),
        ("place_batch", 4, None),
        ("remove", "b"),                     # placed in this window
        ("place_batch", 2, ["b", "d"]),      # the removed id, placed again
        ("snapshot",),
        ("remove", "p4"),
        ("place_batch", 5, ["e", "f", "g", "h", "i"]),
        ("remove", "d"),
        ("place_batch", 1, None),
    ]

    def test_mixed_window_equals_the_same_ops_one_by_one(self, mode):
        with ShardPool(kd_spec(), 3, mode=mode) as windowed, ShardPool(
            kd_spec(), 3, mode=mode
        ) as twin:
            for pool in (windowed, twin):
                pool.place_batch(10, items=[f"p{n}" for n in range(10)])
            with windowed.window():
                answers = [apply_op(windowed, op) for op in self.MIXED]
                # The last places wait for the window's end.
                assert answers[-1][1].tolist() == [-1]
            expected = [apply_op(twin, op) for op in self.MIXED]
            for op, answer, want in zip(self.MIXED, answers, expected):
                if op[0] == "place_batch":
                    assert [a.tolist() for a in answer] == [w.tolist() for w in want]
                else:
                    assert answer == want
            assert windowed.router.state_dict() == twin.router.state_dict()
            assert apply_op(windowed, ("snapshot",)) == apply_op(twin, ("snapshot",))
            assert windowed.summary() == twin.summary()
            assert windowed.items() == twin.items()
            windowed.check_invariants()

    def test_a_window_sends_one_envelope_per_busy_shard(self, monkeypatch):
        from repro.serve import pool as pool_module

        router = make_router("round_robin", 3)
        with ShardPool(kd_spec(), 3, policy=router, mode="thread") as pool:
            pool.place_batch(9, items=[f"i{n}" for n in range(9)])  # i{s+3j} on s
            sent = []
            submit = pool_module._Shard.submit

            def spied(shard, message):
                sent.append((shard.index, message))
                submit(shard, message)

            monkeypatch.setattr(pool_module._Shard, "submit", spied)
            exchanges = pool.exchanges
            with pool.window():  # three runs of places
                pool.remove("i1")
                pool.place_batch(2, items=["a", "b"])  # shards 0, 1
                pool.remove("i3")
                pool.place_batch(2)  # shards 2, 0
                pool.remove("a")  # a's bin is pending: flushes shard 0 alone
                assert len(sent) == 1
                pool.place_batch(1, items=["c"])  # shard 1
                pool.remove("i2")
                assert len(sent) == 1
            assert pool.exchanges == exchanges + 2
            assert [index for index, _ in sent] == [0, 0, 1, 2]
            assert sent == [
                (0, ("flush", [
                    ("place", 1, ["a"]), ("remove", "i3"), ("place", 1, None),
                ])),
                (0, ("flush", [("remove", "a")])),
                (1, ("flush", [
                    ("remove", "i1"), ("place", 1, ["b"]), ("place", 1, ["c"]),
                ])),
                (2, ("flush", [("place", 1, None), ("remove", "i2")])),
            ]
            sent.clear()
            with pool.window():  # removes alone send nothing
                pool.remove("i4")
                pool.remove("i5")
            assert sent == []
            pool.check_invariants()
            assert pool.live_items == 9 + 5 - 6
