"""The ``serve_place`` and ``serve_churn`` workloads: TCP load against a server.

One load-generator process (this one) drives an allocation server over at
most two TCP connections.  After :data:`WARMUP_OPS` operations it runs two
phases:

* an **open loop** on one connection at a fixed :data:`OPEN_RATE` ops/s;
  each request is timed from when it was *due*, so a stall is charged to
  every request queued behind it, and the generator's own lateness is
  reported (``loadgen.lag_p99_ms``);
* a **closed loop** on two pipelined connections, each keeping
  :data:`WINDOW` requests outstanding.  Its rates are medians over
  :data:`SEGMENT_S` segments, each divided by the share of CPU the
  hypervisor left the machine in that segment.

Every reply is checked, and at the end the server's counters must
reconcile with the acknowledged operations (see :func:`check`).

The untraced run starts the server the way users do (``python3 -m repro
serve`` in a subprocess); the traced run starts ``traced_server.py`` from
this directory, which hosts the same ``AllocationServer`` with spans around
each layer.  The request stream is the ``uniform`` registry workload, made
from the benchmark seed; the server only ever sees the generated requests.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import common
from common import ROOT

#: kd_choice(k, d) served on each of ``SHARDS`` process shards.
N_BINS = 4096
K = 4
D = 8
SHARDS = 2
#: Offered rate of the open-loop phase.
OPEN_RATE = 1000.0
#: Requests each closed-loop connection keeps outstanding.
WINDOW = 64
#: Placements in the generated stream (the pool's planned capacity).  Sized
#: well past what a run consumes today so a much faster server still has
#: requests left; a run that exhausts them simply measures a shorter phase.
ITEMS = {"serve_place": 1_000_000, "serve_churn": 300_000}
CHURN = {"serve_place": 0.0, "serve_churn": 0.5}
#: Server launches per run; setup_s is their median.
SETUP_REPEATS = 5
#: Operations sent before the open loop.  A fixed count, not a time: the
#: server's garbage-collection pauses depend on how many objects it has
#: accumulated, so the open loop must start from the same state every run.
WARMUP_OPS = 20_000
#: Seconds per measured segment; closed-loop rates are medians over them.
SEGMENT_S = 1.0
#: A segment counts as quiet when the hypervisor took at most this share
#: of the machine's CPU time in it ...
QUIET_STEAL = 0.05
#: ... and only quiet segments are measured when there are this many.
MIN_QUIET = 3
#: Shares of ``--seconds`` given to the open and closed phases.
PHASES = (0.45, 0.55)
#: The open loop is invalid when the generator fell behind the offered
#: rate by more than this share.
MAX_RATE_SHORTFALL = 0.02


# ----------------------------------------------------------------------
# The request stream
# ----------------------------------------------------------------------
class Stream:
    """The workload's operations and their wire encoding."""

    def __init__(self, workload: str, seed: int) -> None:
        from repro.workloads import generate_events

        self.tracked = CHURN[workload] > 0
        params = {"churn": CHURN[workload]} if self.tracked else None
        events = generate_events("uniform", ITEMS[workload], params, seed)
        self.is_remove = np.fromiter(
            (event["op"] == "remove" for event in events), dtype=bool,
            count=len(events),
        )
        self.item = np.fromiter(
            (event["item"] for event in events), dtype=np.int64,
            count=len(events),
        )

    def __len__(self) -> int:
        return len(self.item)

    def line(self, index: int) -> bytes:
        """The request for operation ``index``; its id is the index."""
        if self.is_remove[index]:
            return b'{"id":%d,"item":%d,"op":"remove"}\n' % (
                index, self.item[index]
            )
        if self.tracked:
            return b'{"id":%d,"item":%d,"op":"place"}\n' % (
                index, self.item[index]
            )
        return b'{"id":%d,"op":"place"}\n' % index


# ----------------------------------------------------------------------
# The load generator
# ----------------------------------------------------------------------
class Tally:
    """Responses of the workload's operations, checked as they arrive."""

    def __init__(self, stream: Stream) -> None:
        self.stream = stream
        self.recv = np.full(len(stream), np.nan)
        self.errors: List[str] = []
        self.places = 0
        self.removes = 0
        self.placed_at: Dict[int, Tuple[int, int]] = {}
        self.removed_from: Dict[int, Tuple[int, int]] = {}

    def record(self, response: Dict[str, Any], now: float) -> None:
        index = response["id"]
        self.recv[index] = now
        if not response.get("ok"):
            self.errors.append(str(response.get("error")))
            return
        where = (response["shard"], response["bin"])
        if not (0 <= where[0] < SHARDS and 0 <= where[1] < N_BINS):
            self.errors.append(f"request {index}: placement {where} out of range")
        if self.stream.is_remove[index]:
            self.removes += 1
            self.removed_from[int(self.stream.item[index])] = where
        else:
            self.places += 1
            if self.stream.tracked:
                self.placed_at[int(self.stream.item[index])] = where


class Connection(asyncio.Protocol):
    """One NDJSON connection; workload responses go to the tally, control
    responses (negative ids) to their waiting futures."""

    def __init__(self, tally: Tally) -> None:
        self.tally = tally
        self.buffer = b""
        self.control: Dict[int, asyncio.Future] = {}
        self.on_responses = None  # called with the count of workload replies
        self.closed: Optional[asyncio.Future] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport
        self.closed = asyncio.get_running_loop().create_future()

    def data_received(self, data: bytes) -> None:
        now = time.monotonic()
        lines = (self.buffer + data).split(b"\n")
        self.buffer = lines.pop()
        answered = 0
        for line in lines:
            response = json.loads(line)
            if response["id"] < 0:
                self.control.pop(response["id"]).set_result(response)
            else:
                self.tally.record(response, now)
                answered += 1
        if answered and self.on_responses is not None:
            self.on_responses(answered)

    def connection_lost(self, exc: Optional[BaseException]) -> None:
        if not self.closed.done():
            self.closed.set_result(None)
        for future in self.control.values():
            if not future.done():
                future.set_exception(ConnectionError("server closed the connection"))

    async def call(self, request_id: int, op: str) -> Dict[str, Any]:
        future = asyncio.get_running_loop().create_future()
        self.control[request_id] = future
        self.transport.write(b'{"id":%d,"op":"%s"}\n' % (request_id, op.encode()))
        return await future


async def closed_loop(
    connections: List[Connection], stream: Stream, start: int, seconds: float,
    count: Optional[int] = None,
) -> Tuple[int, float, float]:
    """Keep WINDOW requests outstanding per connection for ``seconds``
    (or for the next ``count`` operations).

    Operations are split by item over the connections, so a remove travels
    on the connection that placed its item (order is per connection).  At
    the deadline the furthest operation any connection sent becomes the
    phase's end, and the other connections finish their operations up to
    it, so no operation before the next phase is skipped.  Returns (index
    after the phase, time of the first send, time of the last reply).
    """
    rest = np.arange(start, len(stream))
    n = len(connections)
    slots = [
        {"part": rest[stream.item[rest] % n == c], "next": 0, "outstanding": 0}
        for c in range(n)
    ]
    done = asyncio.get_running_loop().create_future()
    deadline = time.monotonic() + seconds
    limit = [len(stream) if count is None else min(start + count, len(stream))]

    def refill(slot: Dict[str, Any], conn: Connection, answered: int) -> None:
        slot["outstanding"] -= answered
        part = slot["part"]
        if count is None and limit[0] == len(stream) and time.monotonic() >= deadline:
            limit[0] = 1 + max(
                (int(s["part"][s["next"] - 1]) for s in slots if s["next"]),
                default=start - 1,
            )
        stop = min(
            slot["next"] + WINDOW - slot["outstanding"],
            int(np.searchsorted(part, limit[0])),
        )
        if stop > slot["next"]:
            chunk = part[slot["next"] : stop]
            slot["next"] = stop
            slot["outstanding"] += len(chunk)
            conn.transport.write(b"".join(stream.line(int(i)) for i in chunk))
        if all(s["outstanding"] == 0 for s in slots) and not done.done():
            done.set_result(None)

    for conn, slot in zip(connections, slots):
        conn.on_responses = (
            lambda answered, slot=slot, conn=conn: refill(slot, conn, answered)
        )
    begin = time.monotonic()
    for conn in connections:
        conn.on_responses(0)
    await done
    for conn in connections:
        conn.on_responses = None
    recv = connections[0].tally.recv[start : limit[0]]
    if np.isnan(recv).any():
        raise RuntimeError("closed loop: a request was never answered")
    return limit[0], begin, float(recv.max())


async def open_loop(
    conn: Connection, stream: Stream, start: int, seconds: float
) -> Tuple[int, Dict[str, Any]]:
    """Send at OPEN_RATE for ``seconds`` regardless of replies.

    Returns the index after the phase, and each request's latency from its
    due time and send lag behind it.
    """
    count = min(int(OPEN_RATE * seconds), len(stream) - start)
    t0 = time.monotonic() + 0.005
    due = t0 + np.arange(count) / OPEN_RATE
    sent = np.empty(count)
    position = 0
    outstanding = [0]
    done = asyncio.get_running_loop().create_future()

    def on_responses(answered: int) -> None:
        outstanding[0] -= answered
        if position == count and outstanding[0] == 0 and not done.done():
            done.set_result(None)

    conn.on_responses = on_responses
    while position < count:
        now = time.monotonic()
        if due[position] > now:
            await asyncio.sleep(due[position] - now)
            now = time.monotonic()
        upto = max(int(np.searchsorted(due, now, side="right")), position + 1)
        conn.transport.write(
            b"".join(stream.line(start + i) for i in range(position, upto))
        )
        sent[position:upto] = time.monotonic()
        outstanding[0] += upto - position
        position = upto
    if outstanding[0] > 0:
        await done
    conn.on_responses = None
    recv = conn.tally.recv[start : start + count]
    if np.isnan(recv).any():
        raise RuntimeError("open loop: a request was never answered")
    return start + count, {
        "latency": recv - due, "lag": sent - due, "due": due, "sent": sent,
        "t0": t0, "t1": float(recv.max()),
    }


# ----------------------------------------------------------------------
# The server process
# ----------------------------------------------------------------------
class ServerProcess:
    """A server subprocess; construction returns once it listens."""

    def __init__(self, argv: List[str], port_file: Path, log: Path) -> None:
        port_file.unlink(missing_ok=True)
        self.log = log
        with open(log, "wb") as handle:
            started = time.monotonic()
            self.proc = subprocess.Popen(
                argv, cwd=ROOT, env=common.child_env(), stdout=handle,
                stderr=subprocess.STDOUT,
            )
        try:
            while not port_file.exists():
                if self.proc.poll() is not None:
                    raise RuntimeError(
                        f"server exited with {self.proc.returncode}: "
                        f"{log.read_text()[-2000:]}"
                    )
                if time.monotonic() - started > 120:
                    raise RuntimeError("server did not start within 120 s")
                time.sleep(0.001)
            self.setup_s = time.monotonic() - started
            self.port = int(port_file.read_text())
        except BaseException:
            self.kill()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        self.wait()

    def wait(self) -> None:
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("server did not stop within 60 s") from None

    def kill(self) -> None:
        # Shards are children of the server; none may outlive it.  List
        # them first: once the server is gone they are no longer its own.
        shards = common.children(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)
        for child in shards:
            try:
                os.kill(child, signal.SIGKILL)
            except ProcessLookupError:
                pass


def serve_argv(workload: str, seed: int, port_file: Path, traced: bool) -> List[str]:
    items = str(ITEMS[workload])
    if traced:
        return [
            sys.executable, str(ROOT / "perfbench" / "traced_server.py"),
            "--items", items, "--seed", str(seed), "--port-file", str(port_file),
            "--spans", str(port_file.with_suffix(".spans.npz")),
        ]
    return [
        sys.executable, "-m", "repro", "serve", "--scheme", "kd_choice",
        "--param", f"n_bins={N_BINS}", "--param", f"k={K}", "--param", f"d={D}",
        "--items", items, "--seed", str(seed), "--shards", str(SHARDS),
        "--router", "two_choice", "--mode", "process",
        "--port", "0", "--port-file", str(port_file),
    ]


# ----------------------------------------------------------------------
# One measured run
# ----------------------------------------------------------------------
class StealSampler:
    """Reads the machine's stolen-CPU counters every SEGMENT_S seconds."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, Tuple[int, int]]] = []
        self._handle: Optional[asyncio.Handle] = None

    def _sample(self) -> None:
        self.samples.append((time.monotonic(), common.cpu_ticks()))
        self._handle = asyncio.get_running_loop().call_later(SEGMENT_S, self._sample)

    def start(self) -> None:
        self._sample()

    def stop(self) -> Tuple[np.ndarray, np.ndarray]:
        """Segment edges and the stolen share of each segment.  A phase
        shorter than one segment is one segment."""
        self._handle.cancel()
        if len(self.samples) < 2:
            self.samples.append((time.monotonic(), common.cpu_ticks()))
        edges = np.array([t for t, _ in self.samples])
        steal = np.array([
            common.steal_share(a, b)
            for (_, a), (_, b) in zip(self.samples, self.samples[1:])
        ])
        return edges, steal


def quiet(steal: np.ndarray) -> np.ndarray:
    """The segments to measure: those the hypervisor left alone, when
    there are at least MIN_QUIET of them, else all."""
    calm = steal <= QUIET_STEAL
    return calm if calm.sum() >= MIN_QUIET else np.ones_like(calm)


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Tuple[int, float]:
    windows = after["server"]["batches"] - before["server"]["batches"]
    places = after["server"]["batched_places"] - before["server"]["batched_places"]
    return windows, (places / windows if windows else float("nan"))


async def _drive(
    server: ServerProcess, stream: Stream, seconds: float
) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    tally = Tally(stream)
    connections: List[Connection] = []
    for _ in range(2):
        _, conn = await loop.create_connection(
            lambda: Connection(tally), "127.0.0.1", server.port
        )
        connections.append(conn)
    control = connections[0]
    control_ids = iter(range(-1, -1000, -1))

    async def stats() -> Dict[str, Any]:
        return await control.call(next(control_ids), "stats")

    open_seconds, closed_seconds = (share * seconds for share in PHASES)
    position, _, _ = await closed_loop(connections, stream, 0, math.inf, WARMUP_OPS)

    open_before = await stats()
    host = StealSampler()
    host.start()
    position, open_phase = await open_loop(control, stream, position, open_seconds)
    open_phase["edges"], open_phase["steal"] = host.stop()
    open_after = await stats()
    # Taken after a fixed number of operations, so the server's growth with
    # every request it has served reads the same in every run.
    rss_mb = common.tree_peak_rss_mb(server.pid)

    first = position
    places_before = tally.places
    cpu_before = common.tree_cpu(server.pid)
    loadgen_before = time.process_time()
    host = StealSampler()
    host.start()
    position, begin, end = await closed_loop(
        connections, stream, position, closed_seconds
    )
    edges, steal = host.stop()
    loadgen_cpu = time.process_time() - loadgen_before
    cpu_after = common.tree_cpu(server.pid)
    closed_after = await stats()

    await control.call(next(control_ids), "shutdown")
    for conn in connections:
        conn.transport.close()
    await asyncio.gather(*(conn.closed for conn in connections))

    open_phase["windows"], open_phase["mean_batch"] = _stats_delta(
        open_before, open_after
    )
    closed = {
        "ops": position - first,
        "places": tally.places - places_before,
        "begin": begin,
        "end": end,
        "elapsed": end - begin,
        "server_cpu": cpu_after[0] - cpu_before[0],
        "shard_cpu": cpu_after[1] - cpu_before[1],
        "loadgen_cpu": loadgen_cpu,
        "stats": (open_after, closed_after),
        "segments": _segments(tally, stream, first, position, edges, steal),
    }
    closed["windows"], closed["mean_batch"] = _stats_delta(open_after, closed_after)
    return {
        "tally": tally,
        "answered": position,
        "final_stats": closed_after,
        "rss_mb": rss_mb,
        "closed": closed,
        "open": open_phase,
    }


def check(result: Dict[str, Any], stream: Stream) -> List[str]:
    """Output checks: errors, pool counters and the shard sums reconcile.

    A kd_choice shard commits balls a round of K at a time, so its
    ``live_balls`` also holds the unrequested rest of its current round:
    exactly ``rounds * K - removed``.  The pool's ``live_items`` is the sum
    of those, so it exceeds the acknowledged live count by up to
    ``SHARDS * (K - 1)``; every other count must match exactly.
    """
    tally: Tally = result["tally"]
    problems = list(tally.errors[:5])
    pool = result["final_stats"]["pool"]
    server = result["final_stats"]["server"]
    shards = pool["shards"]
    live = tally.places - tally.removes
    expect = {
        "pool.placed": (pool["placed"], tally.places),
        "pool.removed": (pool["removed"], tally.removes),
        "sum(shard_items)": (sum(pool["shard_items"]), live),
        "sum(shard placed)": (sum(s["placed"] for s in shards), tally.places),
        "sum(shard removed)": (sum(s["removed"] for s in shards), tally.removes),
        "pool.live_items": (pool["live_items"], sum(s["live_balls"] for s in shards)),
        "server.places": (server["places"], tally.places),
    }
    for index, shard in enumerate(shards):
        expect[f"shard {index} live_balls"] = (
            shard["live_balls"], shard["rounds"] * K - shard["removed"]
        )
        expect[f"shard {index} placed"] = (shard["placed"], pool["shard_items"][index] + shard["removed"])
    for name, (got, want) in expect.items():
        if got != want:
            problems.append(f"{name} = {got}, acknowledged operations imply {want}")
    if stream.tracked:
        for item, where in tally.removed_from.items():
            if tally.placed_at.get(item) != where:
                problems.append(
                    f"item {item} removed from {where}, placed at "
                    f"{tally.placed_at.get(item)}"
                )
                break
    return problems


def open_loop_validity(open_phase: Dict[str, Any]) -> Optional[str]:
    """Why the open loop did not offer its rate, or None when it did.

    A late send is charged to latency (it is timed from its due time) and
    shows in ``loadgen.lag_p99_ms``; only a generator that fell behind the
    offered rate makes the phase invalid.
    """
    sent = open_phase["sent"]
    achieved = (len(sent) - 1) / (sent[-1] - open_phase["due"][0])
    if achieved < OPEN_RATE * (1 - MAX_RATE_SHORTFALL):
        return f"generator sent {achieved:.0f} ops/s of {OPEN_RATE:.0f} offered"
    return None


def measure(
    workload: str, seed: int, seconds: float, traced: bool, setup_repeats: int
) -> Dict[str, Any]:
    """Launch the server (``setup_repeats`` times), drive it, check it."""
    stream = Stream(workload, seed)
    work = common.OUT / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    port_file = work / ("traced.port" if traced else "serve.port")
    argv = serve_argv(workload, seed, port_file, traced)
    setups = []
    server: Optional[ServerProcess] = None
    try:
        for attempt in range(setup_repeats):
            server = ServerProcess(argv, port_file, work / "server.log")
            setups.append(server.setup_s)
            if attempt < setup_repeats - 1:
                server.terminate()
                server = None
        result = asyncio.run(_drive(server, stream, seconds))
        server.wait()
        if server.proc.returncode != 0:
            raise RuntimeError(
                f"server exited with {server.proc.returncode}: "
                f"{server.log.read_text()[-2000:]}"
            )
    finally:
        if server is not None:
            server.kill()
    result["setup_s"] = statistics.median(setups)
    result["problems"] = check(result, stream)
    result["invalid"] = open_loop_validity(result["open"])
    result["attempted"] = result["answered"]
    result["failed"] = len(result["tally"].errors)
    if traced:
        result["spans_file"] = port_file.with_suffix(".spans.npz")
    return result


def _segments(
    tally: Tally, stream: Stream, first: int, stop: int,
    edges: np.ndarray, steal: np.ndarray,
) -> Dict[str, np.ndarray]:
    """Operations, placements and stolen CPU share per closed-loop segment."""
    recv = tally.recv[first:stop]
    placed = ~stream.is_remove[first:stop]
    ops = np.histogram(recv, bins=edges)[0]
    places = np.histogram(recv[placed], bins=edges)[0]
    return {"seconds": np.diff(edges), "ops": ops, "places": places, "steal": steal}


def _segment_rate(segments: Dict[str, np.ndarray], key: str, steady: bool) -> float:
    rates = segments[key] / segments["seconds"]
    if steady:
        pick = quiet(segments["steal"])
        rates = (rates / (1.0 - segments["steal"]))[pick]
    return float(np.median(rates))


def _steady_latency(open_phase: Dict[str, Any], steady: bool) -> np.ndarray:
    """Open-loop latencies of the requests due in quiet segments."""
    latency = open_phase["latency"]
    if not steady:
        return latency
    edges = open_phase["edges"]
    segment = np.searchsorted(edges, open_phase["due"], side="right") - 1
    inside = (segment >= 0) & (segment < len(edges) - 1)
    pick = np.zeros(len(latency), dtype=bool)
    pick[inside] = quiet(open_phase["steal"])[segment[inside]]
    return latency[pick] if pick.any() else latency


def end_to_end(result: Dict[str, Any], steady: bool = True) -> Dict[str, float]:
    """The run's metrics.

    Both phases are cut into SEGMENT_S segments.  On a shared virtual
    machine the hypervisor at times takes a quarter of the CPU time, which
    halves serve throughput and multiplies latency; with ``steady`` only
    segments where it took at most QUIET_STEAL count (when there are
    MIN_QUIET of them), and each closed-loop segment's rate is divided by
    the share of CPU left to the machine (see ``common.cpu_ticks``).  The
    closed-loop rates are medians over segments.
    """
    segments = result["closed"]["segments"]
    latency_ms = _steady_latency(result["open"], steady) * 1e3
    return {
        "ops_per_s": _segment_rate(segments, "ops", steady),
        "latency_p50_ms": float(np.percentile(latency_ms, 50)),
        "balls_per_s": _segment_rate(segments, "places", steady),
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["rss_mb"],
    }


def host_line(result: Dict[str, Any]) -> str:
    """How much CPU the hypervisor took, and which segments were measured."""
    parts = []
    for phase, steal in (
        ("open loop", result["open"]["steal"]),
        ("closed loop", result["closed"]["segments"]["steal"]),
    ):
        if len(steal) == 0:
            parts.append(f"{phase} shorter than one segment")
            continue
        calm = int((steal <= QUIET_STEAL).sum())
        used = calm if calm >= MIN_QUIET else len(steal)
        parts.append(
            f"{phase} {calm} of {len(steal)} segments quiet (measured {used}, "
            f"stolen median {np.median(steal):.1%}, max {steal.max():.1%})"
        )
    return "host CPU stolen by the hypervisor: " + "; ".join(parts)


def _window(spans: Any, name: str, lo: float, hi: float) -> np.ndarray:
    starts = spans[f"{name}.t0"]
    return (starts >= lo) & (starts < hi)


def per_layer(result: Dict[str, Any]) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of a traced run, and the trace summary lines.

    Per-operation figures cover the closed-loop phase, except
    ``pool.place_batch_p99_ms`` and ``server.open.*``, which cover the
    open loop (the phase whose latency they bear on).
    """
    spans = np.load(result["spans_file"])
    closed, open_phase = result["closed"], result["open"]
    ops = closed["ops"]
    lo, hi = closed["begin"], closed["end"]
    in_closed = {
        name: _window(spans, name, lo, hi)
        for name in ("protocol.decode", "protocol.encode", "router.route_batch",
                     "pool.place_batch", "pool.remove")
    }
    decode = spans["protocol.decode.wall"][in_closed["protocol.decode"]]
    encode = spans["protocol.encode.wall"][in_closed["protocol.encode"]]
    route = spans["router.route_batch.wall"][in_closed["router.route_batch"]]
    decisions = spans["router.route_batch.count"][in_closed["router.route_batch"]]
    places = in_closed["pool.place_batch"]
    removes = in_closed["pool.remove"]
    if len(spans["allocator.place_batch.slowest"]) != len(places) or len(
        spans["allocator.remove"]
    ) != len(removes):
        raise RuntimeError("replayed allocator calls do not line up with the pool spans")
    place_wall = spans["pool.place_batch.wall"][places]
    remove_wall = spans["pool.remove.wall"][removes]
    items = spans["allocator.place_batch.items"][places]
    pool_cpu = spans["pool.place_batch.cpu"][places].sum() + spans["pool.remove.cpu"][removes].sum()
    allocator_remove = spans["allocator.remove"][removes]
    # The shards run side by side, so a call waits for its slowest one.
    allocator = spans["allocator.place_batch.slowest"][places].sum() + allocator_remove.sum()
    pool_self = place_wall.sum() + remove_wall.sum() - route.sum() - allocator
    calls = len(place_wall) + len(remove_wall)
    open_places = _window(spans, "pool.place_batch", open_phase["t0"], open_phase["t1"])
    us = 1e6 / ops

    metrics = {
        "protocol.decode_us": decode.mean() * 1e6,
        "protocol.encode_us": encode.mean() * 1e6,
        "server.cpu_us_per_op": closed["server_cpu"] * us,
        "server.self_us_per_op": (
            closed["server_cpu"] - decode.sum() - encode.sum() - pool_cpu
        ) * us,
        "server.mean_batch": closed["mean_batch"],
        "server.windows": closed["windows"],
        "server.open.mean_batch": open_phase["mean_batch"],
        "server.open.windows": open_phase["windows"],
        "router.route_us_per_decision": route.sum() / decisions.sum() * 1e6,
        "pool.place_batch_us_per_item": place_wall.sum() / items.sum() * 1e6,
        "pool.place_batch_p99_ms": float(
            np.percentile(spans["pool.place_batch.wall"][open_places], 99)
        ) * 1e3,
        "shards.cpu_us_per_op": closed["shard_cpu"] * us,
        "pool.ipc_us_per_call": pool_self / calls * 1e6,
        "allocator.place_batch_us_per_item": (
            spans["allocator.place_batch.total"][places].sum() / items.sum() * 1e6
        ),
        "loadgen.lag_p99_ms": float(np.percentile(open_phase["lag"], 99)) * 1e3,
        "loadgen.cpu_us_per_op": closed["loadgen_cpu"] * us,
    }
    if len(remove_wall):
        metrics["pool.remove_us"] = remove_wall.mean() * 1e6
        metrics["allocator.remove_us"] = allocator_remove.mean() * 1e6

    # The frontend thread's budget between the stats replies around the
    # closed loop: its CPU (codec spans plus its own code) and its selector
    # waits should add up to the elapsed time; the rest is time it was
    # runnable but not running.
    before, after = (stats["server"]["bench_clock"] for stats in closed["stats"])
    elapsed = after["t"] - before["t"]
    idle_mask = _window(spans, "loop.idle", before["t"], after["t"])
    idle = spans["loop.idle.wall"][idle_mask].sum()
    main_cpu = after["main_cpu"] - before["main_cpu"]
    codec = spans["protocol.decode.wall"][
        _window(spans, "protocol.decode", before["t"], after["t"])
    ].sum() + spans["protocol.encode.wall"][
        _window(spans, "protocol.encode", before["t"], after["t"])
    ].sum()
    accounted = (main_cpu + idle) / elapsed
    metrics["trace.accounted_share"] = accounted
    table = [
        ("protocol.decode", decode.sum()),
        ("protocol.encode", encode.sum()),
        ("server (frontend self)", main_cpu - codec),
        ("event-loop idle", idle),
        ("router.route_batch", route.sum()),
        ("pool (self: wall - router - allocator)", pool_self),
        ("allocator (replayed, slowest shard)", allocator),
        ("pool thread CPU", after["pool_cpu"] - before["pool_cpu"]),
        ("shard processes CPU", closed["shard_cpu"]),
    ]
    lines = [
        f"self time per operation, closed loop ({ops} ops, "
        f"{closed['elapsed'] * us:.1f} us wall per op):"
    ] + [f"  {name:<42} {value * us:9.2f} us" for name, value in table]
    verdict = "ok" if abs(accounted - 1.0) <= 0.10 else "NOT within 10%"
    lines.append(
        f"  frontend thread: decode + encode + self + idle = "
        f"{(main_cpu + idle) / ops * 1e6:.2f} us of {elapsed / ops * 1e6:.2f} us "
        f"wall per op ({accounted:.1%}, {verdict})"
    )
    return metrics, lines
