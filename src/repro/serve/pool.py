"""The shard pool: N :class:`OnlineAllocator` workers behind one router.

A :class:`ShardPool` runs N independent shards: each is a full
:class:`~repro.online.allocator.OnlineAllocator` (its own bins, its own RNG
stream, its own telemetry) hosted either in a worker *process*
(``mode="process"``: each shard has its own interpreter and memory, and a
shard that crashes or is killed leaves the server process standing) or on a
worker *thread* (``mode="thread"``: the shards live in the caller's process
behind in-process queues, with no pickling and no child processes).  A
pluggable :class:`~repro.serve.router.Router` decides which shard serves
each request; the routing question is itself a (k, d)-choice instance, so
the default policy is the paper's own ``two_choice`` applied to the shard
load vector.

Determinism contract
--------------------
* Shard seeds derive from the spec's root seed through one
  :class:`numpy.random.SeedSequence` fan-out, so a pool is reproducible
  end-to-end from ``(spec, n_shards, policy)``.
* Routing decisions depend only on (policy, seed, arrival order) — never on
  how requests were grouped into batches (see :mod:`repro.serve.router`).
* Each shard's stream is **bit-identical** to a standalone
  ``OnlineAllocator`` built from that shard's spec (same derived seed, same
  pinned ``n_balls``) and fed the same subsequence — the pool adds routing
  and transport, never drift.

Transport
---------
Both modes run one command loop, :func:`_shard_main`, behind one
:class:`_Shard`: on a process it speaks over a ``multiprocessing`` pipe, on
a thread over a pair of in-process queues with the same ``send``/``recv``.
Every command reaches the shards through :meth:`ShardPool._exchange`, which
sends to every addressed shard, then reads back every shard it reached
before raising the first failure, so a dead or rejecting shard never leaves
another shard's reply unread.  Failures read the same in both modes:
"shard N failed to start", "shard N died", "shard N: <error>".

Outboxes and windows
--------------------
Each shard has an ordered *outbox* of ``("remove", item)`` and
``("place", count, items)`` entries.  :meth:`ShardPool.remove` answers from
the pool's ``(shard, bin)`` map and only queues the id;
:meth:`ShardPool.place_batch` routes against the pool's own shard counts,
credits them and queues one sub-batch per shard.  Every shard command is an
*envelope*: that shard's outbox, then the command.  The worker applies the
outbox in order and replies with the bins of each queued place next to the
command's reply, so a shard sees the same op sequence as with one message
per op.  Outside a :meth:`ShardPool.window` a ``place_batch`` exchanges at
once; inside one, the places wait for the end of the block, so a window
costs one envelope per busy shard however many runs of places it holds.
A remove of an item whose bin is still pending flushes that shard first.

Snapshots
---------
:meth:`ShardPool.snapshot` captures a *manifest*: shard count, router
policy state, pool counters, and one full per-shard snapshot guarded by a
SHA-256 digest (:func:`repro.online.allocator.snapshot_digest`).
:meth:`ShardPool.restore` verifies every digest, rebuilds the router and
resumes all shards bit-identically.  :meth:`save` / :meth:`load` move
manifests to disk atomically (``*.tmp`` + ``os.replace``).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue
import threading
from itertools import repeat
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..api.engine import resolve_engine
from ..api.spec import SchemeSpec, SchemeSpecError
from ..online.allocator import (
    OnlineAllocator,
    OnlineAllocatorError,
    load_snapshot,
    snapshot_digest,
    write_snapshot,
)
from .router import Router, make_router, restore_router

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "ShardPoolError",
    "ShardPool",
]

MANIFEST_FORMAT = "repro-serve-manifest"
MANIFEST_VERSION = 1

#: Supported shard execution modes.
MODES = ("process", "thread")

#: The bin of a queued place until its shard answers.
_PENDING = -1


class ShardPoolError(ValueError):
    """Raised for bad pool requests, dead shards and corrupt manifests."""


# ----------------------------------------------------------------------
# The per-shard worker (one allocator, one command loop)
# ----------------------------------------------------------------------
class _ShardServer:
    """Executes pool commands against one allocator (runs inside a worker)."""

    def __init__(
        self,
        spec: Optional[SchemeSpec] = None,
        snapshot: Optional[Dict[str, Any]] = None,
    ) -> None:
        if snapshot is not None:
            self.allocator = OnlineAllocator.restore(snapshot)
        else:
            assert spec is not None
            self.allocator = OnlineAllocator(spec)

    def handle(self, message: Tuple[Any, ...]) -> Tuple[List[List[int]], Any]:
        """Apply the envelope's outbox in order, then run its op.

        Returns ``(bins of each queued place, the op's reply)``.  Every
        queued entry is tried; if any failed, the first failure is raised
        once the rest have run, and the op does not run.
        """
        op, queued, *args = message
        allocator = self.allocator
        placed: List[List[int]] = []
        rejected = None
        for entry in queued:
            try:
                if entry[0] == "remove":
                    allocator.remove(entry[1])
                else:
                    placed.append(
                        allocator.place_batch(entry[1], items=entry[2]).tolist()
                    )
            except Exception as exc:
                what = (
                    f"remove of item {entry[1]!r}" if entry[0] == "remove"
                    else f"place of {entry[1]} items"
                )
                rejected = rejected or (
                    f"queued {what} rejected: {type(exc).__name__}: {exc}"
                )
        if rejected is not None:
            raise ShardPoolError(rejected)
        return placed, self._command(op)

    def _command(self, op: str) -> Any:
        allocator = self.allocator
        if op in ("flush", "stop"):
            return None
        if op == "loads":
            return np.array(allocator.loads, copy=True)
        if op == "snapshot":
            return allocator.snapshot()
        if op == "summary":
            return allocator.summary()
        if op == "telemetry":
            return allocator.telemetry.counters()
        if op == "items":
            return allocator.placed, allocator.removed, allocator.items()
        raise ShardPoolError(f"unknown shard op {op!r}")


def _shard_main(conn: Any, payload: Dict[str, Any]) -> None:
    """A shard worker's command loop, the same on a process and a thread.

    Builds the allocator and answers ``ready`` (or ``error``), then replies
    to each envelope with ``ok`` or ``error`` until ``stop``.
    """
    try:
        server = _ShardServer(**payload)
    except Exception as exc:  # construction errors surface in the parent
        conn.send(("error", f"{type(exc).__name__}: {exc}"))
        conn.close()
        return
    conn.send(("ready", None))
    while True:
        try:
            message = conn.recv()
        except EOFError:
            break
        try:
            conn.send(("ok", server.handle(message)))
        except Exception as exc:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        if message[0] == "stop":
            break
    conn.close()


class _QueueEnd:
    """One end of an in-process duplex channel with a pipe end's surface."""

    def __init__(
        self, inbox: "queue.SimpleQueue[Any]", outbox: "queue.SimpleQueue[Any]"
    ) -> None:
        self.recv = inbox.get
        self.send = outbox.put

    def close(self) -> None:
        pass


def _queue_pipe() -> Tuple[_QueueEnd, _QueueEnd]:
    """The thread host's ``Pipe()``: two queues, no pickling."""
    a: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
    b: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
    return _QueueEnd(a, b), _QueueEnd(b, a)


class _Shard:
    """One shard: :func:`_shard_main` hosted on a process or a thread.

    ``mode="process"`` runs the loop in its own OS process over a
    ``multiprocessing`` pipe; ``mode="thread"`` runs it on a thread over a
    queue pair.  ``submit``/``result`` are split so the pool can send one
    command to every shard before it reads any reply.
    """

    def __init__(self, index: int, payload: Dict[str, Any], mode: str) -> None:
        self.index = index
        if mode == "process":
            context = multiprocessing.get_context()
            self._conn, child_conn = context.Pipe()
            host: Any = context.Process
        else:
            self._conn, child_conn = _queue_pipe()
            host = threading.Thread
        self.worker = host(
            target=_shard_main,
            args=(child_conn, payload),
            daemon=True,
            name=f"repro-serve-shard-{index}",
        )
        self.worker.start()
        child_conn.close()
        status, value = self._receive()
        if status != "ready":
            self.join()
            raise ShardPoolError(f"shard {index} failed to start: {value}")

    def _died(self) -> ShardPoolError:
        return ShardPoolError(f"shard {self.index} died (worker exited)")

    def submit(self, message: Tuple[Any, ...]) -> None:
        try:
            self._conn.send(message)
        except OSError:
            raise self._died() from None

    def _receive(self) -> Tuple[str, Any]:
        try:
            return self._conn.recv()
        except (EOFError, OSError):
            raise self._died() from None

    def result(self) -> Any:
        status, value = self._receive()
        if status != "ok":
            raise ShardPoolError(f"shard {self.index}: {value}")
        return value

    def join(self) -> None:
        """Wait for the worker to exit (after ``stop``) and drop the channel."""
        self.worker.join(timeout=5)
        terminate = getattr(self.worker, "terminate", None)  # processes only
        if self.worker.is_alive() and terminate:  # pragma: no cover - defensive
            terminate()
            self.worker.join(timeout=5)
        self._conn.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
def _derive_capacity(spec: SchemeSpec) -> int:
    """Total planned stream length: the spec's ``n_balls``/``n_bins``."""
    for key in ("n_balls", "n_bins"):
        if spec.params.get(key) is not None:
            return int(spec.params[key])
    raise ShardPoolError(
        "the pool capacity could not be derived from the spec; give it an "
        "n_balls (or n_bins) parameter"
    )


def _shard_specs(
    spec: SchemeSpec, n_shards: int, capacity: int
) -> Tuple[List[SchemeSpec], List[int], int]:
    """Derive the per-shard specs, their seeds and the router seed.

    Every shard plans the *full* pool capacity (any shard could, in the
    worst routing case, receive every item), so a shard's stream is
    bit-identical to a standalone allocator built from the same spec and
    fed the same subsequence.  Seeds fan out of the root seed through one
    ``SeedSequence``; the router draws from its own independent word.
    """
    from ..online.trace import _pin_stream_length

    if not isinstance(spec.seed, (int, type(None))):
        raise ShardPoolError(
            f"shard pools require an integer (or None) spec seed, "
            f"got {spec.seed!r}"
        )
    words = np.random.SeedSequence(spec.seed).generate_state(n_shards + 1)
    shard_seeds = [int(word) for word in words[:n_shards]]
    router_seed = int(words[n_shards])
    pinned = _pin_stream_length(spec.scheme, dict(spec.params), capacity)
    base = spec.with_params(**pinned) if pinned != dict(spec.params) else spec
    specs = [base.with_seed(seed) for seed in shard_seeds]
    return specs, shard_seeds, router_seed


class ShardPool:
    """N allocator shards behind a routing policy — the in-process client API.

    Parameters
    ----------
    spec:
        The scheme served by every shard.  ``params["n_balls"]`` (falling
        back to ``n_bins``) fixes the pool's total planned capacity; the
        spec's seed is the root of the per-shard seed fan-out.
    n_shards:
        Number of allocator workers.
    policy:
        A registered router policy name (``round_robin``, ``least_loaded``,
        ``two_choice``) or a pre-built :class:`Router` instance.
    mode:
        ``"process"`` (one OS process per shard: a shard that dies leaves
        the caller standing) or ``"thread"`` (one thread per shard in the
        caller's process, over in-process queues: no pickling, no child
        processes).  Both run the same shard loop; only the host and the
        channel differ.
    policy_params:
        Extra keyword parameters of the policy factory (e.g. ``{"d": 4}``).
    """

    def __init__(
        self,
        spec: SchemeSpec,
        n_shards: int,
        policy: "str | Router" = "two_choice",
        mode: str = "process",
        policy_params: Optional[Dict[str, Any]] = None,
    ) -> None:
        if not isinstance(n_shards, int) or isinstance(n_shards, bool):
            raise ShardPoolError(f"n_shards must be an integer, got {n_shards!r}")
        if n_shards < 1:
            raise ShardPoolError(f"n_shards must be at least 1, got {n_shards}")
        if mode not in MODES:
            raise ShardPoolError(f"mode must be one of {MODES}, got {mode!r}")
        self.spec = spec
        self.n_shards = n_shards
        self.mode = mode
        self.capacity = _derive_capacity(spec)
        specs, self.shard_seeds, self.router_seed = _shard_specs(
            spec, n_shards, self.capacity
        )
        self.shard_specs = specs
        if isinstance(policy, Router):
            if policy.n_shards != n_shards:
                raise ShardPoolError(
                    f"router covers {policy.n_shards} shards, pool has "
                    f"{n_shards}"
                )
            self.router = policy
        else:
            self.router = make_router(
                policy, n_shards, seed=self.router_seed,
                **(policy_params or {}),
            )
        self._start_shards([{"spec": shard_spec} for shard_spec in specs])
        self._shard_items = np.zeros(n_shards, dtype=np.int64)
        self._items: Dict[Any, Tuple[int, int]] = {}  # item id -> (shard, bin)
        self.placed = 0
        self.removed = 0

    def _start_shards(self, payloads: List[Dict[str, Any]]) -> None:
        """Start one worker per payload; on a failure stop those started.

        The engine is resolved once here, before any worker exists: a
        forced engine that cannot run fails without a fork, and a compiled
        backend loaded here is inherited by forked shards instead of each
        loading it in turn.
        """
        try:
            resolve_engine(self.spec)
        except SchemeSpecError as exc:
            raise ShardPoolError(str(exc)) from None
        self._shards: List[_Shard] = []
        # Per shard, the ordered ops its next envelope carries, and for each
        # queued place the (bins array, positions, item ids) its reply fills.
        self._outboxes: List[List[Tuple[Any, ...]]] = [[] for _ in payloads]
        self._fills: List[List[Tuple[np.ndarray, np.ndarray, Any]]] = [
            [] for _ in payloads
        ]
        self._deferring = False
        self._window_failure: Optional[ShardPoolError] = None
        self.exchanges = 0  # _exchange calls; the server reports it
        self._closed = False
        try:
            for index, payload in enumerate(payloads):
                self._shards.append(_Shard(index, payload, self.mode))
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def live_items(self) -> int:
        return self.placed - self.removed

    @property
    def remaining(self) -> int:
        """Placements left before the pool's planned capacity is exhausted."""
        return self.capacity - self.placed

    def shard_loads(self) -> np.ndarray:
        """Live item count per shard (the router's load vector)."""
        return self._shard_items.copy()

    def bin_loads(self) -> List[np.ndarray]:
        """Every shard's per-bin load vector (one pipe round-trip each)."""
        return self._broadcast("loads")

    def items(self) -> Dict[Any, int]:
        """Tracked live items mapped to their shard."""
        return {item: shard for item, (shard, _) in self._items.items()}

    def check_invariants(self) -> None:
        """Raise :class:`ShardPoolError` unless the pool agrees with its shards.

        Each shard's ``placed - removed`` must equal the pool's count for
        it, those counts must sum to :attr:`live_items`, and the pool's
        ``(shard, bin)`` map must equal the union of the shards' tracked
        items.  The counters, not ``live_balls``, are compared: a
        round-based shard pre-commits a whole round of balls.
        """
        tracked = self._broadcast("items")
        problems = [
            f"shard {index} holds {placed - removed} items, the pool counts "
            f"{self._shard_items[index]}"
            for index, (placed, removed, _) in enumerate(tracked)
            if placed - removed != self._shard_items[index]
        ]
        if self._shard_items.sum() != self.live_items:
            problems.append(
                f"shard counts sum to {self._shard_items.sum()}, "
                f"live_items is {self.live_items}"
            )
        shard_map = [
            (item, (index, bin_index))
            for index, (_, _, items) in enumerate(tracked)
            for item, bin_index in items.items()
        ]
        if len(shard_map) != len(self._items) or dict(shard_map) != self._items:
            problems.append(
                "the pool's (shard, bin) map differs from the shards' "
                "tracked items"
            )
        if problems:
            raise ShardPoolError(
                "pool invariants violated: " + "; ".join(problems)
            )

    # ------------------------------------------------------------------
    # Placement and churn
    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ShardPoolError("the pool is closed")

    def _exchange(self, commands: Dict[int, Tuple[Any, ...]]) -> List[Any]:
        """Run ``{shard: (op, *args)}`` concurrently; replies in dict order.

        Each envelope takes its shard's outbox ahead of the op, and each
        reply fills the bins (and the ``(shard, bin)`` map entries) of the
        places that outbox held.  All envelopes are sent before any reply is
        read, and every shard a send reached is read back before the first
        failure is raised, so no reply is ever left for a later command to
        take as its own.  A shard that fails leaves its queued places' bins
        at -1 and their item ids untracked.
        """
        self.exchanges += 1
        reached: List[int] = []
        failure: Optional[ShardPoolError] = None
        for index, (op, *args) in commands.items():
            queued, self._outboxes[index] = self._outboxes[index], []
            try:
                self._shards[index].submit((op, queued, *args))
                reached.append(index)
            except ShardPoolError as exc:
                failure = failure or exc
                self._drop_fills(index)
        replies: List[Any] = []
        for index in reached:
            try:
                placed, reply = self._shards[index].result()
            except ShardPoolError as exc:
                failure = failure or exc
                self._drop_fills(index)
                continue
            for (bins, where, items), shard_bins in zip(self._fills[index], placed):
                bins[where] = shard_bins
                if items is not None:
                    self._items.update(zip(items, zip(repeat(index), shard_bins)))
            self._fills[index] = []
            replies.append(reply)
        if failure is not None:
            if self._deferring:
                self._window_failure = self._window_failure or failure
            raise failure
        return replies

    def _drop_fills(self, index: int) -> None:
        """Forget the places queued for a failed shard: their bins are unknown."""
        for _, _, items in self._fills[index]:
            for item in items or ():
                self._items.pop(item, None)
        self._fills[index] = []

    def _flush(self, shard: Optional[int] = None) -> None:
        """Send queued places: to ``shard`` alone, or to every busy shard.

        Without ``shard`` nothing is sent unless some place is queued; then
        every shard with a non-empty outbox gets one envelope, so the
        removes travel with the places.
        """
        if shard is not None:
            targets = [shard]
        elif any(self._fills):
            targets = [i for i, box in enumerate(self._outboxes) if box]
        else:
            return
        self._exchange({index: ("flush",) for index in targets})

    @contextlib.contextmanager
    def window(self) -> Iterator["ShardPool"]:
        """Defer the shard exchange of every ``place_batch`` to the block's end.

        Inside the block ``place_batch`` routes, credits the counts and
        queues, and returns its ``bins`` array still holding -1; one
        exchange when the block ends sends each busy shard one envelope
        and fills those arrays in place.  A remove of an item whose bin is
        still pending, and every broadcast command (``snapshot``,
        ``summary``, ...), exchange early with the shards they need.  If
        any exchange in the block failed, the block ends by raising the
        first failure once the closing exchange has run.
        """
        self._deferring = True
        try:
            yield self
        finally:
            self._deferring = False
            failure, self._window_failure = self._window_failure, None
            self._flush()
        if failure is not None:
            raise failure

    def _broadcast(self, op: str) -> List[Any]:
        """Run ``op`` on every shard concurrently; replies in shard order."""
        self._check_open()
        return self._exchange({index: (op,) for index in range(self.n_shards)})

    def place(self, item: Any = None) -> Tuple[int, int]:
        """Route and place one item; returns ``(shard, bin)``.

        Inside a :meth:`window` this exchanges with the item's shard at
        once, so the bin is known on return.
        """
        shards, bins = self.place_batch(
            1, items=None if item is None else [item]
        )
        if bins[0] < 0:
            self._flush(int(shards[0]))
        return int(shards[0]), int(bins[0])

    def place_batch(
        self, count: int, items: Optional[Sequence[Any]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Route and place ``count`` items arriving as one window.

        Returns ``(shards, bins)`` in arrival order.  Routing is computed
        sequentially against the pool's live shard counts (bit-identical to
        ``count`` single :meth:`place` calls) and credited at once; each
        shard's sub-batch joins its outbox.  Outside a :meth:`window` the
        busy shards are exchanged with before this returns, concurrently;
        inside one, ``bins`` holds -1 until the window's exchange fills it
        in place.
        """
        self._check_open()
        count = int(count)
        if count < 0:
            raise ShardPoolError(f"count must be non-negative, got {count}")
        if items is not None:
            if len(items) != count:
                raise ShardPoolError(
                    f"items has {len(items)} entries for {count} placements"
                )
            if any(item is None for item in items):
                raise ShardPoolError("item ids must not be None")
            seen = set(items)
            if len(seen) != count:
                raise ShardPoolError("items contains duplicate ids")
            collisions = seen & self._items.keys()
            if collisions:
                raise ShardPoolError(
                    f"item {sorted(collisions, key=repr)[0]!r} is already "
                    f"placed"
                )
        if count > self.remaining:
            raise ShardPoolError(
                f"cannot place {count} items: only {self.remaining} of the "
                f"pool's planned capacity {self.capacity} remain"
            )
        shards = self.router.route_batch(count, self._shard_items)
        bins = np.full(count, _PENDING, dtype=np.int64)
        for index in range(self.n_shards):
            where = np.flatnonzero(shards == index)
            if not len(where):
                continue
            run = [items[p] for p in where] if items is not None else None
            self._outboxes[index].append(("place", len(where), run))
            self._fills[index].append((bins, where, run))
            self._shard_items[index] += len(where)
        self.placed += count
        if items is not None:
            self._items.update(zip(items, zip(shards.tolist(), repeat(_PENDING))))
        if not self._deferring:
            self._flush()
        return shards, bins

    def remove(self, item: Any) -> Tuple[int, int]:
        """Retire a tracked item; returns the ``(shard, bin)`` it occupied.

        Answered from the pool's own map without a message: the item joins
        its shard's outbox, which rides ahead of that shard's next command.
        An item whose place is still queued flushes its shard first.  A
        shard that rejects the remove fails that command, naming the item.
        """
        self._check_open()
        try:
            shard_index, bin_index = self._items[item]
        except KeyError:
            raise ShardPoolError(
                f"unknown item {item!r}; place it with an item id before "
                f"removing it"
            ) from None
        if bin_index == _PENDING:
            self._flush(shard_index)
            bin_index = self._items[item][1]
        del self._items[item]
        self._outboxes[shard_index].append(("remove", item))
        self._shard_items[shard_index] -= 1
        self.removed += 1
        return shard_index, bin_index

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic pool-wide statistics plus per-shard summaries."""
        shard_summaries = self._broadcast("summary")
        max_load = max(s["max_load"] for s in shard_summaries)
        total_bins = sum(s["n_bins"] for s in shard_summaries)
        live = sum(s["live_balls"] for s in shard_summaries)
        mean = live / total_bins if total_bins else 0.0
        summary = {
            "scheme": self.spec.scheme,
            "n_shards": self.n_shards,
            "mode": self.mode,
            "policy": self.router.policy,
            "router_decisions": self.router.decisions,
            "capacity": self.capacity,
            "placed": self.placed,
            "removed": self.removed,
            "live_items": live,
            "total_bins": total_bins,
            "max_load": max_load,
            "mean_load": mean,
            "gap": max_load - mean,
            "shard_items": self._shard_items.tolist(),
            "shards": shard_summaries,
        }
        cross_routes = getattr(self.router, "cross_routes", None)
        if cross_routes is not None:
            decisions = self.router.decisions
            summary["cross_routes"] = int(cross_routes)
            summary["cross_route_fraction"] = (
                int(cross_routes) / decisions if decisions else 0.0
            )
            summary["route_cost"] = float(self.router.route_cost)
        return summary

    def telemetry_counters(self) -> List[Dict[str, int]]:
        """Per-shard telemetry counters (placements, removals, samples)."""
        return self._broadcast("telemetry")

    # ------------------------------------------------------------------
    # Cross-shard snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """A consistent cross-shard manifest (quiesce -> capture -> digest).

        The pool's command transport is synchronous, so by the time every
        shard has answered the ``snapshot`` command there are no in-flight
        placements anywhere — the per-shard documents are a consistent cut.
        Each one is recorded together with its canonical SHA-256 digest;
        :meth:`restore` verifies the digests before rebuilding anything.
        """
        shard_snapshots = self._broadcast("snapshot")
        return {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "spec": self.spec.to_dict(),
            "n_shards": self.n_shards,
            "mode": self.mode,
            "capacity": self.capacity,
            "shard_seeds": list(self.shard_seeds),
            "router": self.router.state_dict(),
            "placed": self.placed,
            "removed": self.removed,
            "shard_items": self._shard_items.tolist(),
            "items": [[item, shard] for item, (shard, _) in self._items.items()],
            "shards": [
                {"digest": snapshot_digest(snap), "snapshot": snap}
                for snap in shard_snapshots
            ],
        }

    @classmethod
    def restore(
        cls, manifest: Dict[str, Any], mode: Optional[str] = None
    ) -> "ShardPool":
        """Rebuild a pool from a :meth:`snapshot` manifest.

        Every shard digest is verified before any worker starts; the router
        resumes its exact decision stream; the restored pool continues
        bit-identically to the one that was captured.  ``mode`` optionally
        overrides the captured execution mode (the shard state machine is
        transport-independent).
        """
        if manifest.get("format") != MANIFEST_FORMAT:
            raise ShardPoolError(
                f"not a shard-pool manifest: format={manifest.get('format')!r}"
            )
        if manifest.get("version") != MANIFEST_VERSION:
            raise ShardPoolError(
                f"unsupported manifest version {manifest.get('version')!r} "
                f"(this build reads version {MANIFEST_VERSION})"
            )
        entries = manifest["shards"]
        if len(entries) != int(manifest["n_shards"]):
            raise ShardPoolError(
                f"manifest names {manifest['n_shards']} shards but carries "
                f"{len(entries)} shard snapshots"
            )
        for index, entry in enumerate(entries):
            digest = snapshot_digest(entry["snapshot"])
            if digest != entry["digest"]:
                raise ShardPoolError(
                    f"shard {index} snapshot digest mismatch "
                    f"(manifest {entry['digest'][:12]}..., "
                    f"recomputed {digest[:12]}...); the manifest is corrupt"
                )
        spec = SchemeSpec.from_dict(manifest["spec"])
        pool = cls.__new__(cls)
        pool.spec = spec
        pool.n_shards = int(manifest["n_shards"])
        pool.mode = mode if mode is not None else manifest["mode"]
        if pool.mode not in MODES:
            raise ShardPoolError(
                f"mode must be one of {MODES}, got {pool.mode!r}"
            )
        pool.capacity = int(manifest["capacity"])
        pool.shard_seeds = [int(seed) for seed in manifest["shard_seeds"]]
        pool.shard_specs, _, pool.router_seed = _shard_specs(
            spec, pool.n_shards, pool.capacity
        )
        pool.router = restore_router(manifest["router"])
        # The bins come from the shard snapshots' own item lists.
        shard_bins = [
            {item: int(bin_) for item, _, bin_ in entry["snapshot"]["items"]}
            for entry in entries
        ]
        try:
            pool._items = {
                item: (int(shard), shard_bins[int(shard)][item])
                for item, shard in manifest["items"]
            }
        except KeyError as exc:
            raise ShardPoolError(
                f"manifest item {exc.args[0]!r} is not tracked by its shard; "
                f"the manifest is corrupt"
            ) from None
        pool._start_shards([{"snapshot": entry["snapshot"]} for entry in entries])
        pool._shard_items = np.asarray(manifest["shard_items"], dtype=np.int64)
        pool.placed = int(manifest["placed"])
        pool.removed = int(manifest["removed"])
        return pool

    def save(self, path: Any) -> Dict[str, Any]:
        """Capture :meth:`snapshot` and write it to ``path`` atomically."""
        manifest = self.snapshot()
        write_snapshot(path, manifest)
        return manifest

    @classmethod
    def load(cls, path: Any, mode: Optional[str] = None) -> "ShardPool":
        """Restore a pool from a manifest file written by :meth:`save`."""
        try:
            manifest = load_snapshot(path)
        except OnlineAllocatorError as exc:
            raise ShardPoolError(str(exc)) from None
        return cls.restore(manifest, mode=mode)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop every shard worker (idempotent)."""
        if self._closed:
            return
        self._closed = True
        try:  # the stop envelopes carry the last queued removes
            self._exchange({index: ("stop",) for index in range(len(self._shards))})
        except ShardPoolError:
            pass  # a dead shard has nothing left to stop
        for shard in self._shards:
            shard.join()

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"ShardPool({self.spec.display_label!r}, "
            f"n_shards={self.n_shards}, mode={self.mode!r}, "
            f"policy={self.router.policy!r}, "
            f"placed={self.placed}/{self.capacity})"
        )
