"""The streaming allocation service: place items one request at a time.

An :class:`OnlineAllocator` is the long-lived, stateful counterpart of
:func:`repro.api.simulate`: built from the same :class:`~repro.api.SchemeSpec`,
it places (and retires) items incrementally while exposing live telemetry —
the shape a load balancer in front of real traffic needs, rather than the
batch "throw n balls, read the result" shape.

The central guarantee is **batch parity**: for any scheme whose kernel has a
stepper (``SchemeInfo.online``), streaming the spec's ``n_balls`` items through
:meth:`place` (or :meth:`place_batch`, or any mix) produces a load vector,
message/round accounting *and generator state* bit-for-bit identical to
``simulate(spec)``.  Removals (:meth:`remove`) deliberately leave that
envelope — they mutate state no batch run has — but stay deterministic:
the same event sequence always produces the same placements, regardless of
how the events were grouped into batches.

:meth:`snapshot` captures the complete allocator state (bin loads, buffered
RNG blocks, the generator itself, item tracking) as one JSON-serializable
document; :meth:`restore` resumes it bit-identically — the persistence story
for long-lived services and for the trace tooling's ``--snapshot-every``.

Examples
--------
>>> from repro.api import SchemeSpec
>>> from repro.online import OnlineAllocator
>>> spec = SchemeSpec(scheme="kd_choice",
...                   params={"n_bins": 256, "k": 2, "d": 4}, seed=7)
>>> allocator = OnlineAllocator(spec)
>>> first_bin = allocator.place()
>>> rest = allocator.place_batch(255)
>>> allocator.loads.sum() == 256
True
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from typing import Any, Deque, Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..api.engine import build_runner_kwargs, resolve_engine
from ..api.registry import get_scheme, online_unsupported_reason
from ..api.spec import SchemeSpec, SchemeSpecError
from ..core.kernels import OnlineStepper, StreamExhausted
from .telemetry import LoadTelemetry

__all__ = [
    "OnlineAllocatorError",
    "OnlineAllocator",
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "snapshot_digest",
    "load_snapshot",
    "write_snapshot",
]

SNAPSHOT_FORMAT = "repro-online-snapshot"
SNAPSHOT_VERSION = 1

_UNSET = object()


class OnlineAllocatorError(ValueError):
    """Raised for unsupported schemes, exhausted streams and bad requests."""


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """SHA-256 of a snapshot document's canonical JSON serialization.

    The integrity hook for anything that stores snapshots outside this
    process: the cross-shard manifests of :mod:`repro.serve` record one
    digest per shard so a restore can verify every shard document before
    any allocator state is rebuilt.

    The telemetry ``wall_time`` anchor is excluded: it advances with the
    wall clock between otherwise-identical snapshots, and the digest
    identifies *stream state* — two snapshots of the same allocator state
    must hash the same no matter when they were taken.
    """
    telemetry = snapshot.get("telemetry")
    if isinstance(telemetry, dict) and "wall_time" in telemetry:
        snapshot = dict(snapshot)
        snapshot["telemetry"] = {
            key: value for key, value in telemetry.items() if key != "wall_time"
        }
    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def write_snapshot(path: Any, snapshot: Dict[str, Any]) -> None:
    """Write a snapshot document to ``path`` atomically.

    The document lands under a ``*.tmp`` sibling first and is moved into
    place with :func:`os.replace`, so a process killed mid-write can never
    leave a torn snapshot at the target path — at worst a stale ``.tmp``
    file next to an intact (old or absent) snapshot.
    """
    target = os.fspath(path)
    tmp = f"{target}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle)
    os.replace(tmp, target)


def load_snapshot(path: Any) -> Dict[str, Any]:
    """Read a snapshot document from disk, rejecting torn/corrupt files.

    A truncated or otherwise non-JSON file raises a clean
    :class:`OnlineAllocatorError` naming the path (instead of a raw
    ``json.JSONDecodeError`` from deep inside a restore).
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            snapshot = json.load(handle)
        except json.JSONDecodeError as exc:
            raise OnlineAllocatorError(
                f"snapshot file {os.fspath(path)!r} is truncated or corrupt "
                f"(invalid JSON at line {exc.lineno}, column {exc.colno}); "
                f"it cannot be restored"
            ) from None
    if not isinstance(snapshot, dict):
        raise OnlineAllocatorError(
            f"snapshot file {os.fspath(path)!r} does not contain a snapshot "
            f"document (got {type(snapshot).__name__})"
        )
    return snapshot


class OnlineAllocator:
    """Stateful per-request allocator over any scheme with an online stepper.

    Parameters
    ----------
    spec:
        The scheme configuration.  ``spec.engine`` selects the ingestion
        mode for :meth:`place_batch` through
        :func:`~repro.api.engine.resolve_engine`, the rule ``simulate``
        uses: ``"scalar"`` steps unit by unit, ``"vectorized"`` and
        ``"compiled"`` ride the batch kernels (bit-identical, only faster),
        and ``"auto"`` follows ``resolve_engine``'s answer.  The spec's
        ``n_balls`` (default ``n_bins``) fixes the planned stream length —
        the reference engines size their RNG chunks by it, so it is part of
        the reproducibility contract.
    seed:
        Optional override of ``spec.seed`` (e.g. a SeedTree-derived trial
        seed), leaving the spec untouched.
    telemetry:
        A :class:`~repro.online.telemetry.LoadTelemetry` to use; a default
        one is created otherwise.
    track_items:
        Track every placement's item id (auto-assigned sequence numbers when
        :meth:`place` is called without one) so :meth:`remove` can find it.
        Off by default — a million-item stream should not pay for a dict it
        never reads.
    """

    def __init__(
        self,
        spec: SchemeSpec,
        *,
        seed: Any = _UNSET,
        telemetry: Optional[LoadTelemetry] = None,
        track_items: bool = False,
    ) -> None:
        if not isinstance(spec, SchemeSpec):
            raise OnlineAllocatorError(
                f"spec must be a SchemeSpec, got {type(spec).__name__}"
            )
        info = get_scheme(spec.scheme)
        reason = online_unsupported_reason(info, spec.policy, spec.params)
        if reason is not None:
            raise OnlineAllocatorError(reason)
        # The engine is a speed choice, not state: restore() re-resolves it
        # for the restoring host, so a snapshot taken on a compiled host
        # replays bit-identically on a pure-Python one.
        try:
            engine = resolve_engine(spec, info)
        except SchemeSpecError as exc:
            raise OnlineAllocatorError(str(exc)) from None
        self.spec = spec
        kwargs = build_runner_kwargs(
            spec, info, spec.seed if seed is _UNSET else seed
        )
        stepper = info.online(**kwargs)
        if not isinstance(stepper, OnlineStepper):
            raise TypeError(
                f"scheme {info.name!r} registered an online factory that "
                f"returned {type(stepper).__name__}, expected an OnlineStepper"
            )
        self._stepper = stepper
        if engine != "scalar":
            stepper.set_kernel_mode(engine)
        self.telemetry = telemetry if telemetry is not None else LoadTelemetry()
        self._pending: Deque[int] = deque()
        self._track_items = bool(track_items)
        self._items: Dict[Any, Tuple[int, int]] = {}  # item -> (seq, bin)
        self.placed = 0
        self.removed = 0
        self._use_blocks = engine != "scalar"

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def stepper(self) -> OnlineStepper:
        """The underlying scheme stepper (loads, messages, rounds)."""
        return self._stepper

    @property
    def n_bins(self) -> int:
        return self._stepper.n_bins

    @property
    def loads(self) -> np.ndarray:
        """Committed per-bin loads (stale epochs commit at epoch end)."""
        return self._stepper.loads

    @property
    def capacity(self) -> int:
        """The planned stream length (the spec's ``n_balls``)."""
        return self._stepper.planned_balls

    @property
    def remaining(self) -> int:
        """Items that can still be placed before the stream is exhausted."""
        return self.capacity - self.placed

    @property
    def max_load(self) -> int:
        loads = self._stepper.loads
        return int(loads.max()) if loads.size else 0

    @property
    def gap(self) -> float:
        loads = self._stepper.loads
        return float(self.max_load - loads.sum() / self.n_bins)

    def items(self) -> Dict[Any, int]:
        """Tracked live items mapped to their bins."""
        return {item: bin_index for item, (_, bin_index) in self._items.items()}

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def place(self, item: Any = None) -> int:
        """Place the next item; returns its destination bin.

        ``item`` (any hashable id) registers the placement for later
        :meth:`remove`; without one, placements are tracked only when the
        allocator was built with ``track_items=True`` (under their sequence
        number).
        """
        # Validate before the stepper consumes a ball: a rejected request
        # must not leave a phantom placement behind.  Auto-assigned sequence
        # keys are checked too — an explicit integer id that collides with a
        # later sequence number must fail loudly, not be silently overwritten
        # (remove() would then retire the wrong ball).
        tracking = item is not None or self._track_items
        key = item if item is not None else self.placed
        if tracking and key in self._items:
            raise OnlineAllocatorError(f"item {key!r} is already placed")
        if not self._pending:
            try:
                self._pending.extend(self._stepper.step())
            except StreamExhausted as exc:
                raise OnlineAllocatorError(str(exc)) from None
        bin_index = self._pending.popleft()
        sequence = self.placed
        self.placed += 1
        if tracking:
            self._items[key] = (sequence, bin_index)
        self.telemetry.record_place(bin_index)
        self.telemetry.maybe_sample(self._stepper.loads)
        return bin_index

    def place_batch(
        self, count: int, items: Optional[Sequence[Any]] = None
    ) -> np.ndarray:
        """Place ``count`` items through the chunked ingestion path.

        Returns the destination bins in placement order — identical to
        ``count`` successive :meth:`place` calls; unless the spec's engine
        resolves to ``"scalar"`` the work runs through the batch kernels
        instead of the per-unit loop.  ``items`` optionally registers an id
        per placement (for later removal).
        """
        count = int(count)
        if count < 0:
            raise OnlineAllocatorError(f"count must be non-negative, got {count}")
        if items is not None:
            if len(items) != count:
                raise OnlineAllocatorError(
                    f"items has {len(items)} entries for {count} placements"
                )
            # Validate the whole batch before any ball is consumed, so a
            # duplicate id cannot leave partially registered placements.
            seen = set(items)
            if len(seen) != count:
                raise OnlineAllocatorError("items contains duplicate ids")
            collisions = seen & self._items.keys()
            if collisions:
                raise OnlineAllocatorError(
                    f"item {sorted(collisions, key=repr)[0]!r} is already placed"
                )
        elif self._track_items:
            collision = next(
                (
                    key
                    for key in range(self.placed, self.placed + count)
                    if key in self._items
                ),
                None,
            )
            if collision is not None:
                raise OnlineAllocatorError(
                    f"item {collision!r} is already placed (an explicit id "
                    f"collides with this batch's auto-assigned sequence keys)"
                )
        if count > self.remaining:
            raise OnlineAllocatorError(
                f"cannot place {count} items: only {self.remaining} of the "
                f"planned n_balls={self.capacity} remain; build the "
                f"allocator with a larger n_balls to stream further"
            )
        destinations = np.empty(count, dtype=np.int64)
        filled = 0
        while filled < count and self._pending:
            destinations[filled] = self._pending.popleft()
            filled += 1
        while filled < count:
            need = count - filled
            if self._use_blocks:
                block = self._stepper.step_block(need)
                if block is not None and len(block) > 0:
                    destinations[filled : filled + len(block)] = block
                    filled += len(block)
                    continue
            unit = self._stepper.step()
            take = min(len(unit), need)
            destinations[filled : filled + take] = unit[:take]
            self._pending.extend(unit[take:])
            filled += take
        start = self.placed
        self.placed += count
        if items is not None or self._track_items:
            keys: Iterable[Any] = (
                items if items is not None else range(start, start + count)
            )
            for offset, key in enumerate(keys):
                self._items[key] = (start + offset, int(destinations[offset]))
        self.telemetry.record_block(count)
        self.telemetry.maybe_sample(self._stepper.loads)
        return destinations

    # ------------------------------------------------------------------
    # Churn
    # ------------------------------------------------------------------
    def remove(self, item: Any) -> int:
        """Retire a tracked item; returns the bin it occupied.

        Removals leave the batch-parity envelope (no batch run removes), but
        the stream stays deterministic: subsequent placements read the
        decremented loads.
        """
        try:
            sequence, bin_index = self._items.pop(item)
        except KeyError:
            raise OnlineAllocatorError(
                f"unknown item {item!r}; place it with an item id (or build "
                f"the allocator with track_items=True) before removing it"
            ) from None
        try:
            self._stepper.remove_ball(bin_index, ball_index=sequence)
        except ValueError as exc:
            self._items[item] = (sequence, bin_index)  # undo the pop
            raise OnlineAllocatorError(str(exc)) from None
        self.removed += 1
        self.telemetry.record_remove(bin_index)
        self.telemetry.maybe_sample(self._stepper.loads)
        return bin_index

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """The complete allocator state as one JSON-serializable document.

        Size note: steppers that pre-draw their whole stream at
        construction (``single_choice``/``batch_random`` destinations,
        weighted ball weights) serialize those O(n_balls) arrays, so their
        snapshots scale with the planned stream — size a
        ``--snapshot-every`` cadence accordingly for very large streams.
        The round-based steppers carry only O(chunk_rounds * d) buffers.
        """
        spec_dict = self.spec.to_dict()
        if not isinstance(spec_dict["seed"], (int, type(None))):
            raise OnlineAllocatorError(
                "snapshots require an integer (or None) spec seed; "
                f"got {self.spec.seed!r}"
            )
        try:
            json.dumps(spec_dict["params"])
        except TypeError:
            raise OnlineAllocatorError(
                "snapshots require JSON-serializable spec params (callable "
                "or array parameters cannot be persisted)"
            ) from None
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "spec": spec_dict,
            "placed": self.placed,
            "removed": self.removed,
            "pending": [int(b) for b in self._pending],
            "track_items": self._track_items,
            "items": [
                [item, sequence, bin_index]
                for item, (sequence, bin_index) in self._items.items()
            ],
            "telemetry": self.telemetry.counters(),
            "stepper": self._stepper.state_dict(),
        }

    def digest(self) -> str:
        """Canonical SHA-256 of :meth:`snapshot` (see :func:`snapshot_digest`)."""
        return snapshot_digest(self.snapshot())

    @classmethod
    def restore(
        cls,
        snapshot: Dict[str, Any],
        *,
        telemetry: Optional[LoadTelemetry] = None,
    ) -> "OnlineAllocator":
        """Rebuild an allocator from a :meth:`snapshot` document.

        The restored allocator continues the stream bit-identically: the
        stepper's buffered RNG blocks and generator state are reinstated
        wholesale (the construction-time draws are discarded).
        """
        if snapshot.get("format") != SNAPSHOT_FORMAT:
            raise OnlineAllocatorError(
                f"not an online-allocator snapshot: format="
                f"{snapshot.get('format')!r}"
            )
        if snapshot.get("version") != SNAPSHOT_VERSION:
            raise OnlineAllocatorError(
                f"unsupported snapshot version {snapshot.get('version')!r} "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        allocator = cls(
            SchemeSpec.from_dict(snapshot["spec"]),
            telemetry=telemetry,
            track_items=snapshot.get("track_items", False),
        )
        allocator._stepper.load_state(snapshot["stepper"])
        allocator.placed = int(snapshot["placed"])
        allocator.removed = int(snapshot["removed"])
        allocator._pending = deque(int(b) for b in snapshot["pending"])
        allocator._items = {
            item: (int(sequence), int(bin_index))
            for item, sequence, bin_index in snapshot["items"]
        }
        allocator.telemetry.restore_counters(snapshot["telemetry"])
        return allocator

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Deterministic end-of-stream statistics (CLI/golden friendly)."""
        loads = self._stepper.loads
        total = int(loads.sum())
        maximum = int(loads.max()) if loads.size else 0
        mean = total / self.n_bins if self.n_bins else 0.0
        p50, p95, p99 = (
            np.percentile(loads, (50, 95, 99)) if loads.size else (0.0, 0.0, 0.0)
        )
        return {
            "scheme": self.spec.scheme,
            "n_bins": self.n_bins,
            "placed": self.placed,
            "removed": self.removed,
            "live_balls": total,
            "max_load": maximum,
            "mean_load": mean,
            "gap": maximum - mean,
            "load_p50": float(p50),
            "load_p95": float(p95),
            "load_p99": float(p99),
            "messages": int(self._stepper.messages),
            "rounds": int(self._stepper.rounds),
            "telemetry_samples": self.telemetry.samples_taken,
            "loads_sha256": hashlib.sha256(
                np.ascontiguousarray(loads).tobytes()
            ).hexdigest(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"OnlineAllocator({self.spec.display_label!r}, "
            f"placed={self.placed}/{self.capacity}, removed={self.removed})"
        )
