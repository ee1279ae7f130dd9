"""Versioned JSONL traces: capture a workload once, replay it anywhere.

A trace is a JSON-Lines file: one *header* line naming the format, its
version and the spec that should serve the stream, followed by one *event*
line per request::

    {"format":"repro-online-trace","version":1,"scheme":"kd_choice",
     "params":{"d":4,"k":2,"n_bins":64},"policy":null,"seed":7,"events":70}
    {"op":"place","item":0,"t":0.001017...}
    {"op":"remove","item":0,"t":0.013314...}

Serialization is canonical (sorted keys, no whitespace), so recording the
same workload twice produces byte-identical files, and a replay that
re-records its input (``record_out=``) reproduces it byte for byte — the
round-trip the CI golden step locks down.  Placement *destinations* are
deliberately not stored: they are recomputed from the header's seed at
replay, which is what makes one trace replayable across engines (scalar
unit-steps or the vectorized batch kernels) with identical results.

:func:`record_workload` and :func:`stream_workload` take their events from
the workload registry (:func:`repro.workloads.generate_events`); the default
``uniform`` scenario stamps the same Poisson / bursty-MMPP arrival processes
that drive the cluster substrate, plus optional churn (randomized removals
of live items), so substrate-grade workloads can be captured once and
replayed deterministically.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, List, Optional, Tuple

from ..api.registry import get_scheme
from ..api.spec import SchemeSpec
from .allocator import OnlineAllocator, write_snapshot
from .telemetry import LoadTelemetry

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TraceError",
    "TraceHeader",
    "TraceWriter",
    "read_trace",
    "record_workload",
    "ReplaySummary",
    "run_events",
    "replay_trace",
    "stream_workload",
]

TRACE_FORMAT = "repro-online-trace"
TRACE_VERSION = 1

_EVENT_OPS = ("place", "remove")


class TraceError(ValueError):
    """Raised for malformed, unversioned or future-versioned traces."""


def _canonical(obj: Any) -> str:
    """The one serialization every trace line uses (byte-stable)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class TraceHeader:
    """The first line of a trace: which spec serves the stream."""

    scheme: str
    params: Dict[str, Any] = field(default_factory=dict)
    policy: Optional[str] = None
    seed: Optional[int] = None
    events: Optional[int] = None  #: advisory event count (not enforced)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "scheme": self.scheme,
            "params": dict(self.params),
            "policy": self.policy,
            "seed": self.seed,
            "events": self.events,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceHeader":
        if payload.get("format") != TRACE_FORMAT:
            raise TraceError(
                f"not a {TRACE_FORMAT} file (format={payload.get('format')!r})"
            )
        version = payload.get("version")
        if version != TRACE_VERSION:
            raise TraceError(
                f"trace version {version!r} is not supported (this build "
                f"reads version {TRACE_VERSION}); re-record the trace"
            )
        if not isinstance(payload.get("scheme"), str) or not payload["scheme"]:
            raise TraceError("trace header is missing its scheme name")
        return cls(
            scheme=payload["scheme"],
            params=dict(payload.get("params") or {}),
            policy=payload.get("policy"),
            seed=payload.get("seed"),
            events=payload.get("events"),
        )


def _derive_items(spec: SchemeSpec, items: Optional[int]) -> int:
    """The stream length: explicit, or the spec's ``n_balls``/``n_bins``.

    Presence-checked (not an ``or`` chain) so an explicit ``n_balls=0``
    means an empty stream rather than falling through to ``n_bins``.
    """
    if items is not None:
        return int(items)
    for key in ("n_balls", "n_bins"):
        if spec.params.get(key) is not None:
            return int(spec.params[key])
    raise ValueError(
        "items could not be derived from the spec; pass it explicitly"
    )


def _require_int_seed(seed: Any) -> Optional[int]:
    """Traces persist seeds, so only plain integers (or None) are allowed."""
    if not isinstance(seed, (int, type(None))):
        raise TraceError(
            f"traces require an integer (or None) spec seed, got {seed!r}"
        )
    return seed


def _pin_stream_length(
    scheme: str, params: Dict[str, Any], n_places: int
) -> Dict[str, Any]:
    """Fix the spec's planned stream length to the workload's place count.

    The steppers size their RNG chunks by ``n_balls``, so the serving spec
    must plan exactly the stream it will see; an explicit ``n_balls`` in the
    params wins (the stream is then a prefix of that plan).
    """
    pinned = dict(params)
    if "n_balls" in get_scheme(scheme).parameters and "n_balls" not in pinned:
        pinned["n_balls"] = n_places
    return pinned


def _validate_event(event: Dict[str, Any], line_number: int) -> Dict[str, Any]:
    op = event.get("op")
    if op not in _EVENT_OPS:
        raise TraceError(
            f"line {line_number}: unknown trace op {op!r} "
            f"(expected one of {_EVENT_OPS})"
        )
    if op == "remove" and "item" not in event:
        raise TraceError(f"line {line_number}: remove events need an 'item'")
    return event


class TraceWriter:
    """Stream events into a trace file (header written on open).

    Use as a context manager, or call :meth:`close` explicitly; the file is
    written with ``\\n`` line endings on every platform so traces are
    byte-portable.
    """

    def __init__(self, path: "str | os.PathLike[str]", header: TraceHeader) -> None:
        self.path = Path(path)
        self.header = header
        self._handle: Optional[IO[str]] = open(
            self.path, "w", encoding="utf-8", newline="\n"
        )
        self._handle.write(_canonical(header.to_dict()) + "\n")
        self.events_written = 0

    def write_event(self, event: Dict[str, Any]) -> None:
        if self._handle is None:
            raise TraceError(f"trace writer for {self.path} is closed")
        _validate_event(event, self.events_written + 2)
        self._handle.write(_canonical(event) + "\n")
        self.events_written += 1

    def place(self, item: Any = None, at: Optional[float] = None) -> None:
        event: Dict[str, Any] = {"op": "place"}
        if item is not None:
            event["item"] = item
        if at is not None:
            event["t"] = float(at)
        self.write_event(event)

    def remove(self, item: Any, at: Optional[float] = None) -> None:
        event: Dict[str, Any] = {"op": "remove", "item": item}
        if at is not None:
            event["t"] = float(at)
        self.write_event(event)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def read_trace(
    path: "str | os.PathLike[str]",
) -> Tuple[TraceHeader, List[Dict[str, Any]]]:
    """Parse a trace file into its header and validated event list."""
    events: List[Dict[str, Any]] = []
    header: Optional[TraceHeader] = None
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(
                    f"line {line_number}: invalid JSON ({exc.msg})"
                ) from None
            if header is None:
                header = TraceHeader.from_dict(payload)
            else:
                events.append(_validate_event(payload, line_number))
    if header is None:
        raise TraceError(f"{path}: empty trace (no header line)")
    return header, events


# ----------------------------------------------------------------------
# Workload-to-trace bridge
# ----------------------------------------------------------------------
# Events come straight from the workload registry (:mod:`repro.workloads`);
# ``repro schemes --check`` lints that this module defines no generator of
# its own.
from ..workloads import bind_spec_params, generate_events  # noqa: E402


def _bind_workload_spec(
    spec: SchemeSpec,
    workload: str,
    workload_params: Optional[Dict[str, Any]],
) -> SchemeSpec:
    """Merge the workload's contributed spec params (e.g. capacities)."""
    extra = bind_spec_params(workload, workload_params, spec.params)
    return spec.with_params(**extra) if extra else spec


def record_workload(
    path: "str | os.PathLike[str]",
    spec: SchemeSpec,
    items: Optional[int] = None,
    workload_seed: Optional[int] = None,
    workload: str = "uniform",
    workload_params: Optional[Dict[str, Any]] = None,
) -> TraceHeader:
    """Capture a workload against ``spec`` as a replayable trace file.

    ``items`` defaults to the spec's planned stream length (``n_balls``,
    falling back to ``n_bins``).  Returns the written header.
    """
    items = _derive_items(spec, items)
    spec = _bind_workload_spec(spec, workload, workload_params)
    events = generate_events(workload, items, workload_params, workload_seed)
    seed = _require_int_seed(spec.seed)
    header = TraceHeader(
        scheme=spec.scheme,
        params=dict(spec.params),
        policy=spec.policy,
        seed=seed,
        events=len(events),
    )
    with TraceWriter(path, header) as writer:
        for event in events:
            writer.write_event(event)
    return header


# ----------------------------------------------------------------------
# Replay
# ----------------------------------------------------------------------
@dataclass
class ReplaySummary:
    """Deterministic outcome of driving an allocator through an event list."""

    spec: SchemeSpec
    engine: str  #: the engine the caller requested (echoed in output)
    events: int
    places: int
    removes: int
    stats: Dict[str, Any]  #: :meth:`OnlineAllocator.summary` of the end state
    snapshots_taken: int = 0
    snapshot_paths: List[str] = field(default_factory=list)

    def format_text(self) -> str:
        lines = [
            f"spec: {self.spec.display_label} "
            f"(engine={self.engine}, seed={self.spec.seed})",
            f"  events: {self.events} "
            f"({self.places} places, {self.removes} removes)",
        ]
        for key in (
            "placed",
            "removed",
            "live_balls",
            "max_load",
            "mean_load",
            "gap",
            "load_p50",
            "load_p95",
            "load_p99",
            "messages",
            "rounds",
            "telemetry_samples",
        ):
            lines.append(f"  {key}: {self.stats[key]}")
        if "tenants" in self.stats:
            fairness = self.stats["tenant_fairness"]
            lines.append(
                f"  tenants: {len(self.stats['tenants'])} "
                f"(fairness={fairness:.4f})"
            )
            for tenant, counters in self.stats["tenants"].items():
                lines.append(
                    f"    tenant {tenant}: placed={counters['placements']}, "
                    f"removed={counters['removals']}, live={counters['live']}, "
                    f"max_load={counters['max_load']}"
                )
        if "topology" in self.stats:
            topo = self.stats["topology"]
            lines.append(
                f"  topology: cross_probe_fraction="
                f"{topo['cross_probe_fraction']:.4f}, "
                f"cross_place_fraction={topo['cross_place_fraction']:.4f}"
            )
            lines.append(
                f"    probes: rack={topo['rack_probes']}, "
                f"zone={topo['zone_probes']}, cross={topo['cross_probes']}; "
                f"places: local={topo['local_places']}, "
                f"cross={topo['cross_places']}"
            )
        if self.snapshots_taken:
            lines.append(f"  snapshots: {self.snapshots_taken}")
        lines.append(f"  loads_sha256: {self.stats['loads_sha256']}")
        return "\n".join(lines)


def _spec_for_stream(
    header: TraceHeader, n_places: int, engine: Optional[str]
) -> SchemeSpec:
    """Build the serving spec, pinning the planned stream length."""
    return SchemeSpec(
        scheme=header.scheme,
        params=_pin_stream_length(header.scheme, dict(header.params), n_places),
        policy=header.policy,
        seed=header.seed,
        engine=engine if engine is not None else "auto",
    )


def run_events(
    spec: SchemeSpec,
    events: List[Dict[str, Any]],
    snapshot_every: Optional[int] = None,
    snapshot_dir: "str | os.PathLike[str] | None" = None,
    telemetry: Optional[LoadTelemetry] = None,
    record_writer: Optional[TraceWriter] = None,
) -> ReplaySummary:
    """Drive a fresh allocator through ``events`` and summarize the end state.

    The engine choice only affects *how* consecutive placements are ingested
    (unit steps vs the batch kernels) — the resulting stream is identical.
    ``snapshot_every`` captures the allocator every that-many events (written
    to ``snapshot_dir`` when given, else kept out of memory — only counted);
    ``record_writer`` re-emits every consumed event (the byte-stable
    re-record path).
    """
    if snapshot_every is not None and snapshot_every < 1:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    has_removes = any(event["op"] == "remove" for event in events)
    has_tenants = any("tenant" in event for event in events)
    allocator = OnlineAllocator(
        spec, telemetry=telemetry, track_items=has_removes
    )
    # Tenant attribution lives here, not in the allocator: only the event
    # driver sees the workload's labels together with the chosen bins.
    tenant_place = allocator.telemetry.record_tenant_place
    tenant_remove = allocator.telemetry.record_tenant_remove
    # Zone attribution (topology-aware workloads): placement locality comes
    # from the event's source-zone tag against the destination bin's zone;
    # probe relations come off the stepper's own kernel tallies, diffed per
    # placement run.
    bin_zone = None
    if (
        any("zone" in event for event in events)
        and spec.params.get("topology") is not None
        and spec.params.get("n_bins") is not None
    ):
        from ..topology.records import as_topology

        bin_zone = as_topology(
            spec.params["topology"], int(spec.params["n_bins"])
        ).bin_zone
    zone_place = allocator.telemetry.record_zone_place
    probe_tally = getattr(allocator.stepper, "zone_counters", None)
    probe_base = dict(probe_tally) if probe_tally is not None else None

    def sync_zone_probes() -> None:
        if probe_base is None:
            return
        current = allocator.stepper.zone_counters
        allocator.telemetry.record_zone_probes(
            rack=current["rack_probes"] - probe_base["rack_probes"],
            zone=current["zone_probes"] - probe_base["zone_probes"],
            cross=current["cross_probes"] - probe_base["cross_probes"],
        )
        probe_base.update(current)

    snapshot_paths: List[str] = []
    snapshots_taken = 0
    places = removes = 0
    consumed = 0
    total = len(events)

    def take_snapshot() -> None:
        nonlocal snapshots_taken
        snapshots_taken += 1
        if snapshot_dir is not None:
            directory = Path(snapshot_dir)
            directory.mkdir(parents=True, exist_ok=True)
            target = directory / f"snapshot-{consumed:08d}.json"
            # Atomic (*.tmp + os.replace): a process killed mid-capture must
            # never leave a torn snapshot behind.
            write_snapshot(target, allocator.snapshot())
            snapshot_paths.append(str(target))
        # Without a directory only the count is observable; building (and
        # discarding) a full state document every interval would be waste.

    index = 0
    while index < total:
        event = events[index]
        if event["op"] == "place":
            run_stop = index
            limit = total
            if snapshot_every is not None:
                limit = min(limit, index + snapshot_every - (consumed % snapshot_every))
            # Chunk at the telemetry cadence too: one place_batch samples at
            # most once, so a run ends where a sample falls due and the
            # samples land at the same event counts as one place() per
            # event would take them.
            limit = min(
                limit, index + max(1, allocator.telemetry.events_until_due())
            )
            while run_stop < limit and events[run_stop]["op"] == "place":
                run_stop += 1
            run = events[index:run_stop]
            # Register item ids only when some event will look one up: a
            # churn-free replay must not build an O(n) item map.
            keys = None
            if has_removes:
                start_sequence = allocator.placed
                keys = [
                    e["item"] if e.get("item") is not None
                    else start_sequence + offset
                    for offset, e in enumerate(run)
                ]
            destinations = allocator.place_batch(len(run), items=keys)
            if has_tenants:
                for e, bin_index in zip(run, destinations):
                    if "tenant" in e:
                        tenant_place(e["tenant"], int(bin_index))
            if bin_zone is not None:
                for e, bin_index in zip(run, destinations):
                    if "zone" in e:
                        zone_place(int(bin_zone[int(bin_index)]) == e["zone"])
            sync_zone_probes()
            places += len(run)
            if record_writer is not None:
                for e in run:
                    record_writer.write_event(e)
            consumed += len(run)
            index = run_stop
        else:
            bin_index = allocator.remove(event["item"])
            if "tenant" in event:
                tenant_remove(event["tenant"], bin_index)
            removes += 1
            if record_writer is not None:
                record_writer.write_event(event)
            consumed += 1
            index += 1
        if snapshot_every is not None and consumed % snapshot_every == 0:
            take_snapshot()

    stats = allocator.summary()
    if allocator.telemetry.has_tenants:
        # Additive keys: tenancy-free summaries (and their goldens) are
        # byte-identical with or without this feature.
        stats["tenants"] = allocator.telemetry.tenant_summary()
        stats["tenant_fairness"] = allocator.telemetry.tenant_fairness()
    if allocator.telemetry.has_topology:
        # Additive keys, same contract as tenants above.
        topology_stats = allocator.telemetry.topology_summary()
        stats["topology"] = topology_stats
        stats["cross_zone_probe_fraction"] = topology_stats["cross_probe_fraction"]
        stats["cross_zone_place_fraction"] = topology_stats["cross_place_fraction"]
    return ReplaySummary(
        spec=spec,
        engine=spec.engine,
        events=total,
        places=places,
        removes=removes,
        stats=stats,
        snapshots_taken=snapshots_taken,
        snapshot_paths=snapshot_paths,
    )


def replay_trace(
    path: "str | os.PathLike[str]",
    engine: Optional[str] = None,
    snapshot_every: Optional[int] = None,
    snapshot_dir: "str | os.PathLike[str] | None" = None,
    record_out: "str | os.PathLike[str] | None" = None,
    telemetry: Optional[LoadTelemetry] = None,
) -> ReplaySummary:
    """Replay a recorded trace deterministically; returns the summary.

    ``record_out`` re-records the consumed stream to a new trace file —
    byte-identical to the input for traces produced by this module (the
    format round-trip the CI golden step asserts).
    """
    header, events = read_trace(path)
    n_places = sum(1 for event in events if event["op"] == "place")
    spec = _spec_for_stream(header, n_places, engine)
    writer = (
        TraceWriter(record_out, TraceHeader(
            scheme=header.scheme, params=header.params, policy=header.policy,
            seed=header.seed, events=header.events,
        ))
        if record_out is not None
        else None
    )
    try:
        return run_events(
            spec,
            events,
            snapshot_every=snapshot_every,
            snapshot_dir=snapshot_dir,
            telemetry=telemetry,
            record_writer=writer,
        )
    finally:
        if writer is not None:
            writer.close()


def stream_workload(
    spec: SchemeSpec,
    items: Optional[int] = None,
    workload_seed: Optional[int] = None,
    record: "str | os.PathLike[str] | None" = None,
    snapshot_every: Optional[int] = None,
    snapshot_dir: "str | os.PathLike[str] | None" = None,
    telemetry: Optional[LoadTelemetry] = None,
    workload: str = "uniform",
    workload_params: Optional[Dict[str, Any]] = None,
) -> ReplaySummary:
    """Generate a workload and serve it live (optionally recording it).

    The driver behind ``repro stream``: builds the event list of the
    registered scenario ``workload`` (any entry of :mod:`repro.workloads`),
    merges the scenario's contributed spec params (e.g. ``hetero_bins``
    capacities), pins the spec's ``n_balls`` to the placement count, and
    runs it through :func:`run_events`.  With ``record=`` the served stream
    is captured as a trace whose later ``repro replay`` reproduces this run
    exactly.
    """
    items = _derive_items(spec, items)
    spec = _bind_workload_spec(spec, workload, workload_params)
    events = generate_events(workload, items, workload_params, workload_seed)
    pinned = _pin_stream_length(spec.scheme, dict(spec.params), items)
    if pinned != dict(spec.params):
        spec = spec.with_params(**pinned)
    seed = _require_int_seed(spec.seed) if record is not None else spec.seed
    writer = (
        TraceWriter(record, TraceHeader(
            scheme=spec.scheme, params=dict(spec.params), policy=spec.policy,
            seed=seed, events=len(events),
        ))
        if record is not None
        else None
    )
    try:
        return run_events(
            spec,
            events,
            snapshot_every=snapshot_every,
            snapshot_dir=snapshot_dir,
            telemetry=telemetry,
            record_writer=writer,
        )
    finally:
        if writer is not None:
            writer.close()
