"""repro.online — the streaming allocation service.

Where :func:`repro.api.simulate` answers "throw n balls and show me the end
state", this package serves the opposite, production-shaped question: a
long-lived allocator that places (and retires) items one request at a time,
exposes live telemetry, persists its state, and can be driven by recorded
traces — while staying **bit-for-bit identical** to the batch engines for
the same spec and seed.

Key pieces
----------
:class:`OnlineAllocator`
    ``place()`` / ``place_batch()`` / ``remove()`` over any scheme
    whose kernel has a stepper; ``snapshot()`` / ``restore()`` for persistence.
:class:`~repro.online.telemetry.LoadTelemetry`
    O(1)-update counters plus a bounded ring of periodic percentile samples.
:mod:`~repro.online.trace`
    Versioned JSONL traces: :func:`~repro.online.trace.record_workload`
    captures a workload (substrate arrival processes, churn) once;
    :func:`~repro.online.trace.replay_trace` replays it deterministically
    across engines.  CLI: ``repro stream`` / ``repro replay``.
:mod:`~repro.core.kernels`
    The per-scheme steppers underneath; each one is its scheme's
    definition, and the scalar engine is a loop of its ``step()``.
"""

from ..core.kernels import OnlineStepper, StreamExhausted
from .allocator import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    OnlineAllocator,
    OnlineAllocatorError,
    load_snapshot,
    snapshot_digest,
    write_snapshot,
)
from .telemetry import LoadTelemetry, TelemetrySample
from .trace import (
    TRACE_FORMAT,
    TRACE_VERSION,
    ReplaySummary,
    TraceError,
    TraceHeader,
    TraceWriter,
    read_trace,
    record_workload,
    replay_trace,
    run_events,
    stream_workload,
)

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "LoadTelemetry",
    "OnlineAllocator",
    "OnlineAllocatorError",
    "OnlineStepper",
    "ReplaySummary",
    "StreamExhausted",
    "TelemetrySample",
    "TraceError",
    "TraceHeader",
    "TraceWriter",
    "load_snapshot",
    "read_trace",
    "record_workload",
    "replay_trace",
    "run_events",
    "snapshot_digest",
    "stream_workload",
    "write_snapshot",
]
