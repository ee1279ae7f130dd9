"""The workload contract: frozen records, one registry, every surface derived.

PR 7 collapsed the per-scheme *engine* surfaces into frozen kernel records;
this module does the same for the *workload* side.  A :class:`Workload` is a
frozen record naming a traffic scenario once — its parameter schema (with
defaults), a deterministic event generator over its own
:class:`~repro.simulation.rng.SeedTree` branches, an optional arrival-time
stamper, an optional per-tenant labeler, and optional hooks binding the
scenario to a serving spec (heterogeneous bin capacities) or to the cluster
substrate's arrival samplers.  Every consuming surface is *derived* from the
registry:

* ``repro.online.trace`` — ``repro stream`` and recorded traces call
  :func:`generate_events`,
* ``repro.serve.loadgen`` — builds its request stream via
  :func:`generate_events`,
* ``repro.simulation.workloads.workload_events`` — the batch/simulate
  surface, re-exporting :func:`generate_events`,
* the CLI's shared ``--workload NAME --workload-param KEY=VALUE`` flag
  group on ``stream`` / ``loadgen`` / ``cluster`` / ``simulate``.

Same (workload name, params, seed) therefore yields the byte-identical
event stream everywhere — the invariant the cross-surface equivalence
harness (``tests/integration/test_workload_surfaces.py``) locks down.

An *event* is a plain dict: ``{"op": "place"|"remove", "item": <int>}``,
optionally stamped with an arrival time ``"t"`` and/or a ``"tenant"``
label.  Every event carries an ``"item"`` id — the loadgen partitions its
connections by ``item`` — and removals only ever name live items.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

import numpy as np

from ..simulation.rng import SeedTree

__all__ = [
    "Event",
    "Workload",
    "WorkloadError",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "available_workloads",
    "generate_events",
    "bind_spec_params",
    "substrate_arrivals",
    "workloads_dump",
    "workload_branches",
]

Event = Dict[str, Any]

#: ``(items, params, seed) -> events`` — the deterministic scenario core.
EventGenerator = Callable[[int, Mapping[str, Any], Optional[int]], List[Event]]

#: ``(events, params, seed) -> None`` — stamps ``"t"`` in place.
ArrivalStamper = Callable[[List[Event], Mapping[str, Any], Optional[int]], None]

#: ``(events, params) -> None`` — adds ``"tenant"`` labels in place.
TenantLabeler = Callable[[List[Event], Mapping[str, Any]], None]

#: ``(params, spec_params) -> extra spec params`` — scenario-driven spec
#: parameters (e.g. heterogeneous bin capacities).
SpecBinder = Callable[[Mapping[str, Any], Mapping[str, Any]], Dict[str, Any]]

#: ``(params) -> substrate arrival kwargs`` — how the cluster substrate's
#: job-trace sampler realizes this scenario's arrival process.
SubstrateArrivals = Callable[[Mapping[str, Any]], Dict[str, Any]]


class WorkloadError(ValueError):
    """Raised for unknown workloads or invalid workload parameters."""


@dataclass(frozen=True)
class Workload:
    """A frozen traffic scenario: the single registration every surface derives.

    Attributes
    ----------
    name:
        Registry key (the ``--workload`` spelling).
    summary:
        One-line human description (``repro workloads`` table).
    defaults:
        The parameter schema: accepted names with their default values.
        Values passed through ``--workload-param`` are validated against
        this mapping and coerced to the default's type.
    generator:
        Deterministic event-skeleton builder.  Scenario randomness comes
        from the workload seed's :class:`SeedTree` branches
        (:func:`workload_branches`), never from global state.
    stamper:
        Optional in-place arrival-time stamper (adds ``"t"``); runs on its
        own seed branch after the generator.
    labeler:
        Optional in-place per-tenant labeler (adds ``"tenant"``).
    binder:
        Optional hook contributing *spec* parameters derived from the
        workload params (e.g. ``hetero_bins`` capacities); consulted by
        the stream/simulate surfaces before building the allocator.
    arrivals:
        Optional hook mapping workload params to the cluster substrate's
        arrival kwargs; workloads without it are rejected by
        ``repro cluster --workload``.
    """

    name: str
    summary: str
    defaults: Mapping[str, Any] = field(default_factory=dict)
    generator: EventGenerator = None  # type: ignore[assignment]
    stamper: Optional[ArrivalStamper] = None
    labeler: Optional[TenantLabeler] = None
    binder: Optional[SpecBinder] = None
    arrivals: Optional[SubstrateArrivals] = None

    def resolve_params(
        self, params: Optional[Mapping[str, Any]] = None
    ) -> Dict[str, Any]:
        """Merge ``params`` over the defaults, rejecting unknown names."""
        merged = dict(self.defaults)
        if not params:
            return merged
        unknown = set(params) - set(self.defaults)
        if unknown:
            raise WorkloadError(
                f"workload {self.name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(self.defaults)}"
            )
        for key, value in params.items():
            merged[key] = _coerce_param(self.name, key, value, self.defaults[key])
        return merged


def _coerce_param(workload: str, key: str, value: Any, default: Any) -> Any:
    """Coerce a user-supplied parameter to the declared default's type."""
    try:
        if isinstance(default, bool):
            if isinstance(value, bool):
                return value
            if isinstance(value, str) and value.lower() in ("true", "false"):
                return value.lower() == "true"
            if isinstance(value, (int, float)) and value in (0, 1):
                return bool(value)
            raise ValueError(f"expected a boolean, got {value!r}")
        if isinstance(default, int):
            as_float = float(value)
            as_int = int(as_float)
            if as_int != as_float:
                raise ValueError(f"expected an integer, got {value!r}")
            return as_int
        if isinstance(default, float):
            return float(value)
        if isinstance(default, str):
            return str(value)
    except (TypeError, ValueError) as exc:
        raise WorkloadError(
            f"workload {workload!r} parameter {key!r}: {exc}"
        ) from None
    return value


#: The registry: name -> frozen record, in registration order.
WORKLOADS: Dict[str, Workload] = {}


def register_workload(record: Workload) -> Workload:
    """Register a workload record (duplicate names are a programming error)."""
    if record.name in WORKLOADS:
        raise ValueError(f"workload {record.name!r} is already registered")
    if record.generator is None:
        raise ValueError(f"workload {record.name!r} needs an event generator")
    WORKLOADS[record.name] = record
    return record


def available_workloads() -> List[str]:
    """Registered workload names in registration order."""
    return list(WORKLOADS)


def get_workload(name: str) -> Workload:
    """Look up a registered workload, with a helpful error on typos."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown workload {name!r}; available: {available_workloads()}"
        ) from None


def workload_branches(
    seed: Optional[int], count: int
) -> List[np.random.Generator]:
    """Independent generators for a workload's internal randomness concerns.

    Every v2 scenario derives its streams from fixed :class:`SeedTree`
    branch positions of the workload seed (branch 0 for the event skeleton,
    branch 1 for arrival stamping, ...), so generator and stamper draws
    never overlap and any surface reproducing the stream derives the exact
    same branches.  (The ``uniform`` workload is the one exception: it keeps
    the pre-registry seed derivation frozen for byte-compatibility with
    recorded traces.)
    """
    return SeedTree(seed).generators(count)


def generate_events(
    name: str,
    items: int,
    params: Optional[Mapping[str, Any]] = None,
    seed: Optional[int] = None,
) -> List[Event]:
    """The one entry point every surface calls: a scenario's event stream.

    ``items`` is the number of *placements*; removals (churn, adversarial
    evictions, hot-key re-placements) ride on top, so the stream always
    pins a serving spec's ``n_balls`` to exactly ``items``.
    """
    if items < 0:
        raise WorkloadError(f"items must be non-negative, got {items}")
    record = get_workload(name)
    merged = record.resolve_params(params)
    events = record.generator(int(items), merged, seed)
    if record.stamper is not None:
        record.stamper(events, merged, seed)
    if record.labeler is not None:
        record.labeler(events, merged)
    return events


def bind_spec_params(
    name: str,
    params: Optional[Mapping[str, Any]],
    spec_params: Mapping[str, Any],
) -> Dict[str, Any]:
    """Spec parameters this workload contributes (empty for most).

    Explicit spec params win over workload-derived ones, so a user can
    always override e.g. the capacity profile by passing ``--param
    capacities=...`` themselves.
    """
    record = get_workload(name)
    merged = record.resolve_params(params)  # validate even without a binder
    if record.binder is None:
        return {}
    contributed = record.binder(merged, spec_params)
    return {k: v for k, v in contributed.items() if k not in spec_params}


def substrate_arrivals(
    name: str, params: Optional[Mapping[str, Any]] = None
) -> Dict[str, Any]:
    """The cluster substrate's arrival kwargs for a workload.

    Only workloads registering an ``arrivals`` hook can drive the job-trace
    sampler (the substrate stamps its own arrival process; it does not
    consume per-item event streams); the rest are rejected with the list of
    scenarios that can.
    """
    record = get_workload(name)
    if record.arrivals is None:
        supported = [
            entry.name for entry in WORKLOADS.values()
            if entry.arrivals is not None
        ]
        raise WorkloadError(
            f"workload {name!r} does not map onto the cluster substrate's "
            f"arrival samplers; workloads that do: {supported}"
        )
    return record.arrivals(record.resolve_params(params))


def workloads_dump() -> Dict[str, Any]:
    """Machine-readable registry dump (the ``repro workloads --json`` body).

    Host-independent and stable across runs — the golden at
    ``tests/data/golden/workloads.json`` locks it down.
    """
    return {
        "format": "repro-workload-registry",
        "version": 1,
        "workloads": {
            record.name: {
                "summary": record.summary,
                "params": dict(record.defaults),
                "stamps_arrivals": record.stamper is not None
                or "arrival_process" in record.defaults,
                "tenant_labels": record.labeler is not None,
                "binds_spec_params": record.binder is not None,
                "substrate_arrivals": record.arrivals is not None,
            }
            for record in WORKLOADS.values()
        },
    }
