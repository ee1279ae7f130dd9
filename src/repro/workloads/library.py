"""Scenario library v2: every traffic shape as one frozen registration.

Six scenarios cover ROADMAP item 3's open traffic shapes:

``uniform``
    The default workload — sequential unique items, optional Poisson/MMPP
    arrival stamping, optional uniform churn.  Its seed derivation is
    frozen to the pre-registry layout so traces recorded before the
    registry replay byte-identically.
``zipf_items``
    Power-law item popularity: repeated draws over a key universe with
    Zipf weights (the storage substrate's :func:`zipf_weights` sampler),
    re-placing a key on every repeat hit — the update-heavy stream that
    exercises the weighted schemes.
``adversarial_burst``
    Worst-case bursts: after each burst of placements the adversary
    evicts the most recently placed items — exactly the bins that just
    won a probe — forcing the allocator to refill the same region.
``diurnal``
    A sinusoidal load curve: placements stamped by an inhomogeneous
    Poisson process (Lewis–Shedler thinning) whose rate swings around
    the mean with configurable amplitude and period.
``hetero_bins``
    Heterogeneous bin capacities: a geometric capacity ramp bound into
    the serving spec (``capacities=``) and threaded through the
    steppers' load comparison, with a plain uniform stream on top.
``multi_tenant``
    Interleaved per-tenant streams (``tenant = item % tenants``) with
    per-tenant churn; `LoadTelemetry` picks the labels up to maintain
    per-tenant max-load and fairness counters.

All scenario randomness comes from fixed :func:`workload_branches`
positions of the workload seed (branch 0: event skeleton, branch 1:
arrival stamping), so every surface reproducing a (name, params, seed)
triple derives the exact same streams.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from .records import (
    Event,
    Workload,
    WorkloadError,
    register_workload,
    workload_branches,
)

__all__ = ["uniform", "zipf_items", "adversarial_burst", "diurnal",
           "hetero_bins", "multi_tenant", "topology_aware"]


def _validate_churn(churn: float) -> float:
    if not 0.0 <= churn <= 1.0:
        raise WorkloadError(f"churn must lie in [0, 1], got {churn}")
    return float(churn)


def _places_with_churn(
    items: int,
    churn: float,
    rng: np.random.Generator,
    times: Optional[np.ndarray] = None,
) -> List[Event]:
    """``items`` sequential placements, each followed by a churn removal
    of one uniformly random live item with probability ``churn``.

    The shared skeleton behind ``uniform``/``diurnal``/``hetero_bins``/
    ``multi_tenant``; the draw order (one ``random()`` then one
    ``integers()`` per removal) is frozen — recorded traces depend on it.
    """
    events: List[Event] = []
    live: List[int] = []
    for index in range(items):
        event: Event = {"op": "place", "item": index}
        if times is not None:
            event["t"] = float(times[index])
        events.append(event)
        live.append(index)
        if churn > 0.0 and live and float(rng.random()) < churn:
            victim_position = int(rng.integers(0, len(live)))
            victim = live[victim_position]
            # Swap-with-last removal: same uniform victim for this draw,
            # O(1) instead of list.pop's O(live) element shift (which made
            # million-item churn workloads quadratic).
            live[victim_position] = live[-1]
            live.pop()
            removal: Event = {"op": "remove", "item": victim}
            if times is not None:
                removal["t"] = float(times[index])
            events.append(removal)
    return events


# ----------------------------------------------------------------------
# uniform — the default entry
# ----------------------------------------------------------------------
def _uniform_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    churn = _validate_churn(params["churn"])
    arrival_process = params["arrival_process"]
    times: Optional[np.ndarray] = None
    if arrival_process != "none":
        from ..simulation.workloads import sample_arrival_times

        times = sample_arrival_times(
            items,
            arrival_rate=params["arrival_rate"],
            arrival_process=arrival_process,
            burstiness=params["burstiness"],
            switch_prob=params["switch_prob"],
            seed=seed,
        )
        # sample_arrival_times consumed this generator's distribution from a
        # fresh default_rng(seed); reuse an independent stream for churn by
        # jumping to a child so the two draws never overlap.  This layout
        # predates the registry and is frozen: recorded traces must stay
        # byte-identical.
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    else:
        rng = np.random.default_rng(seed)
    return _places_with_churn(items, churn, rng, times)


def _uniform_arrivals(params: Mapping[str, Any]) -> Dict[str, Any]:
    # The cluster substrate always stamps arrivals, so the stream surface's
    # "none" (unstamped events) maps to its default memoryless process.
    process = params["arrival_process"]
    return {
        "arrival_process": "poisson" if process == "none" else process,
        "arrival_rate": params["arrival_rate"],
        "burstiness": params["burstiness"],
    }


uniform = register_workload(Workload(
    name="uniform",
    summary="sequential unique items; optional Poisson/MMPP stamps and churn",
    defaults={
        "arrival_process": "none",
        "arrival_rate": 1000.0,
        "burstiness": 4.0,
        "switch_prob": 0.1,
        "churn": 0.0,
    },
    generator=_uniform_events,
    arrivals=_uniform_arrivals,
))


# ----------------------------------------------------------------------
# zipf_items — power-law item popularity
# ----------------------------------------------------------------------
def _zipf_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    exponent = float(params["exponent"])
    universe = int(params["universe"]) or max(items, 1)
    if universe <= 0:
        raise WorkloadError(f"universe must be positive, got {universe}")
    if exponent < 0:
        raise WorkloadError(f"exponent must be non-negative, got {exponent}")
    from ..simulation.workloads import zipf_weights

    (rng,) = workload_branches(seed, 1)
    cumulative = np.cumsum(zipf_weights(universe, exponent))
    draws = rng.random(items)
    keys = np.minimum(
        np.searchsorted(cumulative, draws * cumulative[-1], side="right"),
        universe - 1,
    )
    events: List[Event] = []
    live: set = set()
    for key in (int(k) for k in keys):
        if key in live:
            # A repeat hit on a hot key is an update: the old copy leaves
            # its bin and the key is placed anew, so placements stay exactly
            # ``items`` while popular keys keep migrating.
            events.append({"op": "remove", "item": key})
        events.append({"op": "place", "item": key})
        live.add(key)
    return events


zipf_items = register_workload(Workload(
    name="zipf_items",
    summary="Zipf-skewed key popularity; repeat hits re-place the hot keys",
    defaults={"exponent": 1.1, "universe": 0},
    generator=_zipf_events,
))


# ----------------------------------------------------------------------
# adversarial_burst — evict what was just placed
# ----------------------------------------------------------------------
def _adversarial_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    burst = int(params["burst"])
    attack = float(params["attack"])
    if burst <= 0:
        raise WorkloadError(f"burst must be positive, got {burst}")
    if not 0.0 <= attack <= 1.0:
        raise WorkloadError(f"attack must lie in [0, 1], got {attack}")
    events: List[Event] = []
    live: List[int] = []
    placed = 0
    while placed < items:
        width = min(burst, items - placed)
        for _ in range(width):
            events.append({"op": "place", "item": placed})
            live.append(placed)
            placed += 1
        # The adversary of the paper's lower-bound discussion: empty the
        # bins that just won a probe.  The most recently placed items sit
        # in the (currently) least-loaded bins, so evicting them forces
        # every scheme to keep refilling the same region.
        for _ in range(int(attack * width)):
            if not live:
                break
            events.append({"op": "remove", "item": live.pop()})
    return events


def _burst_stamper(
    events: List[Event], params: Mapping[str, Any], seed: Optional[int]
) -> None:
    rate = float(params["arrival_rate"])
    burstiness = float(params["burstiness"])
    burst = int(params["burst"])
    if rate <= 0:
        raise WorkloadError(f"arrival_rate must be positive, got {rate}")
    if burstiness < 1.0:
        raise WorkloadError(f"burstiness must be >= 1, got {burstiness}")
    rng = workload_branches(seed, 2)[1]
    now = 0.0
    placed = 0
    for event in events:
        if event["op"] == "place":
            # Bursts arrive back to back at ``rate * burstiness``; between
            # bursts the stream idles so the long-run mean stays ``rate``.
            if placed % burst == 0:
                now += float(rng.exponential(burst / rate))
            else:
                now += float(rng.exponential(1.0 / (rate * burstiness)))
            placed += 1
        # Evictions land with the burst that triggered them (same stamp),
        # mirroring the uniform churn convention.
        event["t"] = now


adversarial_burst = register_workload(Workload(
    name="adversarial_burst",
    summary="bursts of places, then eviction of the most recently placed items",
    defaults={
        "burst": 64,
        "attack": 0.5,
        "arrival_rate": 1000.0,
        "burstiness": 8.0,
    },
    generator=_adversarial_events,
    stamper=_burst_stamper,
))


# ----------------------------------------------------------------------
# diurnal — sinusoidal load curve
# ----------------------------------------------------------------------
def _diurnal_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    churn = _validate_churn(params["churn"])
    (rng,) = workload_branches(seed, 1)
    return _places_with_churn(items, churn, rng)


def _diurnal_stamper(
    events: List[Event], params: Mapping[str, Any], seed: Optional[int]
) -> None:
    rate = float(params["arrival_rate"])
    period = float(params["period"])
    amplitude = float(params["amplitude"])
    if rate <= 0:
        raise WorkloadError(f"arrival_rate must be positive, got {rate}")
    if period <= 0:
        raise WorkloadError(f"period must be positive, got {period}")
    if not 0.0 <= amplitude < 1.0:
        raise WorkloadError(f"amplitude must lie in [0, 1), got {amplitude}")
    rng = workload_branches(seed, 2)[1]
    # Lewis–Shedler thinning: candidate arrivals at the peak rate, accepted
    # with probability rate(t)/peak — an exact inhomogeneous Poisson draw.
    peak = rate * (1.0 + amplitude)
    now = 0.0
    for event in events:
        if event["op"] == "place":
            while True:
                now += float(rng.exponential(1.0 / peak))
                current = rate * (
                    1.0 + amplitude * math.sin(2.0 * math.pi * now / period)
                )
                if float(rng.random()) * peak <= current:
                    break
        event["t"] = now


diurnal = register_workload(Workload(
    name="diurnal",
    summary="sinusoidal arrival-rate curve (inhomogeneous Poisson stamps)",
    defaults={
        "arrival_rate": 1000.0,
        "period": 60.0,
        "amplitude": 0.8,
        "churn": 0.0,
    },
    generator=_diurnal_events,
    stamper=_diurnal_stamper,
))


# ----------------------------------------------------------------------
# hetero_bins — heterogeneous bin capacities
# ----------------------------------------------------------------------
def _hetero_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    churn = _validate_churn(params["churn"])
    (rng,) = workload_branches(seed, 1)
    return _places_with_churn(items, churn, rng)


def _hetero_binder(
    params: Mapping[str, Any], spec_params: Mapping[str, Any]
) -> Dict[str, Any]:
    spread = float(params["spread"])
    if spread < 1.0:
        raise WorkloadError(f"spread must be >= 1, got {spread}")
    n_bins = spec_params.get("n_bins")
    if n_bins is None:
        raise WorkloadError(
            "hetero_bins derives its capacity ramp from the spec's n_bins; "
            "pass --param n_bins=<count>"
        )
    n = int(n_bins)
    if n <= 0:
        raise WorkloadError(f"n_bins must be positive, got {n}")
    # A deterministic geometric ramp from 1 to ``spread`` — no seed
    # involved, so every surface (and every snapshot restore) rebuilds
    # the identical capacity vector from the spec params alone.
    if n == 1:
        capacities = [1.0]
    else:
        capacities = [float(spread ** (i / (n - 1))) for i in range(n)]
    return {"capacities": capacities}


hetero_bins = register_workload(Workload(
    name="hetero_bins",
    summary="uniform stream over a geometric bin-capacity ramp (capacities=)",
    defaults={"spread": 4.0, "churn": 0.0},
    generator=_hetero_events,
    binder=_hetero_binder,
))


# ----------------------------------------------------------------------
# multi_tenant — interleaved per-tenant streams
# ----------------------------------------------------------------------
def _multi_tenant_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    churn = _validate_churn(params["churn"])
    if int(params["tenants"]) <= 0:
        raise WorkloadError(
            f"tenants must be positive, got {params['tenants']}"
        )
    (rng,) = workload_branches(seed, 1)
    return _places_with_churn(items, churn, rng)


def _tenant_labeler(events: List[Event], params: Mapping[str, Any]) -> None:
    tenants = int(params["tenants"])
    # Round-robin interleave: tenant identity is a pure function of the
    # item id, so churn removals inherit the right label for free and the
    # labeling stays identical across surfaces and replays.
    for event in events:
        event["tenant"] = int(event["item"]) % tenants


multi_tenant = register_workload(Workload(
    name="multi_tenant",
    summary="round-robin interleaved tenant streams with per-tenant churn",
    defaults={"tenants": 4, "churn": 0.0},
    generator=_multi_tenant_events,
    labeler=_tenant_labeler,
))


# ----------------------------------------------------------------------
# topology_aware — zone-tagged arrivals over a rack/zone grid
# ----------------------------------------------------------------------
def _topology_events(
    items: int, params: Mapping[str, Any], seed: Optional[int]
) -> List[Event]:
    churn = _validate_churn(params["churn"])
    if int(params["zones"]) <= 0:
        raise WorkloadError(f"zones must be positive, got {params['zones']}")
    if int(params["racks_per_zone"]) <= 0:
        raise WorkloadError(
            f"racks_per_zone must be positive, got {params['racks_per_zone']}"
        )
    (rng,) = workload_branches(seed, 1)
    return _places_with_churn(items, churn, rng)


def _topology_labeler(events: List[Event], params: Mapping[str, Any]) -> None:
    zones = int(params["zones"])
    # Round-robin home zones: zone identity is a pure function of the item
    # id, matching the steppers' home assignment (ball index % n_zones), so
    # the driver's cross-zone attribution agrees with the kernel counters.
    for event in events:
        event["zone"] = int(event["item"]) % zones


def _topology_binder(
    params: Mapping[str, Any], spec_params: Mapping[str, Any]
) -> Dict[str, Any]:
    from ..topology.records import Topology

    zones = int(params["zones"])
    racks_per_zone = int(params["racks_per_zone"])
    n_bins = spec_params.get("n_bins")
    if n_bins is None:
        raise WorkloadError(
            "topology_aware derives its rack/zone grid from the spec's "
            "n_bins; pass --param n_bins=<count>"
        )
    n = int(n_bins)
    if n <= 0:
        raise WorkloadError(f"n_bins must be positive, got {n}")
    # A deterministic grid — no seed involved, so every surface (and every
    # snapshot restore) rebuilds the identical tree from the params alone.
    topology = Topology.grid(n, zones, racks_per_zone)
    return {"topology": topology.to_dict()}


topology_aware = register_workload(Workload(
    name="topology_aware",
    summary="zone-tagged arrivals over a rack/zone grid (topology=)",
    defaults={"zones": 2, "racks_per_zone": 1, "churn": 0.0},
    generator=_topology_events,
    stamper=None,
    labeler=_topology_labeler,
    binder=_topology_binder,
))
