"""Oracle: the hand-written topology-aware runners.

``run_hierarchical_go_left``
    Vöcking's Always-Go-Left with the topology's *racks* as the probe
    groups: one uniform probe per rack (racks ordered zone by zone), ties
    broken towards the leftmost rack.

``run_locality_two_choice``
    Greedy[d] with a locality bias: a deterministic Bresenham schedule
    remaps an exact fraction ``bias`` of probe slots into the caller's
    home zone, and the ball spills to a cross-zone probe only when that
    probe is more than ``threshold`` balls lighter than the best local
    one.

Independent scalar references kept for the tests (the library runs the
steppers of :mod:`repro.core.kernels.topology`); they share the tallies
and selection helpers of :mod:`repro.topology.schemes` and import nothing
from :mod:`repro.core.kernels`.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.core.baselines import _CHUNK, _make_rng, least_loaded_probe
from repro.core.types import AllocationResult
from repro.topology.records import Topology, as_topology, zone_counter_extra
from repro.topology.schemes import ZoneCounters, local_probe_slots, locality_select

from .process import _DEFAULT_CHUNK_ROUNDS

__all__ = ["run_hierarchical_go_left", "run_locality_two_choice"]


def _resolve_hierarchical(
    n_bins: int, d: Optional[int], topology: Any
) -> Topology:
    if topology is None:
        groups = 4 if d is None else int(d)
        topo = Topology.grid(n_bins, zones=groups, racks_per_zone=1)
    else:
        topo = as_topology(topology, n_bins)
        if d is not None and int(d) != topo.n_racks:
            raise ValueError(
                f"hierarchical go-left probes one bin per rack; topology "
                f"{topo.name!r} has {topo.n_racks} racks but d={d} was given"
            )
    if topo.n_racks < 1 or np.any(topo.rack_sizes <= 0):
        raise ValueError("every rack must contain at least one bin")
    return topo


def run_hierarchical_go_left(
    n_bins: int,
    d: Optional[int] = None,
    topology: Any = None,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Always-Go-Left over a topology's racks (one probe per rack).

    Without a topology this defaults to a ``d``-zone one-rack-per-zone
    grid, which makes the probe ranges identical to flat
    ``always_go_left`` with ``d`` groups.  With a topology, ``d`` is
    implied by the rack count (passing both requires them to agree).
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    topo = _resolve_hierarchical(n_bins, d, topology)
    n_racks = topo.n_racks
    if n_balls is None:
        n_balls = n_bins
    if n_balls < 0:
        raise ValueError(f"n_balls must be non-negative, got {n_balls}")
    generator = _make_rng(seed, rng)

    boundaries = topo.rack_starts
    group_sizes = topo.rack_sizes
    counters = ZoneCounters()
    loads = [0] * n_bins
    messages = 0
    placed = 0
    while placed < n_balls:
        batch = min(n_balls - placed, _CHUNK)
        uniform = generator.random(size=(batch, n_racks))
        probes = (boundaries[:-1] + uniform * group_sizes).astype(np.int64)
        indices = np.arange(placed, placed + batch, dtype=np.int64)
        home_zones = topo.home_zones(indices)
        home_racks = topo.home_racks(indices)
        counters.count_probes(topo, probes, home_zones, home_racks)
        for offset, row in enumerate(probes.tolist()):
            messages += n_racks
            destination = least_loaded_probe(loads, row)
            loads[destination] += 1
            counters.count_place(
                topo, destination, int(home_zones[offset]), int(home_racks[offset])
            )
        placed += batch

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme=f"hierarchical-go-left[{topo.name}]",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=n_racks,
        messages=messages,
        rounds=n_balls,
        policy="hierarchical",
        extra=zone_counter_extra(topo, counters.as_dict()),
    )


def run_locality_two_choice(
    n_bins: int,
    d: int = 2,
    bias: float = 0.0,
    threshold: int = 0,
    topology: Any = None,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
    chunk_rounds: Optional[int] = None,
) -> AllocationResult:
    """Greedy[d] with zone-biased probes and threshold cross-zone spill.

    Each ball draws ``d`` uniform bins plus a tiebreak vector — the exact
    blocks flat ``two_choice`` draws — then the Bresenham schedule remaps
    an exact fraction ``bias`` of probe slots into the ball's home zone
    (``zone_starts[hz] + raw % zone_sizes[hz]``; the identity under a
    flat topology).  The ball joins the best local probe unless the best
    remote probe is more than ``threshold`` balls lighter.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if d > n_bins:
        raise ValueError(f"d must not exceed n_bins, got d={d}, n_bins={n_bins}")
    if not 0.0 <= bias <= 1.0:
        raise ValueError(f"bias must lie in [0, 1], got {bias}")
    threshold = int(threshold)
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold}")
    topo = as_topology(topology, n_bins)
    if n_balls is None:
        n_balls = n_bins
    if n_balls < 0:
        raise ValueError(f"n_balls must be non-negative, got {n_balls}")
    if chunk_rounds is None:
        chunk_rounds = _DEFAULT_CHUNK_ROUNDS
    if chunk_rounds < 1:
        raise ValueError(f"chunk_rounds must be positive, got {chunk_rounds}")
    generator = _make_rng(seed, rng)

    zone_starts = topo.zone_starts
    zone_sizes = topo.zone_sizes
    bin_zone = topo.bin_zone
    counters = ZoneCounters()
    loads = [0] * n_bins
    messages = 0
    placed = 0
    drawn = 0
    while placed < n_balls:
        chunk = min(n_balls - drawn, chunk_rounds)
        buffer = generator.integers(0, n_bins, size=(chunk, d))
        drawn += chunk
        for row in buffer:
            ties = generator.random(d)
            index = placed
            hz = topo.home_zone(index)
            hr = topo.home_rack(index)
            local_slot = local_probe_slots(
                np.asarray([index], dtype=np.int64), d, bias
            )[0]
            mapped = np.where(
                local_slot,
                zone_starts[hz] + row % zone_sizes[hz],
                row,
            ).astype(np.int64)
            counters.count_probes(
                topo,
                mapped[None, :],
                np.asarray([hz], dtype=np.int64),
                np.asarray([hr], dtype=np.int64),
            )
            local_mask = bin_zone[mapped] == hz
            destination = locality_select(
                loads, mapped, local_mask, threshold, ties
            )
            loads[destination] += 1
            counters.count_place(topo, destination, hz, hr)
            messages += d
            placed += 1

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme=f"locality-two-choice[{topo.name}]",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=d,
        messages=messages,
        rounds=n_balls,
        policy="locality",
        extra={
            **zone_counter_extra(topo, counters.as_dict()),
            "bias": float(bias),
            "threshold": threshold,
        },
    )
