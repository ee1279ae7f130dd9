"""Scalar reference implementations of the topology-aware schemes.

Two schemes generalize the paper's flat processes onto a
:class:`~repro.topology.records.Topology`:

``run_hierarchical_go_left``
    Vöcking's Always-Go-Left with the topology's *racks* as the probe
    groups: one uniform probe per rack (racks ordered zone by zone), ties
    broken towards the leftmost rack.  A regular grid with ``d`` total
    racks draws from exactly the ``linspace`` group boundaries the flat
    scheme uses, so ``Topology.grid(n, d, 1)`` reproduces
    ``always_go_left`` with ``d`` groups bit for bit.

``run_locality_two_choice``
    Greedy[d] with a locality bias: a deterministic Bresenham schedule
    remaps an exact fraction ``bias`` of probe slots into the caller's
    home zone, and the ball spills to a cross-zone probe only when that
    probe is more than ``threshold`` balls lighter than the best local
    one.  At ``bias = 0`` no slot is remapped and the draw stream,
    selection rule and results are identical to flat ``two_choice``
    (``d = 2``); under ``Topology.flat()`` the remap is the identity, so
    parity holds for *any* bias.

Both runners draw the same RNG blocks as their derived engines (the
steppers in :mod:`repro.core.kernels.topology`, which the kernel table's
``drive`` also runs as the vectorized engine), which is what makes
seed-for-seed equivalence testable.  Costs never touch the random stream:
they are accounted after the fact through
:func:`~repro.topology.records.zone_counter_extra`.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

import numpy as np

from ..core.baselines import _CHUNK, _make_rng, least_loaded_probe
from ..core.process import _DEFAULT_CHUNK_ROUNDS
from ..core.types import AllocationResult
from .records import Topology, as_topology, zone_counter_extra

__all__ = [
    "run_hierarchical_go_left",
    "run_locality_two_choice",
    "locality_select",
    "ZoneCounters",
]


class ZoneCounters:
    """Mutable local/zone/cross probe+place tally shared by the runners."""

    __slots__ = (
        "rack_probes", "zone_probes", "cross_probes",
        "rack_places", "zone_places", "cross_places",
    )

    def __init__(self) -> None:
        self.rack_probes = 0
        self.zone_probes = 0
        self.cross_probes = 0
        self.rack_places = 0
        self.zone_places = 0
        self.cross_places = 0

    def count_probes(
        self,
        topology: Topology,
        probes: np.ndarray,
        home_zones: np.ndarray,
        home_racks: np.ndarray,
    ) -> None:
        """Tally probe relations for a ``(balls, d)`` probe block."""
        probe_zones = topology.bin_zone[probes]
        probe_racks = topology.bin_rack[probes]
        same_zone = probe_zones == home_zones[:, None]
        same_rack = probe_racks == home_racks[:, None]
        self.rack_probes += int(np.count_nonzero(same_zone & same_rack))
        self.zone_probes += int(np.count_nonzero(same_zone & ~same_rack))
        self.cross_probes += int(np.count_nonzero(~same_zone))

    def count_place(
        self, topology: Topology, destination: int, hz: int, hr: int
    ) -> None:
        if int(topology.bin_zone[destination]) != hz:
            self.cross_places += 1
        elif int(topology.bin_rack[destination]) != hr:
            self.zone_places += 1
        else:
            self.rack_places += 1

    def count_places(
        self,
        topology: Topology,
        destinations: np.ndarray,
        home_zones: np.ndarray,
        home_racks: np.ndarray,
    ) -> None:
        dest_zones = topology.bin_zone[destinations]
        dest_racks = topology.bin_rack[destinations]
        same_zone = dest_zones == home_zones
        same_rack = dest_racks == home_racks
        self.rack_places += int(np.count_nonzero(same_zone & same_rack))
        self.zone_places += int(np.count_nonzero(same_zone & ~same_rack))
        self.cross_places += int(np.count_nonzero(~same_zone))

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def locality_select(
    loads: Sequence[int],
    probes: Sequence[int],
    local_mask: np.ndarray,
    threshold: int,
    tiebreak: np.ndarray,
) -> int:
    """Pick the destination for one locality-two-choice ball.

    ``lexsort((tiebreak, heights))`` orders probes exactly as the flat
    strict rule does; when the probe set mixes local and remote bins the
    best local probe wins unless the best remote probe is more than
    ``threshold`` balls lighter.  All-local and all-remote rows reduce to
    the flat rule, which is the bit-for-bit parity anchor.
    """
    heights = np.fromiter(
        (loads[int(b)] for b in probes), dtype=np.int64, count=len(probes)
    ) + 1
    order = np.lexsort((tiebreak, heights))
    mask = local_mask[order]
    if mask.all() or not mask.any():
        return int(probes[int(order[0])])
    best_local = int(order[mask][0])
    best_remote = int(order[~mask][0])
    if heights[best_local] <= heights[best_remote] + threshold:
        return int(probes[best_local])
    return int(probes[best_remote])


def local_probe_slots(ball_indices: np.ndarray, d: int, bias: float) -> np.ndarray:
    """Bresenham local/remote schedule for a batch of balls.

    Probe slot ``t = ball*d + j`` is *local* iff the running total
    ``floor((t+1) * bias)`` advances at ``t`` — an exact-fraction
    deterministic schedule (``bias = 0`` never local, ``bias = 1`` always)
    that consumes no randomness, so the draw stream matches flat
    ``two_choice`` for every bias.  Returns a ``(balls, d)`` bool array.
    """
    slots = ball_indices[:, None] * np.int64(d) + np.arange(d, dtype=np.int64)
    return np.floor((slots + 1) * bias) > np.floor(slots * bias)


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
