"""Helpers of the topology-aware kernels.

Two schemes generalize the paper's flat processes onto a
:class:`~repro.topology.records.Topology`; their steppers in
:mod:`repro.core.kernels.topology` define them:

``hierarchical_always_go_left``
    Vöcking's Always-Go-Left with the topology's *racks* as the probe
    groups: one uniform probe per rack (racks ordered zone by zone), ties
    broken towards the leftmost rack.  A regular grid with ``d`` total
    racks draws from exactly the ``linspace`` group boundaries the flat
    scheme uses, so ``Topology.grid(n, d, 1)`` reproduces
    ``always_go_left`` with ``d`` groups bit for bit.

``locality_two_choice``
    Greedy[d] with a locality bias: a deterministic Bresenham schedule
    remaps an exact fraction ``bias`` of probe slots into the caller's
    home zone, and the ball spills to a cross-zone probe only when that
    probe is more than ``threshold`` balls lighter than the best local
    one.  At ``bias = 0`` no slot is remapped and the draw stream,
    selection rule and results are identical to flat ``two_choice``
    (``d = 2``); under ``Topology.flat()`` the remap is the identity, so
    parity holds for *any* bias.

This module holds what those steppers share: the local/zone/cross tally
(:class:`ZoneCounters`), the locality selection rule and the Bresenham
schedule.  Costs never touch the random stream: they are accounted after
the fact through :func:`~repro.topology.records.zone_counter_extra`.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from .records import Topology

__all__ = ["local_probe_slots", "locality_select", "ZoneCounters"]


class ZoneCounters:
    """Mutable local/zone/cross probe+place tally of the topology steppers."""

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
