"""Topology-aware kernels: hierarchical go-left and locality two-choice.

Draw blocks: hierarchical go-left draws one
``(batch, n_racks)`` uniform block per ``min(remaining, 8192)`` balls,
scaled into the rack ranges; locality two-choice draws
``(min(rounds remaining, chunk_rounds), d)`` integer blocks plus one
``size=d`` tie-break block per ball — the exact blocks flat
``two_choice`` draws, because the Bresenham locality remap consumes no
randomness.

Per-unit apply: one ball.  Batched apply: speculate and truncate
(:func:`~repro.core.kernels.base.speculate_balls`) — choose every ball of a
window against the current loads, apply the balls before the first one
whose destination an earlier ball of the window takes, and re-speculate
from there; no ball replays through the scalar kernels.  Both steppers
additionally tally local/zone/cross probe and placement counters
(:attr:`zone_counters`), which are part of the snapshot state and feed
the telemetry layer; the tallies are purely observational and never touch
the random stream.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ...topology.records import Topology, as_topology, zone_counter_extra
from ...topology.schemes import local_probe_slots, locality_select
from ..baselines import _CHUNK as _BALL_CHUNK
from ..baselines import _make_rng, least_loaded_probe
from ..batched import ConflictScratch, stable_tiebreak_ranks
from .base import (
    _DEFAULT_CHUNK_ROUNDS,
    _PLACED,
    OnlineStepper,
    speculate_balls,
    speculation_window,
)

__all__ = ["HierarchicalGoLeftStepper", "LocalityTwoChoiceStepper"]

_ZONE_COUNTER_ATTRS = (
    "_rack_probes", "_zone_probes", "_cross_probes",
    "_rack_places", "_zone_places", "_cross_places",
)


class _ZoneCounterMixin:
    """Snapshot-able local/zone/cross tallies shared by both steppers."""

    def _init_zone_counters(self) -> None:
        for attr in _ZONE_COUNTER_ATTRS:
            setattr(self, attr, 0)

    @property
    def zone_counters(self) -> Dict[str, int]:
        """Counter names match :func:`repro.topology.records.zone_counter_extra`."""
        return {attr[1:]: int(getattr(self, attr)) for attr in _ZONE_COUNTER_ATTRS}

    def _result_extra(self) -> Dict[str, Any]:
        return zone_counter_extra(self.topology, self.zone_counters)

    def _count_probe_block(
        self,
        probes: np.ndarray,
        home_zones: np.ndarray,
        home_racks: np.ndarray,
    ) -> None:
        topo = self.topology
        same_zone = topo.bin_zone[probes] == home_zones[:, None]
        same_rack = topo.bin_rack[probes] == home_racks[:, None]
        self._rack_probes += int(np.count_nonzero(same_zone & same_rack))
        self._zone_probes += int(np.count_nonzero(same_zone & ~same_rack))
        self._cross_probes += int(np.count_nonzero(~same_zone))

    def _count_place_block(
        self,
        destinations: np.ndarray,
        home_zones: np.ndarray,
        home_racks: np.ndarray,
    ) -> None:
        topo = self.topology
        same_zone = topo.bin_zone[destinations] == home_zones
        same_rack = topo.bin_rack[destinations] == home_racks
        self._rack_places += int(np.count_nonzero(same_zone & same_rack))
        self._zone_places += int(np.count_nonzero(same_zone & ~same_rack))
        self._cross_places += int(np.count_nonzero(~same_zone))

    def _count_place(self, destination: int, hz: int, hr: int) -> None:
        topo = self.topology
        if int(topo.bin_zone[destination]) != hz:
            self._cross_places += 1
        elif int(topo.bin_rack[destination]) != hr:
            self._zone_places += 1
        else:
            self._rack_places += 1


class HierarchicalGoLeftStepper(_ZoneCounterMixin, OnlineStepper):
    """Streaming hierarchical go-left, unit = one ball.

    One ``(batch, n_racks)`` uniform block per ``min(remaining, 8192)``
    balls, scaled into the topology's rack ranges.  A regular grid with
    ``d`` total racks draws the exact blocks of
    :class:`~repro.core.kernels.balls.AlwaysGoLeftStepper`.
    """

    _STATE_SCALARS = (
        "messages", "balls_emitted", "_pos", "_balls_drawn",
    ) + _ZONE_COUNTER_ATTRS
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_probes",)

    def __init__(
        self,
        n_bins: int,
        d: Optional[int] = None,
        topology: Optional[object] = None,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        if topology is None:
            groups = 4 if d is None else int(d)
            topo = Topology.grid(n_bins, zones=groups, racks_per_zone=1)
        else:
            topo = as_topology(topology, n_bins)
            if d is not None and int(d) != topo.n_racks:
                raise ValueError(
                    f"hierarchical go-left probes one bin per rack; topology "
                    f"{topo.name!r} has {topo.n_racks} racks but d={d} was "
                    f"given"
                )
        if n_balls is not None and n_balls < 0:
            raise ValueError(f"n_balls must be non-negative, got {n_balls}")
        self.n_bins = n_bins
        self.topology = topo
        self.d = topo.n_racks
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self._boundaries = topo.rack_starts
        self._group_sizes = topo.rack_sizes
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self._probes: Optional[np.ndarray] = None
        self._pos = 0
        self._balls_drawn = 0
        self._init_zone_counters()
        self._scratch = ConflictScratch(n_bins)
        self._window = speculation_window(n_bins, 1, self.d)

    @property
    def rounds(self) -> int:
        return self.balls_emitted

    result_policy = "hierarchical"

    def _result_label(self) -> str:
        return f"hierarchical-go-left[{self.topology.name}]"

    def _refill(self) -> None:
        batch = min(self.planned_balls - self._balls_drawn, _BALL_CHUNK)
        uniform = self.rng.random(size=(batch, self.d))
        self._probes = (
            self._boundaries[:-1] + uniform * self._group_sizes
        ).astype(np.int64)
        self._pos = 0
        self._balls_drawn += batch

    def _buffered(self) -> int:
        if self._probes is None:
            return 0
        return len(self._probes) - self._pos

    def step(self) -> List[int]:
        self._require_more()
        if self._buffered() == 0:
            self._refill()
        row = self._probes[self._pos]
        self._pos += 1
        index = self.balls_emitted
        hz = self.topology.home_zone(index)
        hr = self.topology.home_rack(index)
        self._count_probe_block(
            row[None, :],
            np.asarray([hz], dtype=np.int64),
            np.asarray([hr], dtype=np.int64),
        )
        target = least_loaded_probe(self.loads, row.tolist())
        self.loads[target] += 1
        self._count_place(int(target), hz, hr)
        self.messages += self.d
        self.balls_emitted += 1
        return [int(target)]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if max_balls <= 0 or self.exhausted:
            return None
        if self._buffered() == 0:
            self._refill()
        take = min(max_balls, self._buffered())
        rows_block = self._probes[self._pos : self._pos + take]
        indices = np.arange(
            self.balls_emitted, self.balls_emitted + take, dtype=np.int64
        )
        home_zones = self.topology.home_zones(indices)
        home_racks = self.topology.home_racks(indices)
        self._count_probe_block(rows_block, home_zones, home_racks)
        out = np.empty(take, dtype=np.int64)

        def choose(start: int, stop: int) -> np.ndarray:
            # The earliest minimum over one probe per rack (go left).  A
            # destination no earlier ball writes keeps its load while every
            # other probe's only grows, so it stays the earliest minimum.
            rows = rows_block[start:stop]
            columns = np.argmin(self.loads[rows], axis=1)
            return rows[np.arange(len(rows)), columns]

        speculate_balls(self.loads, take, self._window, self._scratch, choose, out)
        self._count_place_block(out, home_zones, home_racks)
        self._pos += take
        self.messages += take * self.d
        self.balls_emitted += take
        return out


class LocalityTwoChoiceStepper(_ZoneCounterMixin, OnlineStepper):
    """Streaming locality two-choice, unit = one ball (a 1-ball round).

    Draw blocks mirror :class:`~repro.core.kernels.kd.KDChoiceStepper`
    with ``k = 1``: ``(chunk, d)`` integer sample blocks plus ``size=d``
    tie-break doubles per ball.  The Bresenham remap and the threshold
    spill rule are deterministic, so under a flat topology the stepper is
    bit-identical to flat two-choice for every bias.
    """

    _STATE_SCALARS = OnlineStepper._STATE_SCALARS + (
        "_rounds_drawn", "_buffer_pos",
    ) + _ZONE_COUNTER_ATTRS
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_buffer",)

    def __init__(
        self,
        n_bins: int,
        d: int = 2,
        bias: float = 0.0,
        threshold: int = 0,
        topology: Optional[object] = None,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        chunk_rounds: Optional[int] = None,
    ) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        if d > n_bins:
            raise ValueError(
                f"d must not exceed n_bins, got d={d}, n_bins={n_bins}"
            )
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must lie in [0, 1], got {bias}")
        threshold = int(threshold)
        if threshold < 0:
            raise ValueError(f"threshold must be non-negative, got {threshold}")
        self.topology = as_topology(topology, n_bins)
        if n_balls is not None and n_balls < 0:
            raise ValueError(f"n_balls must be non-negative, got {n_balls}")
        chunk_rounds = (
            _DEFAULT_CHUNK_ROUNDS if chunk_rounds is None else chunk_rounds
        )
        if chunk_rounds <= 0:
            raise ValueError(f"chunk_rounds must be positive, got {chunk_rounds}")
        self.n_bins = n_bins
        self.d = d
        self.bias = float(bias)
        self.threshold = threshold
        self.chunk_rounds = chunk_rounds
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self.full_rounds = self.planned_balls  # 1-ball rounds: no tail
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.rounds = 0
        self.balls_emitted = 0
        self._rounds_drawn = 0
        self._buffer: Optional[np.ndarray] = None
        self._buffer_pos = 0
        self._init_zone_counters()
        self._scratch = ConflictScratch(n_bins)
        self._window = speculation_window(n_bins, 1, d)

    result_policy = "locality"

    def _result_label(self) -> str:
        return f"locality-two-choice[{self.topology.name}]"

    def _result_extra(self) -> Dict[str, Any]:
        return {
            **super()._result_extra(),
            "bias": float(self.bias),
            "threshold": int(self.threshold),
        }

    def _refill(self) -> None:
        chunk = min(self.full_rounds - self._rounds_drawn, self.chunk_rounds)
        self._buffer = self.rng.integers(0, self.n_bins, size=(chunk, self.d))
        self._buffer_pos = 0
        self._rounds_drawn += chunk

    def _buffered_rounds(self) -> int:
        if self._buffer is None:
            return 0
        return len(self._buffer) - self._buffer_pos

    def _remap(
        self, raw: np.ndarray, indices: np.ndarray, home_zones: np.ndarray
    ) -> np.ndarray:
        """Apply the Bresenham local remap to a ``(balls, d)`` raw block."""
        topo = self.topology
        local = local_probe_slots(indices, self.d, self.bias)
        return np.where(
            local,
            topo.zone_starts[home_zones][:, None]
            + raw % topo.zone_sizes[home_zones][:, None],
            raw,
        ).astype(np.int64)

    def step(self) -> List[int]:
        self._require_more()
        if self._buffered_rounds() == 0:
            self._refill()
        raw = self._buffer[self._buffer_pos]
        self._buffer_pos += 1
        ties = self.rng.random(self.d)
        index = self.balls_emitted
        hz = self.topology.home_zone(index)
        hr = self.topology.home_rack(index)
        indices = np.asarray([index], dtype=np.int64)
        mapped = self._remap(raw[None, :], indices, np.asarray([hz]))[0]
        self._count_probe_block(
            mapped[None, :],
            np.asarray([hz], dtype=np.int64),
            np.asarray([hr], dtype=np.int64),
        )
        local_mask = self.topology.bin_zone[mapped] == hz
        destination = locality_select(
            self.loads, mapped, local_mask, self.threshold, ties
        )
        self.loads[destination] += 1
        self._count_place(destination, hz, hr)
        self.rounds += 1
        self.messages += self.d
        self.balls_emitted += 1
        return [int(destination)]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        rounds_wanted = min(max_balls, self.full_rounds - self.rounds)
        if rounds_wanted <= 0:
            return None
        if self._buffered_rounds() == 0:
            self._refill()
        r = min(rounds_wanted, self._buffered_rounds())
        raw = self._buffer[self._buffer_pos : self._buffer_pos + r]
        self._buffer_pos += r
        ties = self.rng.random((r, self.d))
        indices = np.arange(
            self.balls_emitted, self.balls_emitted + r, dtype=np.int64
        )
        home_zones = self.topology.home_zones(indices)
        home_racks = self.topology.home_racks(indices)
        mapped = self._remap(raw, indices, home_zones)
        self._count_probe_block(mapped, home_zones, home_racks)
        # The threshold rule as one int64 key per probe, so every ball takes
        # its smallest key: ``(2 * (height - threshold * local) + remote) * d
        # + rank``.  Within one side the key orders probes by (height,
        # tie-break) as the scalar lexsort does; across sides the best local
        # probe wins iff its height is at most the best remote height plus
        # ``threshold`` (the ``remote`` bit makes the local probe win that
        # tie).  Single-zone probe sets reduce to the flat rule.  Keys grow
        # with the loads, so a destination no earlier ball writes stays the
        # smallest key.
        local = self.topology.bin_zone[mapped] == home_zones[:, None]
        offsets = np.where(local, -2 * self.threshold, 1) * np.int64(self.d)
        offsets += stable_tiebreak_ranks(ties)
        scale = np.int64(2 * self.d)

        def choose(start: int, stop: int) -> np.ndarray:
            rows = mapped[start:stop]
            keys = self.loads[rows] * scale + offsets[start:stop]
            return rows[np.arange(len(rows)), np.argmin(keys, axis=1)]

        destinations = np.empty(r, dtype=np.int64)
        speculate_balls(
            self.loads, r, self._window, self._scratch, choose, destinations
        )
        self._count_place_block(destinations, home_zones, home_racks)
        self.rounds += r
        self.messages += r * self.d
        self.balls_emitted += r
        return destinations if self._capture else _PLACED
