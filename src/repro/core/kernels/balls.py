"""Per-ball mixture kernels: (1 + β)-choice and Always-Go-Left.

(1 + β)-choice (Peres, Talwar & Wieder, SODA 2010): each ball flips a
β-coin and either probes two bins and joins the lesser loaded, or joins
one uniform bin.  Always-Go-Left (Vöcking): the bins form ``d`` contiguous
groups of (almost) equal size; each ball probes one uniform bin per group
and joins a least loaded probed bin, ties towards the leftmost group.

Draw blocks: per ``min(remaining, 8192)`` balls, (1 + β)-choice draws one
coin block then two probe blocks; Always-Go-Left draws one ``(batch, d)``
uniform block scaled into the ``d`` group ranges.

Per-unit apply: one ball.  Batched apply: speculate-verify sub-batches over
:func:`~repro.core.batched.prefix_conflicts`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..baselines import _CHUNK as _BALL_CHUNK
from ..baselines import _make_rng, least_loaded_probe
from ..batched import ConflictScratch, clean_segments, prefix_conflicts
from .base import OnlineStepper, normalize_capacities, speculative_batch_rows

__all__ = ["OnePlusBetaStepper", "AlwaysGoLeftStepper"]


class OnePlusBetaStepper(OnlineStepper):
    """Streaming (1 + β)-choice, unit = one ball.

    Per ``min(remaining, 8192)`` balls, one coin block (β-thresholded doubles), then the two probe blocks.
    """

    _STATE_SCALARS = ("messages", "balls_emitted", "_pos", "_balls_drawn")
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_coins", "_first", "_second")

    def __init__(
        self,
        n_bins: int,
        beta: float,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not 0.0 <= beta <= 1.0:
            raise ValueError(f"beta must lie in [0, 1], got {beta}")
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = n_bins
        self.beta = beta
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self._coins: Optional[np.ndarray] = None
        self._first: Optional[np.ndarray] = None
        self._second: Optional[np.ndarray] = None
        self._pos = 0
        self._balls_drawn = 0
        self._scratch = ConflictScratch(n_bins)
        self._sub_rows = speculative_batch_rows(n_bins, 2)

    @property
    def rounds(self) -> int:
        return self.balls_emitted

    result_policy = "mixed"

    def _result_label(self) -> str:
        return f"(1+{self.beta:g})-choice"

    def _result_kd(self) -> Tuple[int, int]:
        return 1, 2

    def _result_extra(self) -> Dict[str, Any]:
        return {"beta": self.beta}

    def _refill(self) -> None:
        batch = min(self.planned_balls - self._balls_drawn, _BALL_CHUNK)
        self._coins = self.rng.random(batch) < self.beta
        self._first = self.rng.integers(0, self.n_bins, size=batch)
        self._second = self.rng.integers(0, self.n_bins, size=batch)
        self._pos = 0
        self._balls_drawn += batch

    def _buffered(self) -> int:
        if self._coins is None:
            return 0
        return len(self._coins) - self._pos

    def step(self) -> List[int]:
        self._require_more()
        if self._buffered() == 0:
            self._refill()
        position = self._pos
        self._pos += 1
        a = int(self._first[position])
        if self._coins[position]:
            b = int(self._second[position])
            target = a if self.loads[a] <= self.loads[b] else b
            self.messages += 2
        else:
            target = a
            self.messages += 1
        self.loads[target] += 1
        self.balls_emitted += 1
        return [target]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if max_balls <= 0 or self.exhausted:
            return None
        if self._buffered() == 0:
            self._refill()
        take = min(max_balls, self._buffered())
        if self.kernel_mode == "compiled":
            from repro.core import compiled

            coins = self._coins[self._pos : self._pos + take]
            out = compiled.one_plus_beta(
                self.loads,
                coins,
                self._first[self._pos : self._pos + take],
                self._second[self._pos : self._pos + take],
            )
            self.messages += take + int(coins.sum())
            self._pos += take
            self.balls_emitted += take
            return out
        out = np.empty(take, dtype=np.int64)
        done = 0
        while done < take:
            stop = min(done + self._sub_rows, take)
            a = self._first[self._pos + done : self._pos + stop]
            b = self._second[self._pos + done : self._pos + stop]
            two = self._coins[self._pos + done : self._pos + stop]
            destinations = np.where(
                two, np.where(self.loads[a] <= self.loads[b], a, b), a
            )
            # Single-choice balls read nothing, but self-reads are harmless
            # (a row is never "earlier than itself") and keep the read array
            # rectangular.
            reads = np.stack([a, np.where(two, b, a)], axis=1)
            suspect = prefix_conflicts(reads, destinations, self._scratch)
            for seg_start, seg_stop, suspect_index in clean_segments(suspect):
                self.loads[destinations[seg_start:seg_stop]] += 1
                if suspect_index >= 0:
                    if two[suspect_index]:
                        x, y = int(a[suspect_index]), int(b[suspect_index])
                        chosen = x if self.loads[x] <= self.loads[y] else y
                    else:
                        chosen = int(a[suspect_index])
                    self.loads[chosen] += 1
                    destinations[suspect_index] = chosen
            out[done:stop] = destinations
            self.messages += len(two) + int(two.sum())
            done = stop
        self._pos += take
        self.balls_emitted += take
        return out


class AlwaysGoLeftStepper(OnlineStepper):
    """Streaming Always-Go-Left, unit = one ball.

    One ``(batch, d)`` uniform block per ``min(remaining, 8192)`` balls,
    scaled into the ``d`` group ranges.
    """

    _STATE_SCALARS = ("messages", "balls_emitted", "_pos", "_balls_drawn")
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_probes",)

    def __init__(
        self,
        n_bins: int,
        d: int,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        capacities: Optional[object] = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        if n_bins < d:
            raise ValueError(f"need n_bins >= d groups, got n_bins={n_bins}, d={d}")
        self.n_bins = n_bins
        self.d = d
        self.capacities = normalize_capacities(capacities, n_bins)
        self._inv_capacity = (
            None if self.capacities is None else 1.0 / self.capacities
        )
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self._boundaries = np.linspace(0, n_bins, d + 1).astype(np.int64)
        self._group_sizes = np.diff(self._boundaries)
        if np.any(self._group_sizes == 0):
            raise ValueError("every group must contain at least one bin")
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self._probes: Optional[np.ndarray] = None
        self._pos = 0
        self._balls_drawn = 0
        self._scratch = ConflictScratch(n_bins)
        self._sub_rows = speculative_batch_rows(n_bins, d, replays=6)

    @property
    def rounds(self) -> int:
        return self.balls_emitted

    result_policy = "asymmetric"

    def _result_label(self) -> str:
        return f"always-go-left[{self.d}]"

    def _refill(self) -> None:
        batch = min(self.planned_balls - self._balls_drawn, _BALL_CHUNK)
        uniform = self.rng.random(size=(batch, self.d))
        # boundary + u * size, in place (IEEE addition commutes exactly).
        uniform *= self._group_sizes
        uniform += self._boundaries[:-1]
        self._probes = uniform.astype(np.int64)
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
        row = self._probes[self._pos].tolist()
        self._pos += 1
        if self._inv_capacity is None:
            target = least_loaded_probe(self.loads, row)
        else:
            # Fill-aware Always-Go-Left: the ball goes to the least *filled*
            # probed bin, ties to the leftmost group (np.argmin keeps the
            # earliest minimum, same convention as least_loaded_probe).
            fills = (self.loads[row] + 1) * self._inv_capacity[row]
            target = row[int(np.argmin(fills))]
        self.loads[target] += 1
        self.messages += self.d
        self.balls_emitted += 1
        return [int(target)]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if max_balls <= 0 or self.exhausted:
            return None
        if self._inv_capacity is not None:
            # Fill comparisons are not modelled by the speculate-verify or
            # compiled batch kernels; every engine takes the per-ball path.
            return None
        if self._buffered() == 0:
            self._refill()
        take = min(max_balls, self._buffered())
        if self.kernel_mode == "compiled":
            from repro.core import compiled

            out = compiled.always_go_left(
                self.loads, self._probes[self._pos : self._pos + take]
            )
            self._pos += take
            self.messages += take * self.d
            self.balls_emitted += take
            return out
        out = np.empty(take, dtype=np.int64)
        done = 0
        while done < take:
            stop = min(done + self._sub_rows, take)
            rows = self._probes[self._pos + done : self._pos + stop]
            columns = np.argmin(self.loads[rows], axis=1)  # earliest min = left
            destinations = rows[np.arange(len(rows)), columns]
            suspect = prefix_conflicts(rows, destinations, self._scratch)
            for seg_start, seg_stop, suspect_index in clean_segments(suspect):
                self.loads[destinations[seg_start:seg_stop]] += 1
                if suspect_index >= 0:
                    chosen = least_loaded_probe(
                        self.loads, rows[suspect_index].tolist()
                    )
                    self.loads[chosen] += 1
                    destinations[suspect_index] = chosen
            out[done:stop] = destinations
            done = stop
        self._pos += take
        self.messages += take * self.d
        self.balls_emitted += take
        return out
