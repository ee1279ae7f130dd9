"""The weighted (k, d)-choice kernel.

Draw blocks: the full weight vector first (via :func:`~repro.core.weighted.make_weights`),
then paired ``(chunk, d)`` sample and tie-break blocks per
``min(rounds remaining, 4096)`` rounds; the partial tail round draws its own
``size=d`` pair.

Per-unit apply: one round through the scalar
:func:`~repro.core.weighted.weighted_round_apply` kernel.  Batched apply:
speculate and truncate through :func:`_weighted_rounds`, the loop
``kd._select_rounds`` runs; only rounds that sample a bin twice go through
the scalar round kernel, one at a time.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..baselines import _make_rng
from ..batched import ConflictScratch, conflict_free_prefix
from ..types import ProcessParams
from ..weighted import (
    WeightSpec,
    make_weights,
    weight_spec_name,
    weighted_extra,
    weighted_round_apply,
)
from .base import (
    _DEFAULT_CHUNK_ROUNDS,
    _PLACED,
    OnlineStepper,
    normalize_capacities,
    speculation_window,
)

__all__ = ["WeightedKDChoiceStepper", "_weighted_rounds"]


def _weighted_rounds(
    loads: np.ndarray,
    counts: np.ndarray,
    samples: np.ndarray,
    tiebreaks: np.ndarray,
    batch_weights: np.ndarray,
    increments: np.ndarray,
    k: int,
    window: int,
    scratch: ConflictScratch,
    out: Optional[np.ndarray] = None,
) -> None:
    """Apply full weighted rounds to ``loads``/``counts`` in order, exactly
    as successive :func:`~repro.core.weighted.weighted_round_apply` calls.

    Speculate and truncate: select a window of rounds against the current
    loads — one ``(height, tiebreak, bin)`` lexsort plus a stable by-load
    sort of the kept slots (the scalar round kernel's two list sorts) —
    apply the rounds before the first one that keeps a bin an earlier round
    of the window keeps (:func:`~repro.core.batched.conflict_free_prefix`),
    and re-speculate from there.  Weights are non-negative
    (:func:`~repro.core.weighted.make_weights` rejects negative ones), so
    loads only grow: a round whose kept bins no earlier round wrote keeps
    their heights while every other height only rises, so it keeps the same
    bins, and the slot matching reads only those bins.  A round that
    samples a bin twice needs the multiplicity-stacked heights, so the
    window truncates before it and it runs alone through the scalar round
    kernel.

    ``out`` (a ``(R, k)`` int64 array) optionally receives each round's
    destination bins in ball order (heaviest ball first — the order the
    scalar kernel places them), for the streaming allocator.
    """
    rounds = len(samples)
    row_sorted = np.sort(samples, axis=1)
    repeats = np.flatnonzero((row_sorted[:, 1:] == row_sorted[:, :-1]).any(axis=1))
    start = 0
    for stop in [*repeats.tolist(), rounds]:
        while start < stop:
            end = min(start + window, stop)
            rows = samples[start:end]
            # Every virtual ball of a duplicate-free round has height
            # loads[bin] + increment.
            heights = loads[rows] + increments[start:end, None]
            order = np.lexsort((rows, tiebreaks[start:end], heights), axis=-1)
            kept = np.take_along_axis(rows, order[:, :k], axis=1)
            # Heaviest ball to the least-loaded kept slot.
            slot_order = np.argsort(loads[kept], axis=1, kind="stable")
            slots = np.take_along_axis(kept, slot_order, axis=1)
            taken = conflict_free_prefix(slots, scratch)
            # The applied slots are pairwise distinct.
            applied = slots[:taken].ravel()
            loads[applied] += batch_weights[start : start + taken].ravel()
            counts[applied] += 1
            if out is not None:
                out[start : start + taken] = slots[:taken]
            start += taken
        if stop < rounds:
            replayed = weighted_round_apply(
                loads,
                counts,
                samples[stop].tolist(),
                tiebreaks[stop],
                batch_weights[stop],
                float(increments[stop]),
            )
            if out is not None:
                out[stop] = replayed
            start = stop + 1


class WeightedKDChoiceStepper(OnlineStepper):
    """Streaming weighted (k, d)-choice, unit = one round.

    The ball weights are materialized up front (every engine calls
    :func:`~repro.core.weighted.make_weights` before placing anything), so
    streamed items carry the spec's weights, not caller-supplied ones.
    Samples and tie-breaks are drawn in paired ``(chunk, d)`` blocks; ``step_block`` rides the speculate-and-truncate
    weighted batch kernel.  ``loads`` exposes ball counts (the
    unit-invariant view); ``weighted_loads`` the per-bin total weight.
    """

    _STATE_SCALARS = OnlineStepper._STATE_SCALARS + (
        "_rounds_drawn",
        "_buffer_pos",
        "_tail_done",
        "_weight_pos",
    )
    _STATE_ARRAYS = (
        "loads",
        "weighted_loads",
        "_weights",
        "_buffer_samples",
        "_buffer_ties",
    )

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        weights: WeightSpec = "exponential",
        n_balls: Optional[int] = None,
        mean_weight: float = 1.0,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        capacities: Optional[object] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.capacities = normalize_capacities(capacities, n_bins)
        self._inv_capacity = (
            None if self.capacities is None else 1.0 / self.capacities
        )
        self.weights_name = weight_spec_name(weights)
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self._weights = make_weights(
            weights, self.planned_balls, self.rng, mean_weight=mean_weight
        )
        self.full_rounds, self.tail_balls = divmod(self.planned_balls, k)
        self.weighted_loads = np.zeros(n_bins, dtype=float)
        self.loads = np.zeros(n_bins, dtype=np.int64)  # ball counts
        self.messages = 0
        self.rounds = 0
        self.balls_emitted = 0
        self._rounds_drawn = 0
        self._buffer_samples: Optional[np.ndarray] = None
        self._buffer_ties: Optional[np.ndarray] = None
        self._buffer_pos = 0
        self._weight_pos = 0
        self._tail_done = False
        self._window = speculation_window(n_bins, k, d)
        self._scratch = ConflictScratch(n_bins)

    result_policy = "weighted-strict"

    def _result_label(self) -> str:
        return f"weighted-({self.k},{self.d})-choice[{self.weights_name}]"

    def _result_extra(self) -> Dict[str, Any]:
        return weighted_extra(self.weighted_loads, float(self._weights.sum()))

    def ball_weight(self, ball_index: int) -> float:
        """The weight the stream's ``ball_index``-th ball carries."""
        round_index, position = divmod(ball_index, self.k)
        if round_index < self.full_rounds:
            start = round_index * self.k
            ordered = np.sort(self._weights[start : start + self.k])[::-1]
        else:
            ordered = np.sort(self._weights[self.full_rounds * self.k :])[::-1]
        return float(ordered[position])

    def _refill(self) -> None:
        chunk = min(
            self.full_rounds - self._rounds_drawn, _DEFAULT_CHUNK_ROUNDS
        )
        self._buffer_samples = self.rng.integers(
            0, self.n_bins, size=(chunk, self.d)
        )
        self._buffer_ties = self.rng.random((chunk, self.d))
        self._buffer_pos = 0
        self._rounds_drawn += chunk

    def _buffered_rounds(self) -> int:
        if self._buffer_samples is None:
            return 0
        return len(self._buffer_samples) - self._buffer_pos

    def step(self) -> List[int]:
        self._require_more()
        if self.rounds < self.full_rounds:
            if self._buffered_rounds() == 0:
                self._refill()
            row = self._buffer_samples[self._buffer_pos].tolist()
            ties = self._buffer_ties[self._buffer_pos]
            self._buffer_pos += 1
            batch_weights = np.sort(
                self._weights[self._weight_pos : self._weight_pos + self.k]
            )[::-1]
            destinations = weighted_round_apply(
                self.weighted_loads,
                self.loads,
                row,
                ties,
                batch_weights,
                float(batch_weights.mean()),
                inv_capacity=self._inv_capacity,
            )
            self._weight_pos += self.k
            self.rounds += 1
            self.messages += self.d
            self.balls_emitted += self.k
            return [int(b) for b in destinations]
        batch_weights = np.sort(self._weights[self.full_rounds * self.k :])[::-1]
        samples = self.rng.integers(0, self.n_bins, size=self.d)
        ties = self.rng.random(self.d)
        destinations = weighted_round_apply(
            self.weighted_loads,
            self.loads,
            samples.tolist(),
            ties,
            batch_weights,
            float(batch_weights.mean()),
            inv_capacity=self._inv_capacity,
        )
        self.rounds += 1
        self.messages += self.d
        self.balls_emitted += self.tail_balls
        self._tail_done = True
        return [int(b) for b in destinations]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if self._inv_capacity is not None:
            # Fill-aware rounds are not modelled by the speculate-and-truncate
            # or compiled batch kernels; every engine takes the per-round path.
            return None
        rounds_wanted = min(max_balls // self.k, self.full_rounds - self.rounds)
        if rounds_wanted <= 0:
            return None
        if self._buffered_rounds() == 0:
            self._refill()
        r = min(rounds_wanted, self._buffered_rounds())
        samples = self._buffer_samples[self._buffer_pos : self._buffer_pos + r]
        ties = self._buffer_ties[self._buffer_pos : self._buffer_pos + r]
        self._buffer_pos += r
        block_weights = np.sort(
            self._weights[self._weight_pos : self._weight_pos + r * self.k].reshape(
                r, self.k
            ),
            axis=1,
        )[:, ::-1]
        increments = block_weights.mean(axis=1)
        if self.kernel_mode == "compiled":
            from repro.core import compiled

            out = compiled.weighted_rounds(
                self.weighted_loads,
                self.loads,
                samples,
                ties,
                block_weights,
                increments,
            )
        else:
            out = np.empty((r, self.k), dtype=np.int64) if self._capture else None
            _weighted_rounds(
                self.weighted_loads,
                self.loads,
                samples,
                ties,
                block_weights,
                increments,
                self.k,
                self._window,
                self._scratch,
                out=out,
            )
        self._weight_pos += r * self.k
        self.rounds += r
        self.messages += r * self.d
        self.balls_emitted += r * self.k
        return out.reshape(-1) if self._capture else _PLACED

    def remove_ball(self, bin_index: int, ball_index: Optional[int] = None) -> None:
        if ball_index is None:
            raise ValueError(
                "removing a weighted ball requires its ball index (track "
                "items through the allocator) so its weight can be returned"
            )
        super().remove_ball(bin_index)
        self.weighted_loads[bin_index] -= self.ball_weight(ball_index)
