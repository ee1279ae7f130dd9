"""Oracle: the hand-written weighted (k, d)-choice runner.

Per round, ``k`` weighted balls go to the ``k`` least *weighted-loaded* of
``d`` sampled bins, under the strict rule's multiplicity cap.  An
independent scalar reference kept for the tests (the library runs the
kernel stepper's ``step()`` loop); it shares the round kernel and weight
helpers of :mod:`repro.core.weighted` and imports nothing from
:mod:`repro.core.kernels`.  The ``capacities`` variant is defined by the
kernel alone and is not modelled here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.types import AllocationResult, ProcessParams
from repro.core.weighted import (
    WeightSpec,
    make_weights,
    weight_spec_name,
    weighted_extra,
    weighted_round_apply,
)

from .process import _DEFAULT_CHUNK_ROUNDS

__all__ = ["WeightedKDChoiceProcess", "run_weighted_kd_choice"]


class WeightedKDChoiceProcess:
    """(k, d)-choice with weighted balls.

    Each round samples ``d`` bins and must place ``k`` weighted balls.  The
    weighted analogue of the strict policy is used: the round's ``d`` virtual
    placements are ranked by the *weighted height* (weighted load of the bin
    right after the virtual placement) and the ``d − k`` heaviest-height
    placements are removed.  Remaining balls are matched to kept slots in
    decreasing weight order (heaviest ball to the least-loaded slot), the
    standard greedy rule for weighted balanced allocations.
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        weights: WeightSpec = "constant",
        mean_weight: float = 1.0,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.weights_spec = weights
        self.mean_weight = mean_weight
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def run(self, n_balls: Optional[int] = None) -> AllocationResult:
        """Place ``n_balls`` weighted balls (default ``n_bins``)."""
        if n_balls is None:
            n_balls = self.n_bins
        weights = make_weights(
            self.weights_spec, n_balls, self.rng, mean_weight=self.mean_weight
        )
        loads = np.zeros(self.n_bins, dtype=float)
        counts = np.zeros(self.n_bins, dtype=np.int64)
        messages = 0
        rounds = 0
        full_rounds, tail_balls = divmod(n_balls, self.k)

        # Samples and tie-breaks are drawn in chunked blocks, mirroring the
        # plain process (`KDChoiceProcess._sample_chunks`): a block of round
        # samples, then the matching block of tie-break doubles.  NumPy fills
        # both element-sequentially, so the vectorized engine can draw the
        # same blocks and stay stream-identical.
        position = 0
        done = 0
        while done < full_rounds:
            chunk = min(full_rounds - done, _DEFAULT_CHUNK_ROUNDS)
            samples_block = self.rng.integers(0, self.n_bins, size=(chunk, self.d))
            ties_block = self.rng.random((chunk, self.d))
            for row in range(chunk):
                batch_weights = np.sort(weights[position : position + self.k])[::-1]
                # Weighted heights of the d virtual unit placements (the cap
                # is about *how many* balls a bin may take, so the virtual
                # placement uses the mean batch weight as a tie-neutral
                # increment).
                increment = float(batch_weights.mean())
                weighted_round_apply(
                    loads,
                    counts,
                    samples_block[row].tolist(),
                    ties_block[row],
                    batch_weights,
                    increment,
                )
                position += self.k
            messages += chunk * self.d
            rounds += chunk
            done += chunk

        if tail_balls:
            batch_weights = np.sort(weights[position:])[::-1]
            samples = self.rng.integers(0, self.n_bins, size=self.d)
            tiebreaks = self.rng.random(self.d)
            weighted_round_apply(
                loads,
                counts,
                samples.tolist(),
                tiebreaks,
                batch_weights,
                float(batch_weights.mean()),
            )
            messages += self.d
            rounds += 1

        total_weight = float(weights.sum())
        return AllocationResult(
            loads=counts,
            scheme=(
                f"weighted-({self.k},{self.d})-choice"
                f"[{weight_spec_name(self.weights_spec)}]"
            ),
            n_bins=self.n_bins,
            n_balls=n_balls,
            k=self.k,
            d=self.d,
            messages=messages,
            rounds=rounds,
            policy="weighted-strict",
            extra=weighted_extra(loads, total_weight),
        )


def run_weighted_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    weights: WeightSpec = "exponential",
    n_balls: Optional[int] = None,
    mean_weight: float = 1.0,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """One-call wrapper around :class:`WeightedKDChoiceProcess`.

    ``result.extra['weighted_loads']`` holds the per-bin total weight;
    ``result.loads`` holds ball counts, so the unit-weight invariants still
    apply to it.
    """
    process = WeightedKDChoiceProcess(
        n_bins=n_bins,
        k=k,
        d=d,
        weights=weights,
        mean_weight=mean_weight,
        seed=seed,
        rng=rng,
    )
    return process.run(n_balls=n_balls)
