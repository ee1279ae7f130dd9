"""Weighted (k, d)-choice: balls carry weights instead of unit loads.

The balanced-allocations literature the paper builds on also studies weighted
balls (Talwar & Wieder, STOC 2007; Peres, Talwar & Wieder, SODA 2010 — both
cited by the paper).  The natural weighted generalization of (k, d)-choice
assigns, per round, ``k`` weighted balls to the ``k`` least *weighted-loaded*
of ``d`` sampled bins, under the same multiplicity cap.  The paper itself
analyses only unit weights; this module is an extension point used by the
ablation/extension experiments, and reduces exactly to the unit process when
every weight is 1.

Weight distributions supported out of the box: constant, exponential, Pareto
(heavy-tailed) and user-supplied arrays.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Union

import numpy as np

from .process import _DEFAULT_CHUNK_ROUNDS
from .types import AllocationResult, ProcessParams

__all__ = [
    "WeightedKDChoiceProcess",
    "run_weighted_kd_choice",
    "make_weights",
    "weighted_round_apply",
]

WeightSpec = Union[str, Sequence[float], Callable[[np.random.Generator, int], np.ndarray]]


def make_weights(
    spec: WeightSpec,
    n_balls: int,
    rng: np.random.Generator,
    mean_weight: float = 1.0,
    pareto_shape: float = 2.5,
) -> np.ndarray:
    """Materialize a weight specification into an array of ``n_balls`` weights.

    Parameters
    ----------
    spec:
        "constant", "exponential", "pareto", an explicit sequence of weights
        (length ``n_balls``), or a callable ``(rng, n_balls) -> array``.
    mean_weight:
        Target mean for the named distributions.
    pareto_shape:
        Tail index for the Pareto distribution (must exceed 1 so the mean is
        finite).
    """
    if callable(spec):
        weights = np.asarray(spec(rng, n_balls), dtype=float)
    elif isinstance(spec, str):
        if spec == "constant":
            weights = np.full(n_balls, mean_weight)
        elif spec == "exponential":
            weights = rng.exponential(mean_weight, size=n_balls)
        elif spec == "pareto":
            if pareto_shape <= 1.0:
                raise ValueError(
                    f"pareto_shape must exceed 1 for a finite mean, got {pareto_shape}"
                )
            scale = mean_weight * (pareto_shape - 1.0) / pareto_shape
            weights = scale * (1.0 + rng.pareto(pareto_shape, size=n_balls))
        else:
            raise ValueError(
                "weight spec must be 'constant', 'exponential', 'pareto', a sequence "
                f"or a callable, got {spec!r}"
            )
    else:
        weights = np.asarray(list(spec), dtype=float)
        if weights.shape[0] != n_balls:
            raise ValueError(
                f"explicit weights have length {weights.shape[0]}, expected {n_balls}"
            )
    if np.any(weights < 0):
        raise ValueError("ball weights must be non-negative")
    return weights


def weight_spec_name(weights: WeightSpec) -> str:
    """The label a weight spec carries in a result's scheme name."""
    if isinstance(weights, str):
        return weights
    if callable(weights):
        return getattr(weights, "__name__", "custom")
    return "explicit"


def weighted_extra(weighted_loads: np.ndarray, total_weight: float) -> Dict[str, Any]:
    """The ``extra`` entries every weighted engine reports."""
    return {
        "weighted_loads": weighted_loads,
        "total_weight": total_weight,
        "max_weighted_load": (
            float(weighted_loads.max()) if weighted_loads.size else 0.0
        ),
        "weighted_gap": (
            float(weighted_loads.max() - total_weight / weighted_loads.size)
            if weighted_loads.size
            else 0.0
        ),
    }


def weighted_round_apply(
    loads: np.ndarray,
    counts: np.ndarray,
    samples: Sequence[int],
    tiebreaks: Sequence[float],
    batch_weights: np.ndarray,
    increment: float,
    inv_capacity: Optional[np.ndarray] = None,
) -> "list[int]":
    """Apply one weighted round in place (the scalar round kernel).

    The ``d`` virtual unit placements are ranked by weighted height (with
    the multiplicity stacking of the strict rule), the ``len(batch_weights)``
    lowest slots are kept, and the balls are matched heaviest-first to the
    least-loaded kept slots.  ``tiebreaks`` is the round's explicit tie-break
    vector, pre-drawn by the caller so the scalar process and the weighted
    kernel (:mod:`repro.core.kernels.weighted`) consume the random stream in
    the same order.

    Returns the destination bins in ball order (heaviest ball first), which
    is how the streaming allocator (:mod:`repro.online`) hands them out.

    ``inv_capacity`` (the ``hetero_bins`` extension) switches both rankings
    from raw weighted load to fractional fill — heights and the final slot
    order are scaled by each bin's inverse capacity; ``None`` leaves the
    arithmetic exactly as before.
    """
    extra: dict[int, int] = {}
    slot_heights = []
    for j, bin_index in enumerate(samples):
        placed_before = extra.get(bin_index, 0)
        height = loads[bin_index] + increment * (placed_before + 1)
        if inv_capacity is not None:
            height = height * inv_capacity[bin_index]
        slot_heights.append((height, tiebreaks[j], bin_index))
        extra[bin_index] = placed_before + 1
    slot_heights.sort()
    kept_bins = [bin_index for _, _, bin_index in slot_heights[: len(batch_weights)]]

    # Heaviest ball to the least-loaded (least-filled) kept slot.
    if inv_capacity is None:
        kept_bins.sort(key=lambda b: loads[b])
    else:
        kept_bins.sort(key=lambda b: loads[b] * inv_capacity[b])
    for weight, bin_index in zip(batch_weights, kept_bins):
        loads[bin_index] += weight
        counts[bin_index] += 1
    return kept_bins


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
    capacities: Optional[np.ndarray] = None,
) -> AllocationResult:
    """One-call wrapper around :class:`WeightedKDChoiceProcess`.

    ``result.extra['weighted_loads']`` holds the per-bin total weight;
    ``result.loads`` holds ball counts, so the unit-weight invariants still
    apply to it.  ``capacities`` (the ``hetero_bins`` workload) ranks the
    round's virtual placements by fractional fill instead of raw weighted
    load.
    """
    if capacities is not None:
        # The fill-aware variant is defined by the streaming kernel
        # (WeightedKDChoiceStepper.step); the batch drive loop declines its
        # batched apply under capacities, so this runs the per-round
        # reference path with the identical draw blocks.
        from .kernels.table import KERNELS, drive

        result = drive(
            KERNELS["weighted_kd_choice"], "vectorized",
            n_bins=n_bins, k=k, d=d, weights=weights, n_balls=n_balls,
            mean_weight=mean_weight, seed=seed, rng=rng,
            capacities=capacities,
        )
        result.extra.pop("engine", None)
        return result
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
