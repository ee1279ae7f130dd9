"""Weighted (k, d)-choice helpers: weight specs and the round kernel.

The balanced-allocations literature the paper builds on also studies weighted
balls (Talwar & Wieder, STOC 2007; Peres, Talwar & Wieder, SODA 2010 — both
cited by the paper).  The natural weighted generalization of (k, d)-choice
assigns, per round, ``k`` weighted balls to the ``k`` least *weighted-loaded*
of ``d`` sampled bins, under the same multiplicity cap.  The paper itself
analyses only unit weights; the ``weighted_kd_choice`` scheme (defined by
the stepper in :mod:`repro.core.kernels.weighted`) is an extension used by
the ablation/extension experiments.  This module holds its weight specs
and its scalar round kernel.

Weight distributions supported out of the box: constant, exponential, Pareto
(heavy-tailed) and user-supplied arrays.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Union

import numpy as np

__all__ = [
    "make_weights",
    "weight_spec_name",
    "weighted_extra",
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
    vector, pre-drawn by the caller (the weighted kernel,
    :mod:`repro.core.kernels.weighted`) in its paired sample and tie-break
    blocks.

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
