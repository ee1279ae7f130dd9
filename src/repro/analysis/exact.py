"""Exact distributions for tiny instances, used to validate the simulator.

For very small ``n`` the (k, d)-choice process can be solved exactly: its
state is the sorted load vector, each round draws one of ``n^d`` equally
likely sample tuples, and — because the multiset of final loads does not
depend on how ties between equal ball heights are broken (swapping two tied
kept slots swaps a pair of final loads, leaving the sorted vector unchanged)
— the round transition is a deterministic function of the sample tuple.

These exact distributions give the reproduction a ground truth to test the
Monte-Carlo simulator against: the empirical max-load frequencies must
converge to the exact ones (see ``tests/analysis/test_analysis_exact.py`` and
``tests/integration``).
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Dict, Mapping, Tuple

import numpy as np

__all__ = [
    "exact_kd_choice_distribution",
    "exact_single_choice_distribution",
    "max_load_distribution",
    "expected_max_load",
    "total_variation_distance",
    "empirical_max_load_distribution",
]

State = Tuple[int, ...]

# Enumerating a round costs n_bins^d transitions; keep it honest.
_MAX_ENUMERATION = 2_000_000


def _apply_round(state: State, samples: Tuple[int, ...], k: int) -> State:
    """Apply one (k, d)-choice round to a sorted state, deterministically.

    ``samples`` are indices into the sorted state.  Ties between equal
    heights are broken towards the earlier sample, which does not affect the
    resulting sorted vector (see the module docstring).
    """
    loads = list(state)
    # Heights of the d virtual placements.
    extra: Dict[int, int] = {}
    heights = []
    for position, bin_index in enumerate(samples):
        placed = extra.get(bin_index, 0)
        heights.append((loads[bin_index] + placed + 1, position, bin_index))
        extra[bin_index] = placed + 1
    heights.sort()
    for _, _, bin_index in heights[:k]:
        loads[bin_index] += 1
    return tuple(sorted(loads, reverse=True))


def exact_kd_choice_distribution(
    n_bins: int, k: int, d: int, n_balls: int | None = None
) -> Dict[State, float]:
    """Exact distribution over sorted load vectors after the process ends.

    Parameters
    ----------
    n_bins, k, d:
        Process parameters with ``1 <= k <= d <= n_bins``.
    n_balls:
        Number of balls (default ``n_bins``); must be a multiple of ``k``.

    Raises
    ------
    ValueError
        If the enumeration would exceed roughly two million transitions per
        round (this tool is for *tiny* instances).
    """
    if not 1 <= k <= d <= n_bins:
        raise ValueError(f"requires 1 <= k <= d <= n_bins, got k={k}, d={d}, n={n_bins}")
    if n_balls is None:
        n_balls = n_bins
    if n_balls % k != 0:
        raise ValueError(f"n_balls={n_balls} must be a multiple of k={k}")
    transitions_per_round = n_bins ** d
    if transitions_per_round > _MAX_ENUMERATION:
        raise ValueError(
            f"enumeration of {n_bins}^{d} sample tuples per round is too large; "
            "exact distributions are meant for tiny instances"
        )

    rounds = n_balls // k
    probability = 1.0 / transitions_per_round
    distribution: Dict[State, float] = {tuple([0] * n_bins): 1.0}
    sample_space = list(itertools.product(range(n_bins), repeat=d))

    for _ in range(rounds):
        next_distribution: Dict[State, float] = {}
        for state, mass in distribution.items():
            share = mass * probability
            for samples in sample_space:
                new_state = _apply_round(state, samples, k)
                next_distribution[new_state] = next_distribution.get(new_state, 0.0) + share
        distribution = next_distribution
    return distribution


def exact_single_choice_distribution(n_bins: int, n_balls: int | None = None) -> Dict[State, float]:
    """Exact sorted-load distribution for the classic single-choice process."""
    return exact_kd_choice_distribution(n_bins, k=1, d=1, n_balls=n_balls)


def max_load_distribution(distribution: Mapping[State, float]) -> Dict[int, float]:
    """Collapse a sorted-state distribution to the distribution of the max load."""
    result: Dict[int, float] = {}
    for state, mass in distribution.items():
        top = state[0] if state else 0
        result[top] = result.get(top, 0.0) + mass
    return result


def expected_max_load(distribution: Mapping[State, float]) -> float:
    """Expected maximum load under a sorted-state distribution."""
    return sum((state[0] if state else 0) * mass for state, mass in distribution.items())


def total_variation_distance(
    p: Mapping[int, float], q: Mapping[int, float]
) -> float:
    """Total variation distance between two distributions over integers."""
    support = set(p) | set(q)
    return 0.5 * sum(abs(p.get(value, 0.0) - q.get(value, 0.0)) for value in support)


def empirical_max_load_distribution(
    n_bins: int,
    k: int,
    d: int,
    trials: int,
    seed: "int | None" = 0,
    n_balls: int | None = None,
) -> Dict[int, float]:
    """Monte-Carlo estimate of the max-load distribution (for validation)."""
    from ..api import SchemeSpec, simulate  # local import to avoid a cycle

    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    rng = np.random.default_rng(seed)
    counts: Counter[int] = Counter()
    for _ in range(trials):
        result = simulate(
            SchemeSpec(
                scheme="kd_choice",
                params={"n_bins": n_bins, "k": k, "d": d, "n_balls": n_balls},
                seed=int(rng.integers(0, 2 ** 31)),
            )
        )
        counts[result.max_load] += 1
    return {value: count / trials for value, count in counts.items()}
