"""Theorem 2: the heavily loaded case (``m > n`` balls into ``n`` bins).

For ``d ≥ 2k`` the paper sandwiches (k, d)-choice between ``A(1, d−k+1)`` and
``A(1, ⌊d/k⌋)`` and inherits the heavily loaded d-choice result: the *gap*
between the maximum and the average load stays ``Θ(ln ln n)`` — independent
of ``m``.  (For ``d < 2k`` the question is open; Section 7.)

This experiment measures the gap of (k, d)-choice for growing ``m / n`` and
compares it against the gap of the two sandwich processes and the Theorem 2
bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.bounds import theorem2_bounds
from ..api import SchemeSpec, simulate
from ..simulation.results import ResultTable
from ..simulation.rng import SeedTree
from ..simulation.runner import run_trials

__all__ = ["HeavyPoint", "run_heavy_case", "heavy_table"]


@dataclass(frozen=True)
class HeavyPoint:
    """Gap measurements at one (k, d, m/n) point."""

    k: int
    d: int
    n: int
    load_factor: int
    mean_gap: float
    max_gap: float
    sandwich_lower_gap: float
    sandwich_upper_gap: float
    bound_lower: float
    bound_upper: float


def _kd_choice(n: int, k: int, d: int, m: int, seed: "int | None"):
    return simulate(
        SchemeSpec("kd_choice", {"n_bins": n, "k": k, "d": d, "n_balls": m}, seed=seed)
    )


def run_heavy_case(
    n: int = 1 << 12,
    load_factors: Sequence[int] = (1, 2, 4, 8),
    configurations: Sequence[tuple[int, int]] = ((2, 4), (4, 8), (8, 16)),
    trials: int = 3,
    seed: "int | None" = 0,
) -> List[HeavyPoint]:
    """Measure the max-minus-average gap as the number of balls grows.

    Every configuration satisfies ``d ≥ 2k`` (Theorem 2's hypothesis); the
    sandwich processes ``A(1, d−k+1)`` and ``A(1, ⌊d/k⌋)`` are run with the
    same ``m`` for reference.
    """
    tree = SeedTree(seed)
    points: List[HeavyPoint] = []
    for k, d in configurations:
        if d < 2 * k:
            raise ValueError(
                f"Theorem 2 requires d >= 2k; configuration (k={k}, d={d}) violates it"
            )
        for factor in load_factors:
            m = factor * n
            gaps = run_trials(
                lambda s, k=k, d=d, m=m: _kd_choice(n, k, d, m, s),
                trials=trials,
                seed=tree.integer_seed(),
                metric=lambda result: float(result.gap),
            )
            lower_gaps = run_trials(
                lambda s, k=k, d=d, m=m: _kd_choice(n, 1, d - k + 1, m, s),
                trials=trials,
                seed=tree.integer_seed(),
                metric=lambda result: float(result.gap),
            )
            upper_d = max(d // k, 1)
            upper_gaps = run_trials(
                lambda s, upper_d=upper_d, m=m: _kd_choice(n, 1, upper_d, m, s),
                trials=trials,
                seed=tree.integer_seed(),
                metric=lambda result: float(result.gap),
            )
            bound_lower, bound_upper = theorem2_bounds(k, d, m, n)
            points.append(
                HeavyPoint(
                    k=k,
                    d=d,
                    n=n,
                    load_factor=factor,
                    mean_gap=sum(gaps) / len(gaps),
                    max_gap=max(gaps),
                    sandwich_lower_gap=sum(lower_gaps) / len(lower_gaps),
                    sandwich_upper_gap=sum(upper_gaps) / len(upper_gaps),
                    bound_lower=bound_lower,
                    bound_upper=bound_upper,
                )
            )
    return points


def heavy_table(points: Sequence[HeavyPoint]) -> ResultTable:
    """Flatten heavy-case points into a printable table."""
    table = ResultTable(
        columns=[
            "k", "d", "n", "m/n", "mean_gap", "max_gap",
            "gap_A(1,d-k+1)", "gap_A(1,floor(d/k))", "bound_lower", "bound_upper",
        ],
        title="Theorem 2 (heavily loaded case): gap between max and average load",
    )
    for p in points:
        table.add(
            {
                "k": p.k,
                "d": p.d,
                "n": p.n,
                "m/n": p.load_factor,
                "mean_gap": p.mean_gap,
                "max_gap": p.max_gap,
                "gap_A(1,d-k+1)": p.sandwich_lower_gap,
                "gap_A(1,floor(d/k))": p.sandwich_upper_gap,
                "bound_lower": p.bound_lower,
                "bound_upper": p.bound_upper,
            }
        )
    return table
