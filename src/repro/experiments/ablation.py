"""Policy ablation: the strict multiplicity-capped rule vs the greedy relaxation.

Section 7 of the paper observes that the (k, d)-choice policy is not always
optimal: when a lightly loaded bin is sampled only once it can still receive
only one ball.  The proposed adjustment lets less-loaded candidate bins
receive more balls regardless of sampling multiplicity, and the paper
conjectures this "may reduce the maximum load to a constant even when k ≈ d
and d is large".

This ablation runs both policies on configurations with ``k`` close to ``d``
(where the strict policy degrades towards single choice) and on ordinary
configurations (where the two should essentially coincide).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..api import SchemeSpec, simulate
from ..simulation.results import ResultTable
from ..simulation.rng import SeedTree
from ..simulation.runner import run_trials

__all__ = ["AblationPoint", "run_policy_ablation", "ablation_table"]


@dataclass(frozen=True)
class AblationPoint:
    """Max-load comparison of the two policies at one (k, d)."""

    k: int
    d: int
    n: int
    strict_mean: float
    strict_max: float
    greedy_mean: float
    greedy_max: float

    @property
    def improvement(self) -> float:
        """Mean max-load reduction achieved by the greedy relaxation."""
        return self.strict_mean - self.greedy_mean


def run_policy_ablation(
    n: int = 3 * 2 ** 10,
    configurations: Sequence[tuple[int, int]] = ((2, 3), (8, 9), (32, 33), (8, 16)),
    trials: int = 5,
    seed: "int | None" = 0,
) -> List[AblationPoint]:
    """Compare strict vs greedy policies over several (k, d) configurations."""
    tree = SeedTree(seed)
    points: List[AblationPoint] = []
    for k, d in configurations:
        params = {"n_bins": n, "k": k, "d": d}
        strict_values = run_trials(
            lambda s, p=params: simulate(
                SchemeSpec(scheme="kd_choice", params=p, policy="strict", seed=s)
            ),
            trials=trials,
            seed=tree.integer_seed(),
        )
        greedy_values = run_trials(
            lambda s, p=params: simulate(
                SchemeSpec(scheme="kd_choice", params=p, policy="greedy", seed=s)
            ),
            trials=trials,
            seed=tree.integer_seed(),
        )
        points.append(
            AblationPoint(
                k=k,
                d=d,
                n=n,
                strict_mean=sum(strict_values) / len(strict_values),
                strict_max=max(strict_values),
                greedy_mean=sum(greedy_values) / len(greedy_values),
                greedy_max=max(greedy_values),
            )
        )
    return points


def ablation_table(points: Sequence[AblationPoint]) -> ResultTable:
    """Flatten ablation points into a printable table."""
    table = ResultTable(
        columns=["k", "d", "n", "strict_mean", "greedy_mean", "improvement"],
        title="Policy ablation: strict multiplicity cap vs greedy relaxation (Section 7)",
    )
    for point in points:
        table.add(
            {
                "k": point.k,
                "d": point.d,
                "n": point.n,
                "strict_mean": point.strict_mean,
                "greedy_mean": point.greedy_mean,
                "improvement": point.improvement,
            }
        )
    return table
