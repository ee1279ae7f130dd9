"""Extension experiments beyond the paper's evaluation.

The paper's Section 7 lists open directions (the heavily loaded case for
``d < 2k``, dynamically adjusted policies) and its related-work section
points at weighted and parallel variants.  These recipes exercise the
extension modules built in :mod:`repro.core`:

* :func:`run_weighted_experiment` — weighted balls (exponential / Pareto
  weights) vs unit balls;
* :func:`run_staleness_experiment` — how the maximum load degrades when
  probes see stale load snapshots (parallel-rounds model);
* :func:`run_churn_experiment` — the dynamic insert/delete system's
  steady-state gap;
* :func:`run_open_question_heavy` — the open ``d < 2k`` heavily loaded case,
  measured side by side with the proven ``d ≥ 2k`` regime;
* :func:`run_exact_validation` — exact tiny-instance distributions vs the
  Monte-Carlo simulator (a correctness check of the whole pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..analysis.exact import (
    empirical_max_load_distribution,
    exact_kd_choice_distribution,
    expected_max_load,
    max_load_distribution,
    total_variation_distance,
)
from ..api import SchemeSpec, simulate
from ..core.dynamic import run_churn_kd_choice
from ..simulation.results import ResultTable
from ..simulation.rng import SeedTree
from ..simulation.runner import run_trials

__all__ = [
    "WeightedPoint",
    "run_weighted_experiment",
    "weighted_table",
    "StalenessPoint",
    "run_staleness_experiment",
    "staleness_table",
    "ChurnPoint",
    "run_churn_experiment",
    "churn_table",
    "OpenQuestionPoint",
    "run_open_question_heavy",
    "open_question_table",
    "ExactValidationPoint",
    "run_exact_validation",
    "exact_validation_table",
]


# ----------------------------------------------------------------------
# Weighted balls
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WeightedPoint:
    """Weighted vs unit allocation at one (k, d) configuration."""

    k: int
    d: int
    n: int
    weight_distribution: str
    mean_weighted_gap: float
    mean_unit_max_load: float


def run_weighted_experiment(
    n: int = 3 * 2 ** 10,
    configurations: Sequence[tuple[int, int]] = ((1, 2), (4, 8), (16, 17)),
    weight_distributions: Sequence[str] = ("constant", "exponential", "pareto"),
    trials: int = 3,
    seed: "int | None" = 0,
) -> List[WeightedPoint]:
    """Measure the weighted-load gap for several weight distributions."""
    tree = SeedTree(seed)
    points: List[WeightedPoint] = []
    for k, d in configurations:
        unit_loads = run_trials(
            lambda s, k=k, d=d: simulate(
                SchemeSpec("kd_choice", {"n_bins": n, "k": k, "d": d}, seed=s)
            ),
            trials=trials,
            seed=tree.integer_seed(),
        )
        for distribution in weight_distributions:
            gaps = run_trials(
                lambda s, k=k, d=d, w=distribution: simulate(
                    SchemeSpec(
                        "weighted_kd_choice",
                        {"n_bins": n, "k": k, "d": d, "weights": w},
                        seed=s,
                    )
                ),
                trials=trials,
                seed=tree.integer_seed(),
                metric=lambda result: float(result.extra["weighted_gap"]),
            )
            points.append(
                WeightedPoint(
                    k=k,
                    d=d,
                    n=n,
                    weight_distribution=distribution,
                    mean_weighted_gap=sum(gaps) / len(gaps),
                    mean_unit_max_load=sum(unit_loads) / len(unit_loads),
                )
            )
    return points


def weighted_table(points: Sequence[WeightedPoint]) -> ResultTable:
    table = ResultTable(
        columns=["k", "d", "weights", "mean_weighted_gap", "mean_unit_max_load"],
        title="Weighted (k,d)-choice: weighted-load gap by weight distribution",
    )
    for p in points:
        table.add(
            {
                "k": p.k,
                "d": p.d,
                "weights": p.weight_distribution,
                "mean_weighted_gap": p.mean_weighted_gap,
                "mean_unit_max_load": p.mean_unit_max_load,
            }
        )
    return table


# ----------------------------------------------------------------------
# Stale information (parallel rounds)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StalenessPoint:
    """Max load as a function of the staleness epoch length."""

    k: int
    d: int
    n: int
    stale_rounds: int
    mean_max_load: float
    max_max_load: float


def run_staleness_experiment(
    n: int = 3 * 2 ** 10,
    k: int = 4,
    d: int = 8,
    stale_rounds_values: Sequence[int] = (1, 4, 16, 64, 256),
    trials: int = 3,
    seed: "int | None" = 0,
) -> List[StalenessPoint]:
    """Sweep the staleness epoch and measure the resulting maximum load."""
    tree = SeedTree(seed)
    points: List[StalenessPoint] = []
    for stale_rounds in stale_rounds_values:
        values = run_trials(
            lambda s, e=stale_rounds: simulate(
                SchemeSpec(
                    "stale_kd_choice",
                    {"n_bins": n, "k": k, "d": d, "stale_rounds": e},
                    seed=s,
                )
            ),
            trials=trials,
            seed=tree.integer_seed(),
        )
        points.append(
            StalenessPoint(
                k=k,
                d=d,
                n=n,
                stale_rounds=stale_rounds,
                mean_max_load=sum(values) / len(values),
                max_max_load=max(values),
            )
        )
    return points


def staleness_table(points: Sequence[StalenessPoint]) -> ResultTable:
    table = ResultTable(
        columns=["k", "d", "stale_rounds", "mean_max_load", "max_max_load"],
        title="Stale-information (k,d)-choice: max load vs staleness epoch",
    )
    for p in points:
        table.add(
            {
                "k": p.k,
                "d": p.d,
                "stale_rounds": p.stale_rounds,
                "mean_max_load": p.mean_max_load,
                "max_max_load": p.max_max_load,
            }
        )
    return table


# ----------------------------------------------------------------------
# Dynamic churn
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChurnPoint:
    """Steady-state behaviour of the insert/delete system."""

    k: int
    d: int
    n: int
    rounds: int
    steady_gap: float
    steady_max_load: float
    final_balls: int


def run_churn_experiment(
    n: int = 512,
    configurations: Sequence[tuple[int, int]] = ((1, 1), (1, 2), (4, 8)),
    rounds: int = 2048,
    trials: int = 2,
    seed: "int | None" = 0,
) -> List[ChurnPoint]:
    """Measure the steady-state gap of balanced insert/delete churn."""
    tree = SeedTree(seed)
    points: List[ChurnPoint] = []
    for k, d in configurations:
        gaps: List[float] = []
        max_loads: List[float] = []
        final_balls = 0
        for trial_seed in tree.integer_seeds(trials):
            result = run_churn_kd_choice(
                n_bins=n, k=k, d=d, rounds=rounds, seed=trial_seed
            )
            gaps.append(result.steady_state_gap())
            max_loads.append(result.steady_state_max_load())
            final_balls = int(result.final_loads.sum())
        points.append(
            ChurnPoint(
                k=k,
                d=d,
                n=n,
                rounds=rounds,
                steady_gap=sum(gaps) / len(gaps),
                steady_max_load=sum(max_loads) / len(max_loads),
                final_balls=final_balls,
            )
        )
    return points


def churn_table(points: Sequence[ChurnPoint]) -> ResultTable:
    table = ResultTable(
        columns=["k", "d", "rounds", "steady_gap", "steady_max_load", "final_balls"],
        title="Dynamic churn: steady-state gap under balanced insert/delete",
    )
    for p in points:
        table.add(
            {
                "k": p.k,
                "d": p.d,
                "rounds": p.rounds,
                "steady_gap": p.steady_gap,
                "steady_max_load": p.steady_max_load,
                "final_balls": p.final_balls,
            }
        )
    return table


# ----------------------------------------------------------------------
# Open question: heavily loaded case with d < 2k
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class OpenQuestionPoint:
    """Gap measurements for the open d < 2k heavily loaded case."""

    k: int
    d: int
    n: int
    load_factor: int
    mean_gap: float
    regime: str


def run_open_question_heavy(
    n: int = 1 << 11,
    load_factors: Sequence[int] = (1, 4, 16),
    proven: Sequence[tuple[int, int]] = ((4, 8),),
    open_cases: Sequence[tuple[int, int]] = ((4, 6), (8, 9), (16, 17)),
    trials: int = 3,
    seed: "int | None" = 0,
) -> List[OpenQuestionPoint]:
    """Measure the gap for d < 2k (open in the paper) next to d >= 2k.

    Theorem 2 covers ``d ≥ 2k``; whether the gap stays bounded for
    ``k ≤ d < 2k`` is explicitly left open (Section 7).  The simulation gives
    the conjecture-level answer.
    """
    tree = SeedTree(seed)
    points: List[OpenQuestionPoint] = []
    for label, configurations in (("proven (d>=2k)", proven), ("open (d<2k)", open_cases)):
        for k, d in configurations:
            for factor in load_factors:
                gaps = run_trials(
                    lambda s, k=k, d=d, m=factor * n: simulate(
                        SchemeSpec(
                            "kd_choice",
                            {"n_bins": n, "k": k, "d": d, "n_balls": m},
                            seed=s,
                        )
                    ),
                    trials=trials,
                    seed=tree.integer_seed(),
                    metric=lambda result: float(result.gap),
                )
                points.append(
                    OpenQuestionPoint(
                        k=k,
                        d=d,
                        n=n,
                        load_factor=factor,
                        mean_gap=sum(gaps) / len(gaps),
                        regime=label,
                    )
                )
    return points


def open_question_table(points: Sequence[OpenQuestionPoint]) -> ResultTable:
    table = ResultTable(
        columns=["regime", "k", "d", "m/n", "mean_gap"],
        title="Open question (Section 7): heavily loaded gap for d < 2k",
    )
    for p in points:
        table.add(
            {
                "regime": p.regime,
                "k": p.k,
                "d": p.d,
                "m/n": p.load_factor,
                "mean_gap": p.mean_gap,
            }
        )
    return table


# ----------------------------------------------------------------------
# Exact validation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExactValidationPoint:
    """Exact vs Monte-Carlo max-load distribution on a tiny instance."""

    n_bins: int
    k: int
    d: int
    trials: int
    exact_expected_max: float
    empirical_expected_max: float
    total_variation: float


def run_exact_validation(
    instances: Sequence[tuple[int, int, int]] = ((4, 1, 2), (4, 2, 3), (5, 2, 4), (6, 3, 4)),
    trials: int = 4000,
    seed: "int | None" = 0,
) -> List[ExactValidationPoint]:
    """Compare exact tiny-instance distributions with the simulator."""
    tree = SeedTree(seed)
    points: List[ExactValidationPoint] = []
    for n_bins, k, d in instances:
        n_balls = n_bins - (n_bins % k)
        exact = exact_kd_choice_distribution(n_bins, k, d, n_balls=n_balls)
        exact_max = max_load_distribution(exact)
        empirical = empirical_max_load_distribution(
            n_bins, k, d, trials=trials, seed=tree.integer_seed(), n_balls=n_balls
        )
        points.append(
            ExactValidationPoint(
                n_bins=n_bins,
                k=k,
                d=d,
                trials=trials,
                exact_expected_max=expected_max_load(exact),
                empirical_expected_max=sum(v * p for v, p in empirical.items()),
                total_variation=total_variation_distance(exact_max, empirical),
            )
        )
    return points


def exact_validation_table(points: Sequence[ExactValidationPoint]) -> ResultTable:
    table = ResultTable(
        columns=[
            "n_bins", "k", "d", "trials",
            "exact_E[max]", "empirical_E[max]", "total_variation",
        ],
        title="Exact vs simulated max-load distributions (tiny instances)",
    )
    for p in points:
        table.add(
            {
                "n_bins": p.n_bins,
                "k": p.k,
                "d": p.d,
                "trials": p.trials,
                "exact_E[max]": p.exact_expected_max,
                "empirical_E[max]": p.empirical_expected_max,
                "total_variation": p.total_variation,
            }
        )
    return table
