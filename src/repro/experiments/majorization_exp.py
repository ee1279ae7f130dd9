"""Empirical verification of the Section 3 majorization chain.

The proof of Theorem 2 rests on the sandwich (Properties (iv) and (v))::

    A(1, d−k+1)  ≤_mj  A(k, d)  ≤_mj  A(1, ⌊d/k⌋)

together with the monotonicity properties (ii) (more probes help) and (iii)
(smaller rounds help).  This experiment runs independent trials of the
processes involved and checks that the empirical prefix-sum profiles and
maximum-load distributions are consistent with each claimed ordering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..analysis.majorization import MajorizationReport, compare_processes
from ..api import SchemeSpec, simulate
from ..simulation.results import ResultTable
from ..simulation.rng import SeedTree

__all__ = ["MajorizationExperiment", "run_majorization_chain", "majorization_table"]


@dataclass(frozen=True)
class MajorizationExperiment:
    """One claimed ordering and its empirical report."""

    claim: str
    report: MajorizationReport


def _kd_runner(n: int, k: int, d: int):
    return lambda seed: simulate(
        SchemeSpec("kd_choice", {"n_bins": n, "k": k, "d": d}, seed=seed)
    )


def run_majorization_chain(
    n: int = 3 * 2 ** 10,
    configurations: Sequence[tuple[int, int]] = ((3, 5), (8, 12)),
    trials: int = 8,
    seed: "int | None" = 0,
) -> List[MajorizationExperiment]:
    """Check the Theorem 2 sandwich and Property (ii) for several (k, d).

    For each configuration three orderings are evaluated:

    1. ``A(1, d−k+1) ≤_mj A(k, d)``  (Property (v) + (iv), the lower side),
    2. ``A(k, d) ≤_mj A(1, ⌊d/k⌋)``   (Property (iv), the upper side),
    3. ``A(k, d+2) ≤_mj A(k, d)``     (Property (ii): extra probes help).
    """
    tree = SeedTree(seed)
    experiments: List[MajorizationExperiment] = []
    for k, d in configurations:
        if k >= d:
            raise ValueError(f"configurations need k < d, got (k={k}, d={d})")
        seeds = tree.integer_seeds(trials * 2)
        experiments.append(
            MajorizationExperiment(
                claim=f"A(1,{d - k + 1}) <=mj A({k},{d})",
                report=compare_processes(
                    _kd_runner(n, 1, d - k + 1),
                    _kd_runner(n, k, d),
                    trials=trials,
                    seeds=seeds,
                    label_small=f"A(1,{d - k + 1})",
                    label_large=f"A({k},{d})",
                    tolerance=0.01 * n,
                ),
            )
        )
        seeds = tree.integer_seeds(trials * 2)
        floor_ratio = max(d // k, 1)
        experiments.append(
            MajorizationExperiment(
                claim=f"A({k},{d}) <=mj A(1,{floor_ratio})",
                report=compare_processes(
                    _kd_runner(n, k, d),
                    _kd_runner(n, 1, floor_ratio),
                    trials=trials,
                    seeds=seeds,
                    label_small=f"A({k},{d})",
                    label_large=f"A(1,{floor_ratio})",
                    tolerance=0.01 * n,
                ),
            )
        )
        seeds = tree.integer_seeds(trials * 2)
        experiments.append(
            MajorizationExperiment(
                claim=f"A({k},{d + 2}) <=mj A({k},{d})",
                report=compare_processes(
                    _kd_runner(n, k, d + 2),
                    _kd_runner(n, k, d),
                    trials=trials,
                    seeds=seeds,
                    label_small=f"A({k},{d + 2})",
                    label_large=f"A({k},{d})",
                    tolerance=0.01 * n,
                ),
            )
        )
    return experiments


def majorization_table(experiments: Sequence[MajorizationExperiment]) -> ResultTable:
    """Flatten the experiments into a printable table."""
    table = ResultTable(
        columns=[
            "claim", "trials", "prefix_fraction", "max_load_dominance",
            "mean_max_small", "mean_max_large", "consistent",
        ],
        title="Section 3 majorization chain: empirical consistency checks",
    )
    for experiment in experiments:
        record = experiment.report.as_dict()
        record["claim"] = experiment.claim
        table.add(record)
    return table
