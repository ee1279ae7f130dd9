"""The maximum-load versus message-cost trade-off (Section 1.1).

The paper's headline claim: by choosing ``k`` and ``d`` appropriately,
(k, d)-choice achieves

* a **constant** maximum load with ``O(n)`` messages (``d = 2k``,
  ``k = Θ(polylog n)``), or
* ``o(ln ln n)`` maximum load with ``(1 + o(1)) n`` messages
  (``d − k = Θ(ln n)``, ``k ≥ Θ(ln² n)``),

and thereby matches the best known *adaptive* algorithms while being
non-adaptive.  This experiment runs single choice, Greedy[2], Greedy[d],
(1+β)-choice, the adaptive comparators and several (k, d)-choice settings on
the same instance size and reports (max load, messages per ball) pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from os import PathLike
from typing import Dict, List, Optional, Sequence

from ..api import ResultStore, SchemeSpec, simulate_trials
from ..api.cache import as_result_store
from ..core.types import AllocationResult
from ..simulation.results import ResultTable
from ..simulation.rng import SeedTree

__all__ = ["TradeoffPoint", "run_tradeoff", "tradeoff_table", "default_schemes"]


def _max_load_metric(result: AllocationResult) -> float:
    return float(result.max_load)


def _messages_per_ball_metric(result: AllocationResult) -> float:
    return float(result.messages_per_ball)


#: Module-level (hence picklable) metric set, so ``n_jobs > 1`` can ship the
#: metrics to pool workers.
_TRADEOFF_METRICS = {
    "max_load": _max_load_metric,
    "messages_per_ball": _messages_per_ball_metric,
}


@dataclass(frozen=True)
class TradeoffPoint:
    """Mean max load and message cost of one scheme."""

    scheme: str
    mean_max_load: float
    min_max_load: float
    max_max_load: float
    mean_messages_per_ball: float


def default_schemes(n: int) -> Dict[str, SchemeSpec]:
    """The scheme suite compared by the trade-off experiment.

    Every entry is a declarative :class:`~repro.api.SchemeSpec` bound to the
    instance size ``n``; :func:`run_tradeoff` seeds and executes them through
    :func:`repro.api.simulate`.
    """
    log_n = max(2, round(math.log(n)))
    log_sq = max(2, round(math.log(n) ** 2))
    schemes: Dict[str, SchemeSpec] = {
        "single-choice": SchemeSpec("single_choice", {"n_bins": n}),
        "greedy[2]": SchemeSpec("d_choice", {"n_bins": n, "d": 2}),
        "greedy[4]": SchemeSpec("d_choice", {"n_bins": n, "d": 4}),
        "(1+0.5)-choice": SchemeSpec("one_plus_beta", {"n_bins": n, "beta": 0.5}),
        "always-go-left[2]": SchemeSpec("always_go_left", {"n_bins": n, "d": 2}),
        "adaptive-threshold": SchemeSpec("threshold_adaptive", {"n_bins": n}),
        "adaptive-two-phase": SchemeSpec("two_phase_adaptive", {"n_bins": n}),
        # Constant max load at 2n messages: d = 2k with k = Θ(polylog n).
        f"(k,2k)-choice k=ln^2 n={log_sq}": SchemeSpec(
            "kd_choice", {"n_bins": n, "k": log_sq, "d": 2 * log_sq}
        ),
        # o(ln ln n) max load at (1+o(1))n messages: d - k = Θ(ln n), k = ln^2 n.
        f"(k,k+ln n)-choice k={log_sq}": SchemeSpec(
            "kd_choice", {"n_bins": n, "k": log_sq, "d": log_sq + log_n}
        ),
        # Storage setting: d = k + 1 with k = ln n (half of two-choice's cost).
        f"(k,k+1)-choice k=ln n={log_n}": SchemeSpec(
            "kd_choice", {"n_bins": n, "k": log_n, "d": log_n + 1}
        ),
    }
    return schemes


def run_tradeoff(
    n: int = 3 * 2 ** 13,
    trials: int = 3,
    seed: "int | None" = 0,
    schemes: "Dict[str, SchemeSpec] | None" = None,
    n_jobs: Optional[int] = None,
    cache: "ResultStore | str | PathLike[str] | None" = None,
    engine: str = "auto",
) -> List[TradeoffPoint]:
    """Run every scheme ``trials`` times and collect (max load, messages).

    ``schemes`` maps labels to :class:`~repro.api.SchemeSpec` objects.
    ``n_jobs``/``cache`` forward to :func:`repro.api.simulate_trials`
    (results are identical for every setting).  ``engine`` overrides the
    execution engine of every entry (also results-neutral: the engines are
    seed-for-seed identical wherever both exist).
    """
    scheme_map = schemes if schemes is not None else default_schemes(n)
    if engine != "auto":
        scheme_map = {
            name: replace(entry, engine=engine) for name, entry in scheme_map.items()
        }
    cache = as_result_store(cache)
    tree = SeedTree(seed)
    # One derived subtree shared by every entry, in mapping order — the same
    # derivation sequence the historical ExperimentRunner-based version used.
    inner = SeedTree(tree.integer_seed())
    points: List[TradeoffPoint] = []
    for name, entry in scheme_map.items():
        outcome = simulate_trials(
            entry,
            trials=trials,
            seed_tree=inner,
            metrics=_TRADEOFF_METRICS,
            n_jobs=n_jobs,
            cache=cache,
        )
        outcome.label = name
        max_stats = outcome.statistics("max_load")
        msg_stats = outcome.statistics("messages_per_ball")
        points.append(
            TradeoffPoint(
                scheme=name,
                mean_max_load=max_stats.mean,
                min_max_load=max_stats.minimum,
                max_max_load=max_stats.maximum,
                mean_messages_per_ball=msg_stats.mean,
            )
        )
    return points


def tradeoff_table(points: Sequence[TradeoffPoint]) -> ResultTable:
    """Flatten trade-off points into a printable table."""
    table = ResultTable(
        columns=[
            "scheme", "mean_max_load", "min_max_load", "max_max_load",
            "mean_messages_per_ball",
        ],
        title="Maximum load vs message cost (Section 1.1 trade-off)",
    )
    for point in points:
        table.add(
            {
                "scheme": point.scheme,
                "mean_max_load": point.mean_max_load,
                "min_max_load": point.min_max_load,
                "max_max_load": point.max_max_load,
                "mean_messages_per_ball": point.mean_messages_per_ball,
            }
        )
    return table
