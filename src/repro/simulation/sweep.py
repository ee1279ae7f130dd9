"""Parameter sweeps over (k, d, n, m) grids.

A sweep is a declarative description of a family of configurations; running
it produces one :class:`~repro.simulation.runner.ExperimentOutcome` per
configuration plus a flat :class:`~repro.simulation.results.ResultTable`.
Table 1, the regime scaling experiment and the heavy-load experiment are all
expressed as sweeps.

Since the :mod:`repro.api` redesign, a sweep's preferred form is
*spec-driven*: name a registered scheme and the grid, and every point is
materialized as a :class:`~repro.api.SchemeSpec` executed through
:func:`repro.api.simulate`::

    sweep = ParameterSweep(grid={"n_bins": [1024], "k": [2, 4], "d": [8]},
                           scheme="kd_choice")
    table = sweep.run_table(trials=5, seed=0)

Spec-driven sweeps execute through :func:`repro.api.simulate_trials`, so
they inherit the execution layer for free: ``run(..., n_jobs=4)`` fans every
point's trials out over a process pool and ``run(..., cache=...)`` skips
trials already present in an on-disk :class:`~repro.api.cache.ResultStore`.
Seeds are pre-derived from one shared tree, so neither knob changes results.
(The :mod:`repro.api` import happens lazily inside the run methods:
``repro.api`` itself builds on this package, and deferring the import keeps
the layers acyclic.)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from os import PathLike
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence

from .rng import SeedTree

from .results import ResultTable
from .runner import ExperimentOutcome, MetricFunction

__all__ = ["SweepPoint", "ParameterSweep", "KDGridSweep"]


@dataclass(frozen=True)
class SweepPoint:
    """One configuration in a sweep: arbitrary keyword parameters."""

    params: Mapping[str, object]

    @property
    def label(self) -> str:
        return ", ".join(f"{key}={value}" for key, value in sorted(self.params.items()))


@dataclass
class ParameterSweep:
    """A sweep over the Cartesian product of parameter values.

    Parameters
    ----------
    grid:
        Mapping from parameter name to the list of values to sweep.
    scheme:
        Name of a registered :mod:`repro.api` scheme; each grid point becomes
        a :class:`~repro.api.SchemeSpec` with the point's parameters.
    filter_fn:
        Optional predicate on the parameter dict; points that fail are
        skipped (used e.g. to enforce ``k <= d`` in grid sweeps).
    param_map:
        Optional translation from grid-point parameters to scheme-runner
        parameters (e.g. ``{"n": ..., "m": ...}`` grids mapping onto
        ``n_bins``/``n_balls``).
    policy, engine:
        Forwarded to every generated spec.
    """

    grid: Mapping[str, Sequence[object]]
    scheme: str
    filter_fn: Optional[Callable[[Mapping[str, object]], bool]] = None
    param_map: Optional[Callable[[Mapping[str, object]], Mapping[str, object]]] = None
    policy: Optional[str] = None
    engine: str = "auto"

    def points(self) -> Iterator[SweepPoint]:
        """Iterate over the (filtered) grid points."""
        names = list(self.grid.keys())
        for values in itertools.product(*(self.grid[name] for name in names)):
            params = dict(zip(names, values))
            if self.filter_fn is not None and not self.filter_fn(params):
                continue
            yield SweepPoint(params=params)

    def spec_for(self, point: SweepPoint):
        """The :class:`~repro.api.SchemeSpec` a grid point materializes to."""
        from ..api import SchemeSpec  # deferred: repro.api builds on this package

        params = (
            dict(self.param_map(point.params))
            if self.param_map is not None
            else dict(point.params)
        )
        return SchemeSpec(
            scheme=self.scheme,
            params=params,
            policy=self.policy,
            engine=self.engine,
            label=point.label,
        )

    def run(
        self,
        trials: int = 10,
        seed: "int | None" = 0,
        metrics: Optional[Mapping[str, MetricFunction]] = None,
        n_jobs: Optional[int] = None,
        cache: "object | str | PathLike[str] | None" = None,
    ) -> List[tuple[SweepPoint, ExperimentOutcome]]:
        """Run every grid point ``trials`` times.

        ``n_jobs`` and ``cache`` forward to
        :func:`repro.api.simulate_trials` (results are identical for every
        setting).
        """
        # Deferred import, see module docstring.
        from ..api import simulate_trials
        from ..api.cache import as_result_store

        cache = as_result_store(cache)
        # One shared tree, points in order, ``trials`` seeds per point: the
        # exact derivation sequence ExperimentRunner produced, so historical
        # results are preserved seed for seed.
        tree = SeedTree(seed)
        return [
            (
                point,
                simulate_trials(
                    self.spec_for(point),
                    trials=trials,
                    seed_tree=tree,
                    metrics=metrics,
                    n_jobs=n_jobs,
                    cache=cache,
                ),
            )
            for point in self.points()
        ]

    def run_table(
        self,
        trials: int = 10,
        seed: "int | None" = 0,
        metrics: Optional[Mapping[str, MetricFunction]] = None,
        title: str = "",
        n_jobs: Optional[int] = None,
        cache: "object | str | PathLike[str] | None" = None,
    ) -> ResultTable:
        """Run the sweep and flatten everything into a :class:`ResultTable`."""
        outcomes = self.run(
            trials=trials, seed=seed, metrics=metrics, n_jobs=n_jobs, cache=cache
        )
        columns: List[str] = []
        rows: List[Dict[str, object]] = []
        for point, outcome in outcomes:
            record: Dict[str, object] = dict(point.params)
            record.update(
                {k: v for k, v in outcome.record().items() if k not in ("label",)}
            )
            rows.append(record)
            for key in record:
                if key not in columns:
                    columns.append(key)
        table = ResultTable(columns=columns, title=title)
        table.extend(rows)
        return table


def _kd_param_map(params: Mapping[str, object]) -> Mapping[str, object]:
    """Translate the grid vocabulary (n, m, k, d) to kd_choice parameters."""
    return {
        "n_bins": int(params["n"]),
        "k": int(params["k"]),
        "d": int(params["d"]),
        "n_balls": int(params.get("m", params["n"])),
    }


@dataclass
class KDGridSweep:
    """A sweep over (k, d) pairs at fixed ``n`` (and optionally ``m``).

    Invalid combinations (``k > d``) are skipped, mirroring the dashes in
    Table 1.  Each valid cell executes as a ``kd_choice``
    :class:`~repro.api.SchemeSpec`; ``engine`` selects the scalar engine
    or a batch engine ("auto" picks the fastest one where exact).
    """

    n: int
    k_values: Sequence[int]
    d_values: Sequence[int]
    m: Optional[int] = None
    policy: str = "strict"
    engine: str = "auto"
    extra_filter: Optional[Callable[[int, int], bool]] = None
    _sweep: ParameterSweep = field(init=False, repr=False)

    def __post_init__(self) -> None:
        def allowed(params: Mapping[str, object]) -> bool:
            k, d = int(params["k"]), int(params["d"])
            if k > d:
                return False
            if self.extra_filter is not None and not self.extra_filter(k, d):
                return False
            return True

        self._sweep = ParameterSweep(
            grid={
                "n": [self.n],
                "m": [self.m if self.m is not None else self.n],
                "k": list(self.k_values),
                "d": list(self.d_values),
                "policy": [self.policy],
            },
            scheme="kd_choice",
            param_map=_kd_param_map,
            policy=self.policy,
            engine=self.engine,
            filter_fn=allowed,
        )

    def points(self) -> Iterator[SweepPoint]:
        return self._sweep.points()

    def specs(self):
        """The :class:`~repro.api.SchemeSpec` for every valid grid cell."""
        return [self._sweep.spec_for(point) for point in self.points()]

    def run(
        self, trials: int = 10, seed: "int | None" = 0, metrics=None,
        n_jobs: Optional[int] = None, cache=None,
    ):
        return self._sweep.run(
            trials=trials, seed=seed, metrics=metrics, n_jobs=n_jobs, cache=cache
        )

    def run_table(
        self, trials: int = 10, seed: "int | None" = 0, metrics=None, title="",
        n_jobs: Optional[int] = None, cache=None,
    ):
        return self._sweep.run_table(
            trials=trials, seed=seed, metrics=metrics, title=title,
            n_jobs=n_jobs, cache=cache,
        )
