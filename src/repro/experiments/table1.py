"""Reproduction of Table 1: maximum load of (k, d)-choice on a (k, d) grid.

The paper's Table 1 reports, for ``n = 3 · 2^16`` balls into ``n`` bins and a
grid of ``k`` and ``d`` values, the set of maximum loads observed over ten
simulation runs (cells show e.g. "2" or "2, 3"; dashes mark invalid
``k > d`` combinations — except the ``d = 1`` column, which is the classic
single-choice process).

``run_table1`` regenerates the grid.  The full paper-scale run
(``n = 196 608``) takes minutes; the default here is a scaled-down
``n = 3 · 2^12`` grid whose qualitative shape (which cells are 2, where the
values grow as ``k`` approaches ``d``) matches the paper.  The bench
``benchmarks/bench_table1.py`` runs a row subset routinely and marks the full
grid as ``slow``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from os import PathLike
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.statistics import format_value_set, observed_value_set
from ..api import ResultStore, SchemeSpec, simulate_trials
from ..api.cache import as_result_store
from ..simulation.results import GridTable
from ..simulation.rng import SeedTree

__all__ = [
    "TABLE1_N",
    "TABLE1_K_VALUES",
    "TABLE1_D_VALUES",
    "PAPER_TABLE1",
    "Table1Cell",
    "Table1Result",
    "table1_cell",
    "run_table1",
]

#: The paper's problem size: n = 3 * 2^16 = 196 608 balls and bins.
TABLE1_N = 3 * 2 ** 16

#: Row labels (k) of Table 1, in paper order.
TABLE1_K_VALUES: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192)

#: Column labels (d) of Table 1, in paper order.
TABLE1_D_VALUES: Tuple[int, ...] = (1, 2, 3, 5, 9, 17, 25, 49, 65, 193)

#: The values printed in the paper's Table 1 (sets of observed max loads).
#: Keys are (k, d); cells the paper leaves blank (k > d, other than d = 1
#: which is single choice for k = 1 only) are absent.
PAPER_TABLE1: Dict[Tuple[int, int], Tuple[int, ...]] = {
    (1, 1): (7, 8, 9), (1, 2): (3, 4), (1, 3): (3,), (1, 5): (2,), (1, 9): (2,),
    (1, 17): (2,), (1, 25): (2,), (1, 49): (2,), (1, 65): (2,), (1, 193): (2,),
    (2, 3): (4,), (2, 5): (3,), (2, 9): (2,), (2, 17): (2,), (2, 25): (2,),
    (2, 49): (2,), (2, 65): (2,), (2, 193): (2,),
    (3, 5): (3,), (3, 9): (2,), (3, 17): (2,), (3, 25): (2,), (3, 49): (2,),
    (3, 65): (2,), (3, 193): (2,),
    (4, 5): (4,), (4, 9): (3,), (4, 17): (2,), (4, 25): (2,), (4, 49): (2,),
    (4, 65): (2,), (4, 193): (2,),
    (6, 9): (3,), (6, 17): (2,), (6, 25): (2,), (6, 49): (2,), (6, 65): (2,),
    (6, 193): (2,),
    (8, 9): (4,), (8, 17): (2, 3), (8, 25): (2,), (8, 49): (2,), (8, 65): (2,),
    (8, 193): (2,),
    (12, 17): (3,), (12, 25): (2,), (12, 49): (2,), (12, 65): (2,), (12, 193): (2,),
    (16, 17): (4, 5), (16, 25): (3,), (16, 49): (2,), (16, 65): (2,), (16, 193): (2,),
    (24, 25): (5,), (24, 49): (2,), (24, 65): (2,), (24, 193): (2,),
    (32, 49): (3,), (32, 65): (2,), (32, 193): (2,),
    (48, 49): (5,), (48, 65): (3,), (48, 193): (2,),
    (64, 65): (5,), (64, 193): (2,),
    (96, 193): (2,),
    (128, 193): (2,),
    (192, 193): (5, 6),
}


@dataclass(frozen=True)
class Table1Cell:
    """Result of one (k, d) cell: the observed maximum loads over the trials."""

    k: int
    d: int
    n: int
    trials: int
    max_loads: Tuple[int, ...]

    @property
    def observed(self) -> List[int]:
        """Distinct observed values, sorted (the paper's cell contents)."""
        return observed_value_set(self.max_loads)

    @property
    def text(self) -> str:
        """Cell text as printed in Table 1, e.g. "2" or "2, 3"."""
        return format_value_set(self.max_loads)


@dataclass
class Table1Result:
    """The whole reproduced grid."""

    n: int
    trials: int
    cells: Dict[Tuple[int, int], Table1Cell] = field(default_factory=dict)

    def grid(self) -> GridTable:
        """Render the grid in the paper's layout."""
        k_values = sorted({k for k, _ in self.cells})
        d_values = sorted({d for _, d in self.cells})
        table = GridTable(
            row_labels=[f"k = {k}" for k in k_values],
            column_labels=[f"d = {d}" for d in d_values],
            row_header="",
            title=f"Maximum bin load for (k,d)-choice with n = {self.n} "
            f"({self.trials} trials per cell)",
        )
        for (k, d), cell in self.cells.items():
            table.set(f"k = {k}", f"d = {d}", cell.text)
        return table

    def to_text(self) -> str:
        return self.grid().to_text()


def table1_cell(
    n: int,
    k: int,
    d: int,
    trials: int = 10,
    seed: "int | None" = 0,
    engine: str = "auto",
    n_jobs: Optional[int] = None,
    cache: "ResultStore | str | PathLike[str] | None" = None,
) -> Table1Cell:
    """Run one (k, d) cell of Table 1.

    ``d = 1`` means the classic single-choice process (only defined for
    ``k = 1`` in the paper's table; here any ``k <= d`` is accepted, with
    ``k = d`` degenerating to batched single choice).  The cell is expressed
    as a ``kd_choice`` :class:`~repro.api.SchemeSpec`; ``engine`` forwards to
    the execution engine (the vectorized fast path is seed-for-seed identical
    to the scalar engine), ``n_jobs`` fans the trials out over a process
    pool and ``cache`` skips trials already in an on-disk
    :class:`~repro.api.ResultStore` — none of the three changes the results.
    """
    if k > d:
        raise ValueError(
            f"cell (k={k}, d={d}) is invalid: the process requires k <= d"
        )
    spec = SchemeSpec(
        scheme="kd_choice", params={"n_bins": n, "k": k, "d": d}, engine=engine
    )
    outcome = simulate_trials(
        spec,
        trials=trials,
        seed_tree=SeedTree(seed),
        n_jobs=n_jobs,
        cache=cache,
    )
    max_loads = tuple(int(value) for value in outcome.metric_values("max_load"))
    return Table1Cell(k=k, d=d, n=n, trials=trials, max_loads=max_loads)


def run_table1(
    n: int = 3 * 2 ** 12,
    trials: int = 10,
    seed: "int | None" = 0,
    k_values: Optional[Sequence[int]] = None,
    d_values: Optional[Sequence[int]] = None,
    engine: str = "auto",
    n_jobs: Optional[int] = None,
    cache: "ResultStore | str | PathLike[str] | None" = None,
) -> Table1Result:
    """Reproduce (a scaled version of) Table 1.

    Parameters
    ----------
    n:
        Number of balls and bins.  Use ``TABLE1_N`` for the paper-scale run.
    trials:
        Runs per cell (the paper uses 10).
    k_values, d_values:
        Row / column subsets; default to the paper's full grid.  Cells with
        ``k > d`` are skipped, as in the paper.
    engine:
        Execution engine for every cell spec ("auto", "scalar",
        "vectorized"); the engines are seed-for-seed identical.
    n_jobs:
        Trial-execution parallelism per cell (``None``/1 serial, >= 2 a
        process pool, -1 all CPUs); results are identical for every value.
    cache:
        Optional :class:`~repro.api.ResultStore` (or directory path); cells
        whose trials are already cached skip the scheme runner entirely.
    """
    ks = tuple(k_values) if k_values is not None else TABLE1_K_VALUES
    ds = tuple(d_values) if d_values is not None else TABLE1_D_VALUES
    cache = as_result_store(cache)
    tree = SeedTree(seed)
    result = Table1Result(n=n, trials=trials)
    for k in ks:
        for d in ds:
            # The paper's grid contains cells with k < d plus the single
            # (1, 1) cell for the classic single-choice column; other k >= d
            # combinations are printed as dashes.
            if k > d or (k == d and k != 1):
                continue
            cell_seed = tree.integer_seed()
            result.cells[(k, d)] = table1_cell(
                n=n, k=k, d=d, trials=trials, seed=cell_seed, engine=engine,
                n_jobs=n_jobs, cache=cache,
            )
    return result
