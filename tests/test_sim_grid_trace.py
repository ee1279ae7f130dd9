"""The traced ``sim_grid`` benchmark's runner spans against the registry.

``perfbench/sim_bench.py``'s :class:`RunnerSpans` swaps each cell's registry
record for a copy whose runner and batch engines are timed wrappers
(``dataclasses.replace`` on :class:`~repro.api.registry.SchemeInfo`).  A
change to the record's shape must keep that working, or the traced run's
per-layer ``kernels.*`` metrics fail before anything is measured.
"""

from __future__ import annotations

import importlib
from pathlib import Path

from repro.api import SchemeSpec, get_scheme, registry, simulate
from repro.core.kernels import KERNELS

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_runner_spans_time_the_engine_simulate_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(registry.REGISTRY, "_schemes", dict(registry.REGISTRY._schemes))
    sim_bench = importlib.import_module("sim_bench")
    engines = dict(KERNELS["kd_choice"].engines)

    spans = sim_bench.RunnerSpans()
    spans.install()
    for engine in ("vectorized", "compiled"):
        assert getattr(get_scheme("kd_choice"), engine) is not engines[engine]
    result = simulate(
        SchemeSpec(scheme="kd_choice", params={"n_bins": 256, "k": 2, "d": 5}, seed=3)
    )

    assert result.total_balls_check()
    assert spans.last > 0.0
    assert KERNELS["kd_choice"].engines == engines
