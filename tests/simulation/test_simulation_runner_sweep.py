"""Unit tests for the experiment runner and the parameter sweeps."""

from __future__ import annotations

import pytest

from oracles import run_kd_choice
from repro.simulation.runner import ExperimentRunner, run_trials
from repro.simulation.sweep import KDGridSweep, ParameterSweep


def _factory(seed: int):
    return run_kd_choice(n_bins=128, k=2, d=4, seed=seed)


class TestExperimentRunner:
    def test_runs_requested_number_of_trials(self):
        runner = ExperimentRunner(trials=4, seed=0)
        outcome = runner.run(_factory, label="test")
        assert len(outcome.trials) == 4
        assert outcome.label == "test"

    def test_default_metrics_present(self):
        outcome = ExperimentRunner(trials=2, seed=0).run(_factory)
        assert set(outcome.trials[0].metrics) == {"max_load", "gap", "messages"}

    def test_custom_metrics(self):
        runner = ExperimentRunner(
            trials=2, seed=0, metrics={"empty": lambda r: float((r.loads == 0).sum())}
        )
        outcome = runner.run(_factory)
        assert "empty" in outcome.trials[0].metrics

    def test_statistics_and_observed_set(self):
        outcome = ExperimentRunner(trials=5, seed=1).run(_factory)
        stats = outcome.statistics("max_load")
        assert stats.count == 5
        assert set(outcome.observed_set("max_load")) <= {1, 2, 3, 4}

    def test_record_flattens_metrics(self):
        record = ExperimentRunner(trials=3, seed=1).run(_factory, label="L").record()
        assert record["label"] == "L"
        assert "max_load_mean" in record
        assert "messages_max" in record

    def test_reproducible_with_same_seed(self):
        a = ExperimentRunner(trials=3, seed=7).run(_factory)
        b = ExperimentRunner(trials=3, seed=7).run(_factory)
        assert a.metric_values("max_load") == b.metric_values("max_load")

    def test_run_many_labels(self):
        runner = ExperimentRunner(trials=2, seed=0)
        outcomes = runner.run_many({"a": _factory, "b": _factory})
        assert set(outcomes) == {"a", "b"}

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentRunner(trials=0)

    def test_run_trials_helper(self):
        values = run_trials(_factory, trials=4, seed=2)
        assert len(values) == 4
        assert all(v >= 1 for v in values)


class TestParameterSweep:
    def test_points_cartesian_product(self):
        sweep = ParameterSweep(grid={"x": [1, 2], "y": ["a", "b"]}, scheme="kd_choice")
        points = list(sweep.points())
        assert len(points) == 4

    def test_filter_applies(self):
        sweep = ParameterSweep(
            grid={"x": [1, 2, 3]},
            scheme="kd_choice",
            filter_fn=lambda params: params["x"] != 2,
        )
        assert len(list(sweep.points())) == 2

    def test_run_table_contains_parameters_and_metrics(self):
        sweep = ParameterSweep(
            grid={"d": [2, 4]},
            scheme="kd_choice",
            param_map=lambda params: {"n_bins": 64, "k": 1, "d": int(params["d"])},
        )
        table = sweep.run_table(trials=2, seed=0, title="t")
        assert len(table) == 2
        assert "d" in table.columns
        assert any(col.startswith("max_load") for col in table.columns)


class TestKDGridSweep:
    def test_skips_invalid_cells(self):
        sweep = KDGridSweep(n=64, k_values=[1, 4], d_values=[2, 8])
        points = list(sweep.points())
        # (4, 2) must be skipped.
        combos = {(p.params["k"], p.params["d"]) for p in points}
        assert (4, 2) not in combos
        assert (1, 2) in combos

    def test_extra_filter(self):
        sweep = KDGridSweep(
            n=64, k_values=[1, 2], d_values=[2, 4], extra_filter=lambda k, d: d == 2 * k
        )
        combos = {(p.params["k"], p.params["d"]) for p in sweep.points()}
        assert combos == {(1, 2), (2, 4)}

    def test_heavy_load_parameter(self):
        sweep = KDGridSweep(n=64, k_values=[1], d_values=[2], m=256)
        point = next(iter(sweep.points()))
        assert point.params["m"] == 256

    def test_run_produces_outcomes(self):
        sweep = KDGridSweep(n=64, k_values=[1], d_values=[2, 4])
        outcomes = sweep.run(trials=2, seed=0)
        assert len(outcomes) == 2
        for point, outcome in outcomes:
            assert len(outcome.trials) == 2
