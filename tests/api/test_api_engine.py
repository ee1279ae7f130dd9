"""Engine tests: scalar/vectorized equivalence and seed-tree fan-out."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import run_kd_choice
from repro.api import (
    SchemeSpec,
    get_scheme,
    resolve_engine,
    simulate,
    simulate_many,
    simulate_trials,
)
from repro.core.compiled import backend_unavailable_reason
from repro.simulation.rng import SeedTree

#: Configurations spanning the engine's regimes: generic k < d, two-choice,
#: the degenerate k == d shortcut, a heavy load with a tail round, and a
#: tiny-n instance where almost every batch row conflicts.
EQUIVALENCE_CASES = [
    {"n_bins": 1024, "k": 4, "d": 8},
    {"n_bins": 1000, "k": 1, "d": 2},
    {"n_bins": 512, "k": 3, "d": 3},
    {"n_bins": 300, "k": 5, "d": 7, "n_balls": 1234},
    {"n_bins": 64, "k": 2, "d": 5, "n_balls": 640},
    {"n_bins": 4096, "k": 16, "d": 17},
]


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("params", EQUIVALENCE_CASES)
    @pytest.mark.parametrize("seed", [0, 1, 42])
    def test_identical_load_vectors_for_fixed_seed(self, params, seed):
        scalar = run_kd_choice(seed=seed, **params)
        vectorized = get_scheme("kd_choice").vectorized(seed=seed, **params)
        assert np.array_equal(scalar.loads, vectorized.loads)
        assert scalar.messages == vectorized.messages
        assert scalar.rounds == vectorized.rounds
        assert scalar.n_balls == vectorized.n_balls

    @pytest.mark.parametrize("seed", [3, 17])
    def test_equivalence_through_the_spec_api(self, seed):
        params = {"n_bins": 768, "k": 2, "d": 6}
        results = {
            engine: simulate(
                SchemeSpec(scheme="kd_choice", params=params, seed=seed, engine=engine)
            )
            for engine in ("scalar", "vectorized")
        }
        assert np.array_equal(results["scalar"].loads, results["vectorized"].loads)

    def test_vectorized_rejects_non_strict_policy(self):
        with pytest.raises(ValueError, match="strict"):
            get_scheme("kd_choice").vectorized(n_bins=64, k=2, d=4, policy="greedy")

    def test_vectorized_validates_geometry(self):
        with pytest.raises(ValueError):
            get_scheme("kd_choice").vectorized(n_bins=8, k=4, d=2)

    def test_conservation_and_result_shape(self):
        result = get_scheme("kd_choice").vectorized(
            n_bins=256, k=3, d=7, n_balls=1000, seed=5
        )
        assert result.total_balls_check()
        assert result.extra["engine"] == "vectorized"
        assert result.extra["expected_messages"] == result.messages


#: Covered families under ``engine="auto"``; the last two have no compiled
#: engine, so they resolve to "vectorized" with or without the C backend.
COVERED_FAMILIES = [
    ("kd_choice", {"n_bins": 64, "k": 1, "d": 2}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 1, "d": 2}),
    ("stale_kd_choice", {"n_bins": 64, "k": 1, "d": 2}),
    ("two_choice", {"n_bins": 64}),
    ("threshold_adaptive", {"n_bins": 64}),
    ("churn_kd_choice", {"n_bins": 64, "k": 1, "d": 2, "rounds": 4}),
    ("single_choice", {"n_bins": 64}),
]

requires_backend = pytest.mark.skipif(
    backend_unavailable_reason() is not None,
    reason=f"compiled backend unavailable: {backend_unavailable_reason()}",
)


class TestEngineResolution:
    @requires_backend
    def test_auto_prefers_compiled_for_strict_kd_choice(self):
        spec = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        assert resolve_engine(spec) == "compiled"

    def test_auto_prefers_vectorized_for_strict_kd_choice_without_backend(
        self, no_backend
    ):
        spec = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        assert resolve_engine(spec) == "vectorized"

    def test_auto_falls_back_for_greedy_policy(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2}, policy="greedy"
        )
        assert resolve_engine(spec) == "scalar"

    def test_auto_is_scalar_for_schemes_without_fast_path(self):
        assert resolve_engine(SchemeSpec(scheme="serialized_kd_choice")) == "scalar"
        assert resolve_engine(SchemeSpec(scheme="greedy_kd_choice")) == "scalar"

    def test_auto_prefers_fast_cores_for_substrates(self):
        assert resolve_engine(SchemeSpec(scheme="cluster_scheduling")) == "vectorized"
        assert resolve_engine(SchemeSpec(scheme="storage_placement")) == "vectorized"
        # ...but failure/rebuild scenarios fall back to the reference system.
        spec = SchemeSpec(
            scheme="storage_placement", params={"fail_fraction": 0.1}
        )
        assert resolve_engine(spec) == "scalar"

    @requires_backend
    def test_auto_prefers_compiled_for_covered_families(self):
        for scheme, params in COVERED_FAMILIES:
            expected = "compiled" if get_scheme(scheme).compiled else "vectorized"
            spec = SchemeSpec(scheme=scheme, params=params)
            assert resolve_engine(spec) == expected, scheme

    def test_auto_prefers_vectorized_for_covered_families_without_backend(
        self, no_backend
    ):
        for scheme, params in COVERED_FAMILIES:
            spec = SchemeSpec(scheme=scheme, params=params)
            assert resolve_engine(spec) == "vectorized", scheme

    def test_auto_falls_back_when_guard_rejects_params(self):
        spec = SchemeSpec(
            scheme="threshold_adaptive",
            params={"n_bins": 64, "threshold": lambda average: 2},
        )
        assert resolve_engine(spec) == "scalar"

    def test_explicit_scalar_request_honoured(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2}, engine="scalar"
        )
        assert resolve_engine(spec) == "scalar"


class TestFullRegistryEngineDichotomy:
    """Acceptance: every registered scheme either runs under
    ``engine="vectorized"`` with scalar-identical results, or rejects the
    engine with a clear validation error at spec construction."""

    def test_every_scheme_is_vectorized_or_rejects(self):
        from repro.api import SchemeSpecError, available_schemes, get_scheme

        from test_api_registry import MINIMAL_PARAMS

        covered, rejected = [], []
        for name in available_schemes():
            params = MINIMAL_PARAMS[name]
            if get_scheme(name).vectorized is None:
                with pytest.raises(SchemeSpecError, match="no vectorized engine"):
                    SchemeSpec(scheme=name, params=params, engine="vectorized")
                rejected.append(name)
                continue
            results = {
                engine: simulate(
                    SchemeSpec(scheme=name, params=params, seed=13, engine=engine)
                )
                for engine in ("scalar", "vectorized")
            }
            assert np.array_equal(
                results["scalar"].loads, results["vectorized"].loads
            ), f"{name}: engines disagree"
            assert results["scalar"].messages == results["vectorized"].messages
            covered.append(name)
        # The kernel contract closes the dichotomy: even the inherently
        # sequential schemes (ball-at-a-time serialization, the greedy
        # water-filling policy) gain a derived batch engine that drives the
        # per-unit kernel, so a forced engine="vectorized" always runs.
        assert rejected == []
        assert len(covered) == len(available_schemes())
        assert len(covered) + len(rejected) == len(available_schemes())


class TestFanOut:
    def test_simulate_trials_runs_requested_count(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 128, "k": 2, "d": 4},
            seed=0, trials=4,
        )
        outcome = simulate_trials(spec)
        assert len(outcome.trials) == 4
        assert set(outcome.trials[0].metrics) == {"max_load", "gap", "messages"}

    def test_simulate_trials_matches_manual_seed_tree(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 128, "k": 2, "d": 4}, seed=9
        )
        outcome = simulate_trials(spec, trials=3)
        expected_seeds = SeedTree(9).integer_seeds(3)
        assert [trial.seed for trial in outcome.trials] == expected_seeds
        for trial in outcome.trials:
            reference = run_kd_choice(n_bins=128, k=2, d=4, seed=trial.seed)
            assert trial.metrics["max_load"] == float(reference.max_load)

    def test_simulate_many_shares_one_seed_tree(self):
        specs = [
            SchemeSpec(scheme="kd_choice", params={"n_bins": 128, "k": 2, "d": 4}, trials=2),
            SchemeSpec(scheme="single_choice", params={"n_bins": 128}, trials=3),
        ]
        outcomes = simulate_many(specs, seed=5)
        assert [len(o.trials) for o in outcomes] == [2, 3]
        all_seeds = [t.seed for o in outcomes for t in o.trials]
        assert all_seeds == SeedTree(5).integer_seeds(5)

    def test_simulate_many_is_reproducible(self):
        specs = [
            SchemeSpec(scheme="two_choice", params={"n_bins": 256}, trials=3),
        ]
        a = simulate_many(specs, seed=7)[0].metric_values("max_load")
        b = simulate_many(specs, seed=7)[0].metric_values("max_load")
        assert a == b

    def test_bound_rng_cannot_fan_out(self):
        # A shared generator would falsify the recorded per-trial seeds.
        from repro.api import SchemeSpecError

        spec = SchemeSpec(
            scheme="kd_choice",
            params={"n_bins": 64, "k": 1, "d": 2},
            rng=np.random.default_rng(0),
        )
        with pytest.raises(SchemeSpecError, match="rng"):
            simulate_trials(spec, trials=2)

    def test_trials_override_and_custom_metrics(self):
        spec = SchemeSpec(scheme="single_choice", params={"n_bins": 64}, trials=1)
        outcomes = simulate_many(
            [spec], trials=2, seed=0,
            metrics={"empty": lambda r: float((r.loads == 0).sum())},
        )
        assert len(outcomes[0].trials) == 2
        assert "empty" in outcomes[0].trials[0].metrics
