"""SchemeSpec construction, validation and functional-update tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SchemeSpec, SchemeSpecError, simulate


class TestValidation:
    def test_scheme_must_be_nonempty_string(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme="")
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme=42)  # type: ignore[arg-type]

    def test_params_must_be_a_mapping_with_string_keys(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme="kd_choice", params=[("n_bins", 8)])  # type: ignore[arg-type]
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme="kd_choice", params={1: 8})  # type: ignore[dict-item]

    def test_trials_must_be_positive_integer(self):
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme="kd_choice", trials=0)
        with pytest.raises(SchemeSpecError):
            SchemeSpec(scheme="kd_choice", trials=1.5)  # type: ignore[arg-type]

    def test_engine_must_be_known(self):
        with pytest.raises(SchemeSpecError, match="engine"):
            SchemeSpec(scheme="kd_choice", engine="warp-drive")

    def test_rng_must_be_generator(self):
        with pytest.raises(SchemeSpecError, match="rng"):
            SchemeSpec(scheme="kd_choice", rng="not-an-rng")  # type: ignore[arg-type]

    def test_params_are_frozen_after_construction(self):
        spec = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        with pytest.raises(TypeError):
            spec.params["n_bins"] = 128  # type: ignore[index]


class TestExecutionErrors:
    def test_unknown_parameter_rejected_with_accepted_list(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2, "bogus": 1}
        )
        with pytest.raises(SchemeSpecError, match="bogus"):
            simulate(spec)

    def test_missing_required_parameter_reported(self):
        with pytest.raises(SchemeSpecError, match="n_bins"):
            simulate(SchemeSpec(scheme="kd_choice", params={"k": 1, "d": 2}))

    def test_seed_must_go_through_the_spec_field(self):
        spec = SchemeSpec(scheme="single_choice", params={"n_bins": 64, "seed": 3})
        with pytest.raises(SchemeSpecError, match="seed"):
            simulate(spec)

    def test_policy_on_policyless_scheme_rejected(self):
        spec = SchemeSpec(
            scheme="single_choice", params={"n_bins": 64}, policy="strict"
        )
        with pytest.raises(SchemeSpecError, match="policy"):
            simulate(spec)

    def test_sequential_schemes_accept_forced_vectorized_but_not_auto(self):
        # The kernel-derived batch engines run the sequential schemes too
        # (by driving the per-unit kernel), so a forced engine="vectorized"
        # is honoured; the fast-path guard keeps engine="auto" on the
        # scalar reference because there is no speedup on offer.
        from repro.api.engine import resolve_engine

        for scheme in ("serialized_kd_choice", "greedy_kd_choice"):
            forced = SchemeSpec(
                scheme=scheme,
                params={"n_bins": 64, "k": 2, "d": 4},
                engine="vectorized",
            )
            assert resolve_engine(forced) == "vectorized"
            auto = SchemeSpec(scheme=scheme, params={"n_bins": 64, "k": 2, "d": 4})
            assert resolve_engine(auto) == "scalar"

    def test_vectorized_substrate_guard_rejects_failure_scenarios(self):
        # The storage substrate's fast core only covers all-alive clusters;
        # the guard fires at construction for failure/rebuild scenarios.
        with pytest.raises(SchemeSpecError, match="fail_fraction"):
            SchemeSpec(
                scheme="storage_placement",
                params={"n_servers": 16, "n_files": 32, "fail_fraction": 0.1},
                engine="vectorized",
            )

    def test_vectorized_engine_rejects_greedy_policy_at_construction(self):
        with pytest.raises(SchemeSpecError, match="strict"):
            SchemeSpec(
                scheme="kd_choice",
                params={"n_bins": 64, "k": 2, "d": 4},
                policy="greedy",
                engine="vectorized",
            )

    def test_callable_threshold_is_fastpath_guarded_not_rejected(self):
        # Callable thresholds used to be a hard vectorized rejection; the
        # kernel-derived engine now drives the per-ball stepper for them,
        # so forcing engine="vectorized" works and only auto-selection
        # prefers the scalar reference.
        from repro.api.engine import resolve_engine

        forced = SchemeSpec(
            scheme="threshold_adaptive",
            params={"n_bins": 64, "threshold": lambda average: 2},
            engine="vectorized",
        )
        assert resolve_engine(forced) == "vectorized"
        auto = SchemeSpec(
            scheme="threshold_adaptive",
            params={"n_bins": 64, "threshold": lambda average: 2},
        )
        assert resolve_engine(auto) == "scalar"

    def test_unknown_scheme_with_vectorized_engine_defers_to_execution(self):
        # An unregistered name cannot be validated at construction; the
        # execution path still reports the candidate list.
        spec = SchemeSpec(scheme="not_a_scheme", engine="vectorized")
        with pytest.raises(KeyError, match="available schemes"):
            simulate(spec)


class TestSpecUtilities:
    def test_with_seed_returns_new_spec(self):
        spec = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9 and spec.seed is None
        assert dict(reseeded.params) == dict(spec.params)

    def test_with_params_merges(self):
        spec = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        wider = spec.with_params(d=8)
        assert wider.params["d"] == 8 and spec.params["d"] == 2

    def test_display_label_autogenerates(self):
        spec = SchemeSpec(scheme="single_choice", params={"n_bins": 64})
        assert spec.display_label == "single_choice(n_bins=64)"
        assert SchemeSpec(scheme="x", label="mine").display_label == "mine"

    def test_to_dict_round_trips_plain_data(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2},
            policy="strict", seed=5, trials=3, engine="scalar", label="L",
        )
        assert spec.to_dict() == {
            "scheme": "kd_choice",
            "params": {"n_bins": 64, "k": 1, "d": 2},
            "policy": "strict",
            "seed": 5,
            "trials": 3,
            "engine": "scalar",
            "label": "L",
        }

    def test_from_dict_inverts_to_dict(self):
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2},
            policy="strict", seed=5, trials=3, engine="scalar", label="L",
        )
        restored = SchemeSpec.from_dict(spec.to_dict())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()
        bare = SchemeSpec.from_dict({"scheme": "two_choice", "params": {}})
        assert bare == SchemeSpec(scheme="two_choice")

    def test_explicit_rng_is_used(self):
        rng = np.random.default_rng(0)
        spec = SchemeSpec(
            scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2}, rng=rng
        )
        result = simulate(spec)
        assert result.total_balls_check()

    def test_specs_are_hashable_cache_keys(self):
        a = SchemeSpec(scheme="kd_choice", params={"n_bins": 64, "k": 1, "d": 2})
        b = SchemeSpec(scheme="kd_choice", params={"k": 1, "d": 2, "n_bins": 64})
        c = a.with_params(d=4)
        assert hash(a) == hash(b) and a == b
        assert len({a, b, c}) == 2

    def test_unhashable_param_values_still_hash(self):
        spec = SchemeSpec(
            scheme="weighted_kd_choice",
            params={"n_bins": 64, "k": 1, "d": 2, "weights": [1.0, 2.0]},
        )
        assert isinstance(hash(spec), int)
