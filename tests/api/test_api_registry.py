"""Registry round-trip tests: every registered scheme runs through the API."""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import (
    REGISTRY,
    SchemeRegistry,
    SchemeSpec,
    available_schemes,
    describe_scheme,
    get_scheme,
    simulate,
)
from repro.api.registry import (
    compiled_fastpath_reason,
    compiled_unsupported_reason,
    online_unsupported_reason,
    vectorized_fastpath_reason,
    vectorized_unsupported_reason,
)
from repro.core.types import AllocationResult

#: Minimal valid parameters for every registered scheme (tiny instances so
#: the full registry round-trip stays fast).
MINIMAL_PARAMS = {
    "kd_choice": {"n_bins": 128, "k": 2, "d": 4},
    "greedy_kd_choice": {"n_bins": 128, "k": 2, "d": 4},
    "serialized_kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "weighted_kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "stale_kd_choice": {"n_bins": 64, "k": 2, "d": 4, "stale_rounds": 4},
    "churn_kd_choice": {"n_bins": 32, "k": 2, "d": 4, "rounds": 64},
    "single_choice": {"n_bins": 128},
    "two_choice": {"n_bins": 128},
    "d_choice": {"n_bins": 128, "d": 3},
    "one_plus_beta": {"n_bins": 128, "beta": 0.5},
    "always_go_left": {"n_bins": 128, "d": 2},
    "batch_random": {"n_bins": 128, "k": 4},
    "threshold_adaptive": {"n_bins": 128},
    "two_phase_adaptive": {"n_bins": 128},
    "hierarchical_always_go_left": {"n_bins": 128, "topology": "quad_rack"},
    "locality_two_choice": {
        "n_bins": 128, "bias": 0.5, "threshold": 1, "topology": "dual_zone",
    },
    "cluster_scheduling": {"n_workers": 8, "n_jobs": 20},
    "storage_placement": {"n_servers": 16, "n_files": 50},
}


class TestCatalogue:
    def test_every_historical_entry_point_is_covered(self):
        # The twelve former run_* process entry points all map to schemes.
        names = set(available_schemes())
        assert {
            "kd_choice", "serialized_kd_choice", "single_choice", "d_choice",
            "one_plus_beta", "always_go_left", "batch_random",
            "threshold_adaptive", "two_phase_adaptive", "weighted_kd_choice",
            "stale_kd_choice", "churn_kd_choice",
        } <= names
        assert len(names) >= 14

    def test_minimal_params_cover_the_whole_registry(self):
        assert set(MINIMAL_PARAMS) == set(available_schemes())

    def test_aliases_resolve_to_canonical_scheme(self):
        assert get_scheme("kd").name == "kd_choice"
        assert get_scheme("greedy_d").name == "d_choice"

    def test_unknown_scheme_raises_with_candidates(self):
        with pytest.raises(KeyError, match="kd_choice"):
            get_scheme("definitely_not_a_scheme")

    def test_describe_scheme_reports_parameters_and_engines(self):
        description = describe_scheme("kd_choice")
        assert description["parameters"]["n_bins"] == "<required>"
        assert description["parameters"]["policy"] == "strict"
        assert description["engines"] == ["scalar", "vectorized", "compiled"]
        assert describe_scheme("single_choice")["engines"] == ["scalar", "vectorized"]
        assert describe_scheme("serialized_kd_choice")["engines"] == [
            "scalar", "vectorized",
        ]
        assert describe_scheme("two_choice")["engines"] == [
            "scalar", "vectorized", "compiled",
        ]
        assert describe_scheme("serialized_kd_choice")["kernel_derived"] is True
        assert describe_scheme("cluster_scheduling")["kernel_derived"] is False
        assert describe_scheme("cluster_scheduling")["engines"] == [
            "scalar", "vectorized",
        ]
        assert "mean_response" in describe_scheme("cluster_scheduling")["metrics"]
        assert describe_scheme("kd_choice")["metrics"] is None

    def test_duplicate_registration_rejected(self):
        registry = SchemeRegistry()

        @registry.register("thing")
        def _runner(n_bins):  # pragma: no cover - never executed
            return None

        with pytest.raises(ValueError, match="already registered"):
            registry.register("thing")(lambda n_bins: None)

    @pytest.mark.parametrize(
        "aliases",
        [("y", "x"), ("y", "b"), ("y", "y"), ("y", "a")],
        ids=["taken-alias", "own-name", "repeated", "taken-name"],
    )
    def test_rejected_registration_leaves_registry_unchanged(self, aliases):
        registry = SchemeRegistry()
        registry.register("a", aliases=("x",))(lambda n_bins: None)

        with pytest.raises(ValueError, match="already registered"):
            registry.register("b", aliases=aliases)(lambda n_bins: None)
        assert "b" not in registry and "y" not in registry
        assert registry.names() == ["a"]
        registry.register("b", aliases=("y",))(lambda n_bins: None)
        assert registry.get("y").name == "b"

    def test_kernel_less_entry_is_scalar_only(self):
        registry = SchemeRegistry()

        @registry.register("plain")
        def _runner(n_bins, policy="strict"):  # pragma: no cover - never run
            return None

        info = registry.get("plain")
        assert info.kernel is None
        assert info.vectorized is None
        assert info.compiled is None
        assert info.online is None
        description = info.describe()
        assert description["engines"] == ["scalar"]
        assert description["online"] is False
        assert description["kernel_derived"] is False
        params = {"n_bins": 8}
        assert vectorized_unsupported_reason(info, None, params) == (
            "scheme 'plain' has no vectorized engine; available engines: scalar"
        )
        assert vectorized_fastpath_reason(info, None, params) == (
            vectorized_unsupported_reason(info, None, params)
        )
        assert compiled_unsupported_reason(info, None, params) == (
            "scheme 'plain' has no compiled engine; available engines: scalar"
        )
        assert compiled_fastpath_reason(info, None, params) == (
            compiled_unsupported_reason(info, None, params)
        )
        assert online_unsupported_reason(info, None, params).startswith(
            "scheme 'plain' has no online allocator;"
        )

    def test_replace_swaps_engines_into_a_kernel_copy(self):
        # Instrumentation (the traced sim_grid benchmark) wraps a scheme's
        # engines with dataclasses.replace; the shared record stays intact.
        info = get_scheme("kd_choice")
        kernel = info.kernel
        engines = dict(kernel.engines)
        assert dataclasses.replace(info, runner=print).kernel is kernel

        def timed(**kwargs):
            return info.compiled(**kwargs)

        swapped = dataclasses.replace(info, runner=print, compiled=timed)
        assert swapped.compiled is timed
        assert swapped.vectorized is info.vectorized
        assert swapped.online is info.online
        assert swapped.kernel is not kernel and swapped.kernel.name == kernel.name
        assert info.kernel is kernel and kernel.engines == engines

    def test_registry_summary_defaults_to_docstring(self):
        registry = SchemeRegistry()

        @registry.register("documented")
        def _runner(n_bins):
            """One-line summary here."""

        assert registry.get("documented").summary == "One-line summary here."


class TestRoundTrip:
    @pytest.mark.parametrize("scheme", sorted(MINIMAL_PARAMS))
    def test_every_scheme_runs_and_conserves_balls(self, scheme):
        spec = SchemeSpec(scheme=scheme, params=MINIMAL_PARAMS[scheme], seed=11)
        result = simulate(spec)
        assert isinstance(result, AllocationResult)
        assert result.loads.shape[0] == result.n_bins
        assert int(result.loads.sum()) == result.n_balls
        assert result.max_load >= 1

    @pytest.mark.parametrize("scheme", sorted(MINIMAL_PARAMS))
    def test_every_scheme_is_reproducible_from_its_seed(self, scheme):
        spec = SchemeSpec(scheme=scheme, params=MINIMAL_PARAMS[scheme], seed=23)
        first = simulate(spec)
        second = simulate(spec)
        assert (first.loads == second.loads).all()

    def test_registry_is_the_global_singleton(self):
        assert get_scheme("kd_choice") is REGISTRY.get("kd_choice")
