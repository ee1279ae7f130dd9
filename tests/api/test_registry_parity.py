"""Registry/kernel parity: the lint that keeps one source of truth.

Every ball-stream scheme's engine surfaces are derived from its single
kernel registration in ``repro.core.kernels.table``; these tests run the
parity lint (``repro.api.lint.lint_registry``, exposed as ``repro schemes
--check``) against the real registry and poke its failure modes against
synthetic drift.
"""

import numpy as np
import pytest

from repro.api import get_scheme, lint_registry
from repro.api.lint import _kernel_surface_violations
from repro.core.kernels import EXEMPT_SCHEMES, KERNELS


class TestRealRegistryIsClean:
    def test_lint_registry_reports_no_violations(self):
        assert lint_registry() == []

    def test_every_non_exempt_scheme_is_kernel_backed(self):
        from repro.api import available_schemes

        for name in available_schemes():
            info = get_scheme(name)
            if name in EXEMPT_SCHEMES:
                assert name not in KERNELS
                assert info.describe()["kernel_derived"] is False
            else:
                assert info.kernel is KERNELS[name]
                assert info.describe()["kernel_derived"] is True

    def test_registry_surfaces_are_the_kernel_objects(self):
        # The registry holds the record itself; its engine surfaces are
        # read from it, so identity of the record is identity of them all.
        for name, kernel in KERNELS.items():
            assert get_scheme(name).kernel is kernel


class TestLintCatchesDrift:
    def test_non_exempt_kernel_free_scheme_is_a_violation(self, monkeypatch):
        from repro.api.registry import REGISTRY

        info = REGISTRY.get("kd_choice")
        monkeypatch.setitem(
            REGISTRY._schemes, "kd_choice", _replace(info, kernel=None)
        )
        problems = _kernel_surface_violations()
        assert any("kd_choice" in p and "kernel-backed" in p for p in problems)

    def test_copied_kernel_record_is_a_violation(self, monkeypatch):
        # An equal record is not the table's record: a copy could drift.
        from repro.api.registry import REGISTRY

        info = REGISTRY.get("two_choice")
        copy = _replace(KERNELS["two_choice"])
        assert copy == KERNELS["two_choice"]
        monkeypatch.setitem(
            REGISTRY._schemes, "two_choice", _replace(info, kernel=copy)
        )
        problems = _kernel_surface_violations()
        assert any("two_choice" in p and "kernel-backed" in p for p in problems)

    def test_topology_scheme_without_its_record_is_a_violation(self, monkeypatch):
        from repro.api.lint import _topology_registry_violations
        from repro.api.registry import REGISTRY

        info = REGISTRY.get("locality_two_choice")
        monkeypatch.setitem(
            REGISTRY._schemes, "locality_two_choice", _replace(info, kernel=None)
        )
        problems = _topology_registry_violations()
        assert any("locality_two_choice" in p for p in problems)


def _replace(info, **overrides):
    from dataclasses import replace

    return replace(info, **overrides)


class TestForcedVectorizedMatchesScalarForSequentialSchemes:
    """The capability the kernel contract unlocked, end to end."""

    @pytest.mark.parametrize(
        "scheme,params",
        [
            ("serialized_kd_choice", {"n_bins": 48, "n_balls": 96, "k": 2, "d": 4}),
            ("greedy_kd_choice", {"n_bins": 48, "n_balls": 96, "k": 3, "d": 5}),
            ("threshold_adaptive", {"n_bins": 48, "n_balls": 96}),
        ],
    )
    def test_derived_engine_matches_scalar(self, scheme, params):
        from repro.api import SchemeSpec, simulate

        scalar = simulate(
            SchemeSpec(scheme=scheme, params=params, seed=29, engine="scalar")
        )
        forced = simulate(
            SchemeSpec(scheme=scheme, params=params, seed=29, engine="vectorized")
        )
        assert np.array_equal(scalar.loads, forced.loads)
        assert scalar.messages == forced.messages
        assert scalar.rounds == forced.rounds
