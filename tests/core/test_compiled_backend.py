"""Compiled-backend availability, guards and graceful degradation.

The compiled tier's contract has two halves.  On a machine with a C
compiler it must be seed-for-seed identical to the scalar reference (that
is ``test_engine_equivalence.TestCompiledEquivalence``); everywhere else it
must *disappear cleanly*: every capability probe returns a reason string,
``engine="auto"`` silently degrades to the usual vectorized/scalar choice,
and only a *forced* ``engine="compiled"`` raises — with the guard's reason,
never a compiler traceback.  These tests pin the second half by simulating
a pure-python host via ``REPRO_COMPILED_DISABLE`` (honoured fresh on every
call, so monkeypatching works without reloading modules).
"""

from __future__ import annotations

import subprocess

import numpy as np
import pytest

from repro.api import (
    SchemeSpec,
    SchemeSpecError,
    compiled_fastpath_reason,
    compiled_unsupported_reason,
    get_scheme,
    registry_dump,
    simulate,
)
from repro.api.engine import resolve_engine
from repro.core.compiled import (
    CompiledUnavailable,
    backend_unavailable_reason,
    describe_backend,
    load_backend,
)
from repro.online import OnlineAllocator, OnlineAllocatorError

KD_PARAMS = {"n_bins": 64, "k": 2, "d": 4, "n_balls": 200}


class TestDisabledBackend:
    def test_load_backend_raises_with_reason(self, no_backend):
        with pytest.raises(CompiledUnavailable, match="REPRO_COMPILED_DISABLE"):
            load_backend()

    def test_unavailable_reason_is_a_string_not_an_error(self, no_backend):
        reason = backend_unavailable_reason()
        assert isinstance(reason, str) and "REPRO_COMPILED_DISABLE" in reason

    def test_describe_backend_reports_unavailable(self, no_backend):
        info = describe_backend()
        assert info["available"] is False
        assert "REPRO_COMPILED_DISABLE" in info["reason"]

    def test_forced_compiled_raises_cleanly(self, no_backend):
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=0,
                          engine="compiled")
        with pytest.raises(SchemeSpecError, match="compiled backend unavailable"):
            simulate(spec)

    def test_auto_degrades_to_vectorized(self, no_backend):
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=0)
        assert resolve_engine(spec) == "vectorized"
        result = simulate(spec)  # must not raise
        assert result.extra.get("engine") != "compiled"

    def test_online_forced_compiled_raises_cleanly(self, no_backend):
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=0,
                          engine="compiled")
        with pytest.raises(OnlineAllocatorError, match="compiled backend unavailable"):
            OnlineAllocator(spec)

    def test_online_auto_degrades_to_vectorized(self, no_backend):
        allocator = OnlineAllocator(
            SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=0)
        )
        assert allocator.stepper.kernel_mode == "vectorized"
        allocator.place_batch(KD_PARAMS["n_balls"])  # streams fine

    def test_spec_construction_stays_machine_independent(self, no_backend):
        # probe_backend=False at construction: a compiled spec for a covered
        # scheme is structurally valid even where the backend cannot load.
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=0,
                          engine="compiled")
        assert spec.engine == "compiled"

    def test_registry_dump_is_machine_independent(self, no_backend):
        entry = next(
            e for e in registry_dump()["schemes"] if e["name"] == "kd_choice"
        )
        assert entry["compiled"] is True
        assert entry["compiled_unsupported_reason"] is None

    def test_set_kernel_mode_compiled_raises(self, no_backend):
        from repro.core.kernels.kd import KDChoiceStepper

        stepper = KDChoiceStepper(n_bins=16, k=1, d=2, n_balls=16, seed=0)
        with pytest.raises(CompiledUnavailable):
            stepper.set_kernel_mode("compiled")
        assert stepper.kernel_mode == "vectorized"


class TestCapabilityGuards:
    def test_uncovered_scheme_names_available_engines(self):
        info = get_scheme("greedy_kd_choice")
        reason = compiled_unsupported_reason(
            info, None, {"n_bins": 8, "k": 1, "d": 2}, probe_backend=False
        )
        assert "no compiled engine" in reason
        assert "scalar, vectorized" in reason

    def test_nonstrict_policy_rejected(self):
        info = get_scheme("kd_choice")
        reason = compiled_unsupported_reason(
            info, "greedy", KD_PARAMS, probe_backend=False
        )
        assert "strict" in reason

    def test_callable_threshold_is_soft_guarded_only(self):
        # A callable threshold keeps auto off the compiled path (fastpath
        # reason) but stays inside the hard envelope: forcing compiled runs
        # the per-ball drive path, bit-identically.
        info = get_scheme("threshold_adaptive")
        params = {"n_bins": 32, "n_balls": 64,
                  "threshold": lambda average: int(average) + 1}
        assert compiled_unsupported_reason(info, None, params,
                                           probe_backend=False) is None
        assert compiled_fastpath_reason(info, None, params,
                                        probe_backend=False) is not None

    def test_set_kernel_mode_rejects_unknown_mode(self):
        from repro.core.kernels.kd import KDChoiceStepper

        stepper = KDChoiceStepper(n_bins=16, k=1, d=2, n_balls=16, seed=0)
        with pytest.raises(ValueError, match="kernel_mode"):
            stepper.set_kernel_mode("turbo")


class TestBuildCommand:
    def test_build_turns_fp_contraction_off(self, monkeypatch, tmp_path):
        # Fused multiply-adds would round the weighted heights once where
        # NumPy rounds the product first.
        from repro.core.compiled import _backend

        commands = []

        def fake_run(command, **kwargs):
            commands.append(command)
            return subprocess.CompletedProcess(command, 0, "", "")

        monkeypatch.setattr(_backend.subprocess, "run", fake_run)
        _backend._build("cc", _backend._SOURCE, tmp_path / "kernels.so")
        (command,) = commands
        assert command[0] == "cc"
        assert "-ffp-contract=off" in command
        assert (tmp_path / "kernels.so").exists()

    def test_cache_tag_follows_the_compile_command(self, monkeypatch):
        from repro.core.compiled import _backend

        tag = _backend._source_tag("int x;", "cc")
        assert _backend._source_tag("int x;", "cc") == tag
        assert _backend._source_tag("int y;", "cc") != tag
        assert _backend._source_tag("int x;", "clang") != tag
        monkeypatch.setattr(
            _backend,
            "_CFLAGS",
            tuple(f for f in _backend._CFLAGS if f != "-ffp-contract=off"),
        )
        assert _backend._source_tag("int x;", "cc") != tag


@pytest.mark.skipif(
    backend_unavailable_reason() is not None,
    reason=f"compiled backend unavailable: {backend_unavailable_reason()}",
)
class TestAvailableBackend:
    def test_simulate_forced_compiled_matches_scalar(self):
        scalar = simulate(
            SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=3,
                       engine="scalar")
        )
        compiled = simulate(
            SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=3,
                       engine="compiled")
        )
        assert np.array_equal(scalar.loads, compiled.loads)
        assert compiled.extra["engine"] == "compiled"

    def test_auto_selects_compiled_in_simulate_and_online(self):
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=3)
        assert resolve_engine(spec) == "compiled"
        assert OnlineAllocator(spec).stepper.kernel_mode == "compiled"

    @pytest.mark.parametrize("scheme,params", [
        ("kd_choice", {"n_bins": 4000, "k": 700, "d": 1500, "n_balls": 2100}),
        ("kd_choice", {"n_bins": 1600, "k": 1, "d": 1500, "n_balls": 24}),
        ("stale_kd_choice",
         {"n_bins": 3000, "k": 3, "d": 1500, "stale_rounds": 2, "n_balls": 30}),
        ("weighted_kd_choice",
         {"n_bins": 3000, "k": 4, "d": 1500, "n_balls": 40}),
    ])
    def test_forced_compiled_runs_wide_rounds(self, scheme, params):
        # No width limit: the round kernels size their scratch per call.
        SchemeSpec(scheme=scheme, params=params, seed=0, engine="compiled")
        a, b = np.random.default_rng(8), np.random.default_rng(8)
        info = get_scheme(scheme)
        scalar = info.runner(rng=a, **params)
        compiled = info.compiled(rng=b, **params)
        assert np.array_equal(scalar.loads, compiled.loads)
        assert scalar.messages == compiled.messages
        assert a.bit_generator.state == b.bit_generator.state
        assert compiled.extra["engine"] == "compiled"

    def test_auto_preference_scalar_pins_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        spec = SchemeSpec(scheme="kd_choice", params=KD_PARAMS, seed=3)
        assert resolve_engine(spec) == "scalar"

    def test_describe_backend_reports_available(self):
        info = describe_backend()
        assert info["available"] is True
        assert info["compiler"]
        assert "reason" not in info

    def test_disable_toggle_is_honoured_fresh(self, monkeypatch):
        # Availability flips with the env var without any module reload:
        # the cached (ffi, lib) must not shadow the operator escape hatch.
        assert backend_unavailable_reason() is None
        monkeypatch.setenv("REPRO_COMPILED_DISABLE", "1")
        assert backend_unavailable_reason() is not None
        monkeypatch.delenv("REPRO_COMPILED_DISABLE")
        assert backend_unavailable_reason() is None
