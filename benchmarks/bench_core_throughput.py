"""Micro-benchmarks of the core allocation loop.

These are conventional timing benchmarks (multiple rounds) rather than
experiment reproductions: they track the throughput of the (k, d)-choice
inner loop and the vectorized single-choice baseline so performance
regressions in the substrate are visible.

The ``TestFamilySpeedups`` class asserts the vectorized-engine contract for
the newly covered scheme families (weighted, stale, dynamic churn, the
adaptive comparators and the topology schemes must each run >= 3x faster
than their scalar reference), and ``test_streaming_mode_memory_and_throughput`` pins the
chunked/streaming memory bound that makes n >= 10^7 runs practical.

The scalar references timed here are the hand-written loops of
``tests/oracles`` (and churn's and single choice's runners), so every
floor keeps the denominator it was set against; the registry's scalar
engine, the stepper's ``step()`` loop, is slower for most schemes and
would loosen the floors.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from oracles import (
    run_always_go_left,
    run_hierarchical_go_left,
    run_kd_choice,
    run_locality_two_choice,
    run_one_plus_beta,
    run_stale_kd_choice,
    run_threshold_adaptive,
    run_two_phase_adaptive,
    run_weighted_kd_choice,
)
from repro.api import get_scheme
from repro.core.baselines import run_single_choice
from repro.core.compiled import backend_unavailable_reason
from repro.core.dynamic import run_churn_kd_choice

MICRO_N = 1 << 14

#: Problem size of the scalar-vs-vectorized engine comparison.
ENGINE_N = 100_000


def _vectorized(scheme):
    """The scheme's vectorized engine, as the registry serves it."""
    return get_scheme(scheme).vectorized


def _best_of(callable_, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_speedup(
    scalar,
    vectorized,
    minimum: float,
    repeats: int = 3,
    attempts: int = 3,
) -> "tuple[float, float, float]":
    """Best-of-N timing on both sides with whole-measurement retries.

    A transient CPU-contention spike (e.g. a busy CI runner) cannot fail the
    comparison: the minimum over repeats approximates the uncontended time,
    and the measurement restarts when the target is missed.
    """
    speedup, scalar_time, vectorized_time = 0.0, float("inf"), float("inf")
    for _attempt in range(attempts):
        scalar_time = _best_of(scalar, repeats)
        vectorized_time = _best_of(vectorized, repeats)
        speedup = scalar_time / vectorized_time
        if speedup >= minimum:
            break
    return speedup, scalar_time, vectorized_time


@pytest.mark.parametrize("k,d", [(1, 2), (4, 8), (16, 17), (64, 128)])
def test_throughput_kd_choice(benchmark, k, d):
    result = benchmark(run_kd_choice, n_bins=MICRO_N, k=k, d=d, seed=0)
    assert result.total_balls_check()
    benchmark.extra_info["balls_placed"] = MICRO_N
    benchmark.extra_info["max_load"] = result.max_load


def test_throughput_single_choice_vectorized(benchmark):
    result = benchmark(run_single_choice, MICRO_N, seed=0)
    assert result.total_balls_check()
    benchmark.extra_info["balls_placed"] = MICRO_N


def test_throughput_heavy_load(benchmark):
    result = benchmark(
        run_kd_choice, n_bins=MICRO_N // 4, k=4, d=8, n_balls=MICRO_N, seed=0
    )
    assert int(result.loads.sum()) == MICRO_N
    benchmark.extra_info["balls_placed"] = MICRO_N


@pytest.mark.parametrize("k,d", [(1, 2), (4, 8), (16, 17)])
def test_throughput_kd_choice_vectorized(benchmark, k, d):
    result = benchmark(_vectorized("kd_choice"), n_bins=MICRO_N, k=k, d=d, seed=0)
    assert result.total_balls_check()
    benchmark.extra_info["balls_placed"] = MICRO_N
    benchmark.extra_info["max_load"] = result.max_load


def test_vectorized_speedup_over_scalar(benchmark):
    """The vectorized engine must beat the scalar loop >= 3x on the hot case.

    ``n = 10^5, k = 4, d = 8`` is the acceptance anchor: both engines run the
    identical workload (and are checked to produce identical loads), and the
    measured speedup is attached to ``benchmark.extra_info``.
    """
    k, d, seed = 4, 8, 0
    speedup, scalar_time, vectorized_time = _measure_speedup(
        lambda: run_kd_choice(n_bins=ENGINE_N, k=k, d=d, seed=seed),
        lambda: _vectorized("kd_choice")(n_bins=ENGINE_N, k=k, d=d, seed=seed),
        minimum=3.0,
        repeats=5,
    )

    scalar_result = run_kd_choice(n_bins=ENGINE_N, k=k, d=d, seed=seed)
    vectorized_result = benchmark(
        _vectorized("kd_choice"), n_bins=ENGINE_N, k=k, d=d, seed=seed
    )
    assert (scalar_result.loads == vectorized_result.loads).all()
    benchmark.extra_info["scalar_seconds"] = round(scalar_time, 4)
    benchmark.extra_info["vectorized_seconds"] = round(vectorized_time, 4)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    assert speedup >= 3.0, (
        f"vectorized engine only {speedup:.2f}x faster than scalar "
        f"(scalar {scalar_time:.3f}s, vectorized {vectorized_time:.3f}s)"
    )


class TestFamilySpeedups:
    """Per-family acceptance: every newly covered family must hold >= 3x.

    The (1+beta)-choice and Always-Go-Left baselines are covered for
    *equivalence* (and are asserted never to regress below scalar parity /
    a softer floor): their scalar loops are only a handful of Python
    operations per ball, so the batch engine's margin is structurally
    smaller there.
    """

    def _assert_family(self, benchmark, name, scalar, vectorized, minimum):
        speedup, scalar_time, vectorized_time = _measure_speedup(
            scalar, vectorized, minimum=minimum
        )
        benchmark.extra_info["scalar_seconds"] = round(scalar_time, 4)
        benchmark.extra_info["vectorized_seconds"] = round(vectorized_time, 4)
        benchmark.extra_info["speedup"] = round(speedup, 2)
        benchmark(vectorized)
        assert speedup >= minimum, (
            f"{name}: vectorized only {speedup:.2f}x faster than scalar "
            f"(needs >= {minimum}x; scalar {scalar_time:.3f}s, "
            f"vectorized {vectorized_time:.3f}s)"
        )

    def test_weighted_family_speedup(self, benchmark):
        self._assert_family(
            benchmark,
            "weighted_kd_choice",
            lambda: run_weighted_kd_choice(ENGINE_N, 4, 8, weights="exponential", seed=0),
            lambda: _vectorized("weighted_kd_choice")(
                n_bins=ENGINE_N, k=4, d=8, weights="exponential", seed=0
            ),
            minimum=3.0,
        )

    def test_stale_family_speedup(self, benchmark):
        self._assert_family(
            benchmark,
            "stale_kd_choice",
            lambda: run_stale_kd_choice(ENGINE_N, 4, 8, stale_rounds=8, seed=0),
            lambda: _vectorized("stale_kd_choice")(
                n_bins=ENGINE_N, k=4, d=8, stale_rounds=8, seed=0
            ),
            minimum=3.0,
        )

    def test_stale_compiled_over_vectorized(self, benchmark):
        # Compiled mode runs whole stale epochs in one C call; the per-epoch
        # draws it keeps (the scalar stream order) bound the ratio.
        reason = backend_unavailable_reason()
        if reason is not None:
            pytest.skip(f"compiled backend unavailable: {reason}")
        info = get_scheme("stale_kd_choice")
        params = dict(n_bins=ENGINE_N, k=4, d=8, stale_rounds=8, seed=0)
        speedup, vectorized_time, compiled_time = _measure_speedup(
            lambda: info.vectorized(**params),
            lambda: info.compiled(**params),
            minimum=2.0,
        )
        benchmark.extra_info["vectorized_seconds"] = round(vectorized_time, 4)
        benchmark.extra_info["compiled_seconds"] = round(compiled_time, 4)
        benchmark.extra_info["speedup"] = round(speedup, 2)
        result = benchmark(info.compiled, **params)
        assert np.array_equal(result.loads, info.vectorized(**params).loads)
        assert speedup >= 2.0, (
            f"stale_kd_choice: compiled only {speedup:.2f}x faster than "
            f"vectorized (needs >= 2.0x; vectorized {vectorized_time:.3f}s, "
            f"compiled {compiled_time:.3f}s)"
        )

    def test_churn_family_speedup(self, benchmark):
        self._assert_family(
            benchmark,
            "churn_kd_choice",
            lambda: run_churn_kd_choice(4096, 4, 8, rounds=256, seed=0),
            lambda: _vectorized("churn_kd_choice")(
                n_bins=4096, k=4, d=8, rounds=256, seed=0
            ),
            minimum=3.0,
        )

    def test_adaptive_family_speedup(self, benchmark):
        self._assert_family(
            benchmark,
            "threshold_adaptive",
            lambda: run_threshold_adaptive(2 * ENGINE_N, seed=0),
            lambda: _vectorized("threshold_adaptive")(n_bins=2 * ENGINE_N, seed=0),
            minimum=3.0,
        )

    @pytest.mark.parametrize(
        "scheme,scalar,params",
        [
            (
                "locality_two_choice",
                run_locality_two_choice,
                {"topology": "dual_zone", "bias": 0.5, "threshold": 1},
            ),
            ("hierarchical_always_go_left", run_hierarchical_go_left, {"d": 4}),
        ],
    )
    def test_topology_family_speedup(self, benchmark, scheme, scalar, params):
        self._assert_family(
            benchmark,
            scheme,
            lambda: scalar(n_bins=ENGINE_N, seed=0, **params),
            lambda: _vectorized(scheme)(n_bins=ENGINE_N, seed=0, **params),
            minimum=3.0,
        )

    def test_two_phase_adaptive_never_regresses(self, benchmark):
        self._assert_family(
            benchmark,
            "two_phase_adaptive",
            lambda: run_two_phase_adaptive(ENGINE_N, seed=0),
            lambda: _vectorized("two_phase_adaptive")(n_bins=ENGINE_N, seed=0),
            minimum=1.5,
        )

    def test_always_go_left_never_regresses(self, benchmark):
        self._assert_family(
            benchmark,
            "always_go_left",
            lambda: run_always_go_left(ENGINE_N, d=4, seed=0),
            lambda: _vectorized("always_go_left")(n_bins=ENGINE_N, d=4, seed=0),
            minimum=1.5,
        )

    def test_one_plus_beta_never_regresses(self, benchmark):
        # The scalar loop here is near-optimal Python (one comparison per
        # ball); parity is the bar, the equivalence is the feature.
        self._assert_family(
            benchmark,
            "one_plus_beta",
            lambda: run_one_plus_beta(ENGINE_N, beta=0.5, seed=0),
            lambda: _vectorized("one_plus_beta")(n_bins=ENGINE_N, beta=0.5, seed=0),
            minimum=0.7,
        )


def test_streaming_mode_memory_and_throughput(benchmark):
    """Chunked streaming keeps peak buffer memory at O(chunk * d + n_bins).

    A 2*10^6-ball run must stay within a small multiple of the load vector's
    own footprint (the 4096-round sample chunks are ~256 KiB each), which is
    what makes n >= 10^7 runs practical; the realized throughput is attached
    to ``benchmark.extra_info``.
    """
    n, k, d, chunk_rounds = 2_000_000, 4, 8, 4096

    tracemalloc.start()
    start = time.perf_counter()
    result = _vectorized("kd_choice")(
        n_bins=n, k=k, d=d, seed=0, chunk_rounds=chunk_rounds
    )
    elapsed = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert result.total_balls_check()
    loads_bytes = result.loads.nbytes
    chunk_bytes = chunk_rounds * d * 8 * 2  # samples (int64) + tie-breaks (float64)
    budget = 3 * loads_bytes + 16 * chunk_bytes + (32 << 20)
    benchmark.extra_info["balls"] = n
    benchmark.extra_info["peak_mib"] = round(peak_bytes / (1 << 20), 1)
    benchmark.extra_info["budget_mib"] = round(budget / (1 << 20), 1)
    benchmark.extra_info["balls_per_second"] = int(n / elapsed)
    assert peak_bytes <= budget, (
        f"streaming run peaked at {peak_bytes / (1 << 20):.1f} MiB, "
        f"budget {budget / (1 << 20):.1f} MiB"
    )

    benchmark(
        _vectorized("kd_choice"),
        n_bins=n // 4,
        k=k,
        d=d,
        seed=0,
        chunk_rounds=chunk_rounds,
    )
