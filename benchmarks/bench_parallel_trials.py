"""Wall-clock benchmarks of the trial executor and the on-disk result cache.

The acceptance anchor of the execution layer: a multi-trial ``kd_choice``
batch (``n = 10^5``, 8 trials) must run >= 2x faster with 4 worker processes
than serially — while producing byte-identical per-trial seeds and metrics —
and a warm :class:`~repro.api.ResultStore` must answer the same batch
without executing the scheme at all.

On machines with fewer than 4 CPUs the parallel speedup assertion is
meaningless (there is nothing to fan out onto), so it is skipped and the
measured ratio is only attached to ``benchmark.extra_info``; the
equivalence checks always run.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import ResultStore, SchemeSpec, simulate_trials

#: The acceptance anchor: a Table-1-sized cell, fanned out over 8 trials.
PARALLEL_N = 100_000
PARALLEL_TRIALS = 8
PARALLEL_JOBS = 4

SPEC = SchemeSpec(
    scheme="kd_choice",
    params={"n_bins": PARALLEL_N, "k": 4, "d": 8},
    seed=0,
    engine="scalar",  # the scalar loop is the expensive, representative path
)

_CPUS = os.cpu_count() or 1


def _outcome_fingerprint(outcome):
    return [(trial.seed, sorted(trial.metrics.items())) for trial in outcome.trials]


def test_parallel_trials_speedup(benchmark):
    """4 workers must beat serial >= 2x on the anchor batch (given the CPUs)."""
    serial_start = time.perf_counter()
    serial = simulate_trials(SPEC, trials=PARALLEL_TRIALS, n_jobs=1)
    serial_elapsed = time.perf_counter() - serial_start

    parallel_start = time.perf_counter()
    parallel = benchmark.pedantic(
        simulate_trials,
        kwargs={"spec": SPEC, "trials": PARALLEL_TRIALS, "n_jobs": PARALLEL_JOBS},
        rounds=1,
        iterations=1,
    )
    parallel_elapsed = time.perf_counter() - parallel_start

    # Determinism contract first: parallel must be byte-identical to serial.
    assert _outcome_fingerprint(parallel) == _outcome_fingerprint(serial)

    speedup = serial_elapsed / max(parallel_elapsed, 1e-9)
    benchmark.extra_info["serial_seconds"] = round(serial_elapsed, 3)
    benchmark.extra_info["parallel_seconds"] = round(parallel_elapsed, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["cpus"] = _CPUS
    print(
        f"\nn={PARALLEL_N} trials={PARALLEL_TRIALS}: serial {serial_elapsed:.2f}s, "
        f"{PARALLEL_JOBS} workers {parallel_elapsed:.2f}s ({speedup:.2f}x, "
        f"{_CPUS} CPUs)"
    )
    if _CPUS < PARALLEL_JOBS:
        pytest.skip(
            f"only {_CPUS} CPU(s) available; {PARALLEL_JOBS}-worker speedup "
            f"is not measurable here (measured {speedup:.2f}x)"
        )
    assert speedup >= 2.0, (
        f"expected >= 2x speedup with {PARALLEL_JOBS} workers on {_CPUS} CPUs, "
        f"measured {speedup:.2f}x"
    )


def test_warm_cache_skips_execution(benchmark, tmp_path):
    """A warm ResultStore answers the whole batch from disk, much faster."""
    store = ResultStore(tmp_path)
    cold_start = time.perf_counter()
    cold = simulate_trials(SPEC, trials=PARALLEL_TRIALS, cache=store)
    cold_elapsed = time.perf_counter() - cold_start
    assert store.stats()["misses"] == PARALLEL_TRIALS

    warm_start = time.perf_counter()
    warm = benchmark.pedantic(
        simulate_trials,
        kwargs={"spec": SPEC, "trials": PARALLEL_TRIALS, "cache": store},
        rounds=1,
        iterations=1,
    )
    warm_elapsed = time.perf_counter() - warm_start

    assert store.stats()["hits"] == PARALLEL_TRIALS
    assert _outcome_fingerprint(warm) == _outcome_fingerprint(cold)
    speedup = cold_elapsed / max(warm_elapsed, 1e-9)
    benchmark.extra_info["cold_seconds"] = round(cold_elapsed, 3)
    benchmark.extra_info["warm_seconds"] = round(warm_elapsed, 3)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    print(
        f"\ncold {cold_elapsed:.2f}s, warm {warm_elapsed:.3f}s "
        f"({speedup:.0f}x from cache)"
    )
    # Reading 8 JSON entries must beat 8 full simulations by a wide margin.
    assert speedup >= 10.0


def test_parallel_and_cache_compose(tmp_path):
    """n_jobs and cache together: misses computed in parallel, then all hits."""
    store = ResultStore(tmp_path)
    first = simulate_trials(SPEC, trials=PARALLEL_TRIALS, n_jobs=2, cache=store)
    second = simulate_trials(SPEC, trials=PARALLEL_TRIALS, n_jobs=2, cache=store)
    assert store.stats() == {
        "hits": PARALLEL_TRIALS,
        "misses": PARALLEL_TRIALS,
        "stores": PARALLEL_TRIALS,
        "pruned": 0,
    }
    assert _outcome_fingerprint(first) == _outcome_fingerprint(second)
