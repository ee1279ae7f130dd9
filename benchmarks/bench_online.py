"""Streaming allocator benchmarks: chunked ingestion vs the scalar loop.

The acceptance anchor of the online subsystem: at ``n = 10^6`` items
(``BENCH_ONLINE_ITEMS`` scales it down for shared CI runners),
``place_batch`` through the batch kernels must sustain at least
``BENCH_ONLINE_MIN_SPEEDUP`` (default 3x) the throughput of the scalar
``place()`` loop — and both ingestion modes are asserted to produce
bit-identical loads to the hand-written (k, d)-choice loop of
``tests/oracles`` at the same seed, so the speedup is never bought with
drift.

A second check pins streaming-vs-batch parity cheaply for every
scheme family with an online stepper at a smaller size.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from oracles import ORACLES, run_kd_choice
from repro.api import REGISTRY, SchemeSpec, get_scheme, simulate
from repro.online import OnlineAllocator

#: Problem size of the headline throughput comparison.
ITEMS = int(os.environ.get("BENCH_ONLINE_ITEMS", 1_000_000))
MIN_SPEEDUP = float(os.environ.get("BENCH_ONLINE_MIN_SPEEDUP", 3.0))

KD_PARAMS = {"k": 4, "d": 8}


def _spec(n_items: int, engine: str) -> SchemeSpec:
    return SchemeSpec(
        scheme="kd_choice",
        params={"n_bins": n_items, "n_balls": n_items, **KD_PARAMS},
        seed=0,
        engine=engine,
    )


def _time_scalar_place_loop(n_items: int) -> "tuple[float, np.ndarray]":
    allocator = OnlineAllocator(_spec(n_items, "scalar"))
    place = allocator.place
    start = time.perf_counter()
    for _ in range(n_items):
        place()
    return time.perf_counter() - start, allocator.loads


def _time_place_batch(n_items: int, chunk: int) -> "tuple[float, np.ndarray]":
    allocator = OnlineAllocator(_spec(n_items, "auto"))
    start = time.perf_counter()
    remaining = n_items
    while remaining:
        take = min(chunk, remaining)
        allocator.place_batch(take)
        remaining -= take
    return time.perf_counter() - start, allocator.loads


def test_place_batch_speedup_over_scalar_place_loop(benchmark):
    """``place_batch`` must beat the scalar ``place()`` loop >= 3x at n=1e6.

    Both ingestion paths stream the full ``ITEMS`` over the same bin count
    (measuring them at different sizes would skew the comparison — gather
    locality degrades with ``n_bins`` for both), and both are asserted equal
    to the oracle loop first, so the two sides time the same computation.
    """
    batch_reference = run_kd_choice(
        n_bins=ITEMS, n_balls=ITEMS, **KD_PARAMS, seed=0
    )
    scalar_time, scalar_loads = _time_scalar_place_loop(ITEMS)
    assert np.array_equal(scalar_loads, batch_reference.loads)

    stream_time, stream_loads = _time_place_batch(ITEMS, chunk=16_384)
    assert np.array_equal(stream_loads, batch_reference.loads)

    scalar_rate = ITEMS / scalar_time
    stream_rate = ITEMS / stream_time
    speedup = stream_rate / scalar_rate
    benchmark.extra_info["items"] = ITEMS
    benchmark.extra_info["scalar_items_per_sec"] = int(scalar_rate)
    benchmark.extra_info["place_batch_items_per_sec"] = int(stream_rate)
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark(lambda: _time_place_batch(min(ITEMS, 250_000), chunk=16_384))
    assert speedup >= MIN_SPEEDUP, (
        f"place_batch only {speedup:.2f}x the scalar place loop "
        f"({stream_rate:,.0f} vs {scalar_rate:,.0f} items/sec; "
        f"needs >= {MIN_SPEEDUP}x)"
    )


ONLINE_PARITY_CASES = [
    ("kd_choice", {"n_bins": 4096, "k": 4, "d": 8, "n_balls": 8192}),
    ("d_choice", {"n_bins": 4096, "d": 3}),
    ("two_choice", {"n_bins": 4096}),
    ("single_choice", {"n_bins": 4096}),
    ("batch_random", {"n_bins": 4096, "k": 8}),
    ("weighted_kd_choice", {"n_bins": 2048, "k": 4, "d": 8}),
    ("stale_kd_choice", {"n_bins": 2048, "k": 2, "d": 5, "stale_rounds": 8}),
    ("one_plus_beta", {"n_bins": 4096, "beta": 0.5}),
    ("always_go_left", {"n_bins": 4096, "d": 4}),
    ("threshold_adaptive", {"n_bins": 4096}),
    ("two_phase_adaptive", {"n_bins": 4096}),
    ("greedy_kd_choice", {"n_bins": 2048, "k": 2, "d": 5}),
    ("serialized_kd_choice", {"n_bins": 2048, "k": 4, "d": 8}),
    ("hierarchical_always_go_left", {"n_bins": 64, "topology": "quad_rack"}),
    (
        "locality_two_choice",
        {"n_bins": 64, "bias": 0.5, "threshold": 1, "topology": "dual_zone"},
    ),
]


@pytest.mark.parametrize(
    "scheme,params", ONLINE_PARITY_CASES, ids=[c[0] for c in ONLINE_PARITY_CASES]
)
def test_streaming_matches_batch(scheme, params):
    """Every online scheme's stream equals its batch run (loads + stream)."""
    n_items = params.get("n_balls", params["n_bins"])
    a, b = np.random.default_rng(1), np.random.default_rng(1)
    # The oracle loop where the scheme has one (its scalar engine is the
    # stepper being streamed), else the scheme's hand-written runner.
    oracle = ORACLES.get(scheme)
    batch = (
        oracle(**params, rng=a)
        if oracle is not None
        else simulate(SchemeSpec(scheme=scheme, params=params, rng=a, engine="scalar"))
    )
    allocator = OnlineAllocator(SchemeSpec(scheme=scheme, params=params, rng=b))
    allocator.place_batch(n_items)
    assert np.array_equal(allocator.loads, batch.loads)
    assert a.bit_generator.state == b.bit_generator.state


def test_parity_cases_cover_every_online_scheme():
    """The parity list above must not silently lag the registry."""
    covered = {scheme for scheme, _ in ONLINE_PARITY_CASES}
    online = {
        name for name in REGISTRY.names() if get_scheme(name).online is not None
    }
    assert covered == online, (
        f"parity cases out of sync with the registry: "
        f"missing {sorted(online - covered)}, stale {sorted(covered - online)}"
    )
