"""Complexity guard: no kernel pays O(n_bins) per epoch, round or call.

Each kernel-backed scheme places a fixed number of balls (churn runs a fixed
number of rounds) into ``n`` and ``8 n`` bins, on the vectorized engine and
on the compiled engine where it builds.  A kernel whose work is linear in
the balls takes about the same time at both sizes (a little more once the
larger table leaves the caches); a cost of O(n_bins) per epoch, round or
call grows with the table, towards 8x.  The time ratio must stay within
:data:`BOUND`.

The streaming cases time a fixed number of ``place_batch(16)`` calls at a
small and a large ``n_bins`` the same way, with the allocator's periodic
telemetry sample (O(n_bins) percentiles every ``sample_every`` events, a
cost of the monitoring, not of the block paths) switched off.

Slow-marked (about a minute): run with ``pytest -m slow``.
"""

from __future__ import annotations

import time

import pytest

from repro.api import SchemeSpec, simulate
from repro.core.compiled import backend_unavailable_reason
from repro.core.kernels.table import KERNELS
from repro.online import LoadTelemetry, OnlineAllocator

pytestmark = pytest.mark.slow

#: Table sizes of the kernel cases, and the balls placed at both.
SMALL_N = 1 << 16
SCALE = 8
N_BALLS = 1 << 17
BOUND = 4.0

#: Parameters besides ``n_bins`` (and churn's ``rounds``) per scheme.
PARAMS = {
    "kd_choice": {"k": 4, "d": 8},
    "serialized_kd_choice": {"k": 4, "d": 8},
    "weighted_kd_choice": {"k": 4, "d": 8},
    "stale_kd_choice": {"k": 4, "d": 8, "stale_rounds": 8},
    "greedy_kd_choice": {"k": 4, "d": 8},
    "churn_kd_choice": {"k": 4, "d": 8},
    "single_choice": {},
    "d_choice": {"d": 3},
    "two_choice": {},
    "one_plus_beta": {"beta": 0.5},
    "always_go_left": {"d": 4},
    "batch_random": {"k": 4},
    "threshold_adaptive": {},
    "two_phase_adaptive": {},
    "hierarchical_always_go_left": {"topology": "quad_rack"},
    "locality_two_choice": {"bias": 0.5, "threshold": 1, "topology": "dual_zone"},
}

_COMPILED_REASON = backend_unavailable_reason()
CASES = [(scheme, "vectorized") for scheme in KERNELS] + [
    (scheme, "compiled") for scheme, kernel in KERNELS.items() if kernel.compiled
]


def _params(scheme, n_bins):
    params = dict(PARAMS[scheme], n_bins=n_bins)
    if scheme == "churn_kd_choice":
        params["rounds"] = N_BALLS // params["k"]
    else:
        params["n_balls"] = N_BALLS
    return params


def _best(run, repeats=2, budget=0.3):
    """Best CPU time over at least ``repeats`` runs, repeating short runs
    until ``budget`` seconds are spent (CPU time ignores time stolen from
    this process by other work on the machine)."""
    times = []
    while len(times) < repeats or (sum(times) < budget and len(times) < 100):
        started = time.process_time()
        run()
        times.append(time.process_time() - started)
    return min(times)


def test_params_cover_every_kernel():
    assert sorted(PARAMS) == sorted(KERNELS)


@pytest.mark.parametrize("scheme,engine", CASES, ids=[f"{s}-{e}" for s, e in CASES])
def test_kernel_cost_does_not_grow_with_bins(scheme, engine):
    if engine == "compiled" and _COMPILED_REASON is not None:
        pytest.skip(f"compiled backend unavailable: {_COMPILED_REASON}")

    def run(n_bins):
        spec = SchemeSpec(scheme=scheme, params=_params(scheme, n_bins), seed=1, engine=engine)
        return lambda: simulate(spec)

    small = _best(run(SMALL_N))
    large = _best(run(SCALE * SMALL_N))
    assert large / small <= BOUND, (
        f"{scheme} on {engine}: {N_BALLS} balls into {SCALE * SMALL_N} bins "
        f"took {large / small:.1f}x their time into {SMALL_N}"
    )


#: (scheme, params) streamed through ``place_batch(16)``; k == d rounds and
#: single choice ride the degenerate block paths.
STREAMS = [
    ("kd_choice", {"k": 4, "d": 4}),
    ("kd_choice", {"k": 4, "d": 8}),
    ("stale_kd_choice", {"k": 4, "d": 8, "stale_rounds": 8}),
    ("single_choice", {}),
    ("batch_random", {"k": 4}),
]
SMALL_BINS = 1 << 12
LARGE_BINS = 1 << 20
CALLS = 1000


@pytest.mark.parametrize(
    "scheme,params", STREAMS, ids=[f"{s}-{'-'.join(map(str, p.values()))}" for s, p in STREAMS]
)
def test_streaming_place_batch_cost_does_not_grow_with_bins(scheme, params):
    def run(n_bins):
        allocator = OnlineAllocator(
            SchemeSpec(
                scheme=scheme,
                params=dict(params, n_bins=n_bins, n_balls=16 * (CALLS + 1)),
                seed=2,
            ),
            telemetry=LoadTelemetry(sample_every=1 << 40),
        )
        allocator.place_batch(16)  # one-time setup (buffers, scratch) is not per call

        def calls():
            for _ in range(CALLS):
                allocator.place_batch(16)

        return calls

    small = _best(run(SMALL_BINS), repeats=1, budget=0)
    large = _best(run(LARGE_BINS), repeats=1, budget=0)
    assert large / small <= BOUND, (
        f"{scheme} {params}: place_batch(16) at {LARGE_BINS} bins took "
        f"{large / small:.1f}x its time at {SMALL_BINS}"
    )
