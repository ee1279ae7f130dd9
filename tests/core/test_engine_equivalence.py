"""Property-based scalar-vs-vectorized equivalence harness.

The contract locked down here is the one the vectorized engines advertise:
for every covered scheme family, a fixed seed produces **bit-for-bit** the
same final load vector as the scalar reference — the hand-written oracle
loops of ``tests/oracles`` (the scalar engine itself is checked against
them in ``test_scalar_oracles.py``) — and both consume the underlying random
stream identically (so results stay equivalent under any composition —
trial fan-out, caching, parallel executors).

Two layers of coverage:

* Hypothesis (a dev dependency) explores the parameter space adaptively —
  tiny bin counts maximize batch conflicts, ``k == d`` hits the degenerate
  shortcuts, ``n_balls % k != 0`` exercises the partial tail rounds.
* A deterministic randomized-seed parametrization (no Hypothesis required)
  derives ~a dozen cases per family from a pinned master seed, so the suite
  keeps its coverage even where Hypothesis is unavailable.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import (
    run_always_go_left,
    run_d_choice,
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
from repro.core.dynamic import run_churn_kd_choice
from repro.core.kernels.churn import run_churn_kd_choice_vectorized
from repro.core.kernels.kd import speculation_window
from repro.core.serialization import run_serialized_kd_choice

try:  # optional: the randomized parametrization below covers its absence
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the dep
    HAVE_HYPOTHESIS = False

MASTER_SEED = 20260728


def _vectorized(scheme):
    """The scheme's registered vectorized engine."""
    return get_scheme(scheme).vectorized


def _paired_rngs(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def _assert_equivalent(scalar_result, vector_result, scalar_rng, vector_rng):
    """Loads, accounting and RNG stream consumption must all coincide."""
    scalar_loads = getattr(scalar_result, "loads", None)
    if scalar_loads is None:  # ChurnResult
        scalar_loads = scalar_result.final_loads
        vector_loads = vector_result.final_loads
    else:
        vector_loads = vector_result.loads
    assert np.array_equal(scalar_loads, vector_loads)
    assert scalar_result.messages == vector_result.messages
    assert scalar_result.rounds == vector_result.rounds
    assert (
        scalar_rng.bit_generator.state == vector_rng.bit_generator.state
    ), "engines consumed the random stream differently"


# ----------------------------------------------------------------------
# One checker per covered family.  Each takes plain ints/floats so it can be
# driven by Hypothesis and by the randomized parametrization alike.
# ----------------------------------------------------------------------
def check_kd_choice(n_bins, k, d, n_balls, seed):
    a, b = _paired_rngs(seed)
    scalar = run_kd_choice(n_bins=n_bins, k=k, d=d, n_balls=n_balls, rng=a)
    vector = _vectorized("kd_choice")(n_bins=n_bins, k=k, d=d, n_balls=n_balls, rng=b)
    _assert_equivalent(scalar, vector, a, b)


def check_kd_choice_streaming(n_bins, k, d, n_balls, seed, chunk_rounds):
    a, b = _paired_rngs(seed)
    scalar = run_kd_choice(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, rng=a, chunk_rounds=chunk_rounds
    )
    vector = _vectorized("kd_choice")(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, rng=b, chunk_rounds=chunk_rounds
    )
    _assert_equivalent(scalar, vector, a, b)


def check_weighted(n_bins, k, d, n_balls, seed, weights):
    a, b = _paired_rngs(seed)
    scalar = run_weighted_kd_choice(
        n_bins=n_bins, k=k, d=d, weights=weights, n_balls=n_balls, rng=a
    )
    vector = _vectorized("weighted_kd_choice")(
        n_bins=n_bins, k=k, d=d, weights=weights, n_balls=n_balls, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert np.array_equal(
        scalar.extra["weighted_loads"], vector.extra["weighted_loads"]
    ), "weighted (float) loads must match bit for bit"
    assert scalar.extra["total_weight"] == vector.extra["total_weight"]


def check_stale(n_bins, k, d, n_balls, seed, stale_rounds):
    a, b = _paired_rngs(seed)
    scalar = run_stale_kd_choice(
        n_bins=n_bins, k=k, d=d, stale_rounds=stale_rounds, n_balls=n_balls, rng=a
    )
    vector = _vectorized("stale_kd_choice")(
        n_bins=n_bins, k=k, d=d, stale_rounds=stale_rounds, n_balls=n_balls, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)


def check_churn(n_bins, k, d, rounds, seed, departures):
    a, b = _paired_rngs(seed)
    scalar = run_churn_kd_choice(
        n_bins=n_bins, k=k, d=d, rounds=rounds, departures_per_round=departures, rng=a
    )
    vector = run_churn_kd_choice_vectorized(
        n_bins=n_bins, k=k, d=d, rounds=rounds, departures_per_round=departures, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert [s.__dict__ for s in scalar.snapshots] == [
        s.__dict__ for s in vector.snapshots
    ]


def check_d_choice(n_bins, d, n_balls, seed):
    a, b = _paired_rngs(seed)
    scalar = run_d_choice(n_bins=n_bins, d=d, n_balls=n_balls, rng=a)
    vector = _vectorized("d_choice")(n_bins=n_bins, d=d, n_balls=n_balls, rng=b)
    _assert_equivalent(scalar, vector, a, b)
    assert scalar.scheme == vector.scheme


def check_one_plus_beta(n_bins, beta, n_balls, seed):
    a, b = _paired_rngs(seed)
    scalar = run_one_plus_beta(n_bins=n_bins, beta=beta, n_balls=n_balls, rng=a)
    vector = _vectorized("one_plus_beta")(
        n_bins=n_bins, beta=beta, n_balls=n_balls, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)


def check_always_go_left(n_bins, d, n_balls, seed):
    a, b = _paired_rngs(seed)
    scalar = run_always_go_left(n_bins=n_bins, d=d, n_balls=n_balls, rng=a)
    vector = _vectorized("always_go_left")(
        n_bins=n_bins, d=d, n_balls=n_balls, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)


def check_threshold_adaptive(n_bins, n_balls, seed, threshold, max_probes):
    a, b = _paired_rngs(seed)
    scalar = run_threshold_adaptive(
        n_bins=n_bins, n_balls=n_balls, threshold=threshold, max_probes=max_probes, rng=a
    )
    vector = _vectorized("threshold_adaptive")(
        n_bins=n_bins, n_balls=n_balls, threshold=threshold, max_probes=max_probes, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert scalar.extra["probe_histogram"] == vector.extra["probe_histogram"]


def check_serialized(n_bins, k, d, n_balls, seed, sigma):
    # The derived batch engine drives the per-round kernel, so it must stay
    # bit-identical even for the inherently sequential serialized process
    # (it omits only the per-ball "placements" record).
    a, b = _paired_rngs(seed)
    scalar = run_serialized_kd_choice(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, sigma=sigma, rng=a
    )
    vector = _vectorized("serialized_kd_choice")(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, sigma=sigma, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert scalar.scheme == vector.scheme


def check_greedy_kd_choice(n_bins, k, d, n_balls, seed):
    # The greedy policy re-reads loads after every placement; the derived
    # batch engine drives the stepper per round and must match exactly.
    a, b = _paired_rngs(seed)
    scalar = run_kd_choice(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, policy="greedy", rng=a
    )
    vector = _vectorized("greedy_kd_choice")(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)


def check_callable_threshold(n_bins, n_balls, seed, threshold, max_probes):
    # Callable thresholds force the batch engine onto the per-ball drive
    # path (no bulk threshold evaluation); results must not change.
    a, b = _paired_rngs(seed)
    scalar = run_threshold_adaptive(
        n_bins=n_bins, n_balls=n_balls, threshold=threshold, max_probes=max_probes, rng=a
    )
    vector = _vectorized("threshold_adaptive")(
        n_bins=n_bins, n_balls=n_balls, threshold=threshold, max_probes=max_probes, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert scalar.extra["probe_histogram"] == vector.extra["probe_histogram"]


def check_two_phase_adaptive(n_bins, n_balls, seed, cap, retry_probes):
    a, b = _paired_rngs(seed)
    scalar = run_two_phase_adaptive(
        n_bins=n_bins, n_balls=n_balls, cap=cap, retry_probes=retry_probes, rng=a
    )
    vector = _vectorized("two_phase_adaptive")(
        n_bins=n_bins, n_balls=n_balls, cap=cap, retry_probes=retry_probes, rng=b
    )
    _assert_equivalent(scalar, vector, a, b)
    assert scalar.extra["retries"] == vector.extra["retries"]


def _assert_same_zone_extra(scalar, vector):
    """Zone probe/place counters and the fractions and costs derived from
    them (the batch engine only adds its ``engine`` tag)."""
    vector_extra = dict(vector.extra)
    assert vector_extra.pop("engine") == "vectorized"
    assert scalar.extra == vector_extra


def check_hierarchical_go_left(n_bins, n_balls, seed, topology):
    a, b = _paired_rngs(seed)
    kwargs = dict(n_bins=n_bins, topology=topology, n_balls=n_balls)
    scalar = run_hierarchical_go_left(**kwargs, rng=a)
    vector = _vectorized("hierarchical_always_go_left")(**kwargs, rng=b)
    _assert_equivalent(scalar, vector, a, b)
    _assert_same_zone_extra(scalar, vector)


def check_locality_two_choice(
    n_bins, d, n_balls, seed, topology, bias, threshold, chunk_rounds=None
):
    a, b = _paired_rngs(seed)
    kwargs = dict(
        n_bins=n_bins, d=d, bias=bias, threshold=threshold, topology=topology,
        n_balls=n_balls, chunk_rounds=chunk_rounds,
    )
    scalar = run_locality_two_choice(**kwargs, rng=a)
    vector = _vectorized("locality_two_choice")(**kwargs, rng=b)
    _assert_equivalent(scalar, vector, a, b)
    _assert_same_zone_extra(scalar, vector)


# ----------------------------------------------------------------------
# Randomized-seed parametrization (always runs, Hypothesis or not)
# ----------------------------------------------------------------------
def _cases(family: str, count: int = 12):
    """Deterministic pseudo-random configurations for one family."""
    source = random.Random(f"{MASTER_SEED}-{family}")
    cases = []
    for index in range(count):
        n_bins = source.randint(8, 1500)
        d = source.randint(1, min(10, n_bins))
        k = source.randint(1, d)
        n_balls = source.randint(1, 3 * n_bins)
        seed = source.randint(0, 2**31)
        cases.append(
            {
                "n_bins": n_bins,
                "k": k,
                "d": d,
                "n_balls": n_balls,
                "seed": seed,
                "index": index,
                "source": source,
            }
        )
    return cases


def _ids(cases):
    return [
        f"n{c['n_bins']}-k{c['k']}-d{c['d']}-m{c['n_balls']}" for c in cases
    ]


_KD_CASES = _cases("kd")

#: The speculate-and-truncate regimes the randomized cases (d <= 10) miss:
#: d^2 >> n with heavy within-round duplicates, where k >= 2 keeps several
#: copies of one bin, and k = 1 at large d.  ``n_balls % k != 0`` keeps the
#: partial tail round in play.
_LARGE_D_CASES = [
    {"n_bins": 16, "k": 3, "d": 12, "n_balls": 200, "seed": 11},
    {"n_bins": 64, "k": 8, "d": 40, "n_balls": 700, "seed": 12},
    {"n_bins": 200, "k": 16, "d": 193, "n_balls": 1000, "seed": 13},
    {"n_bins": 24, "k": 20, "d": 23, "n_balls": 250, "seed": 14},
    {"n_bins": 50, "k": 1, "d": 49, "n_balls": 400, "seed": 15},
    {"n_bins": 700, "k": 1, "d": 120, "n_balls": 2100, "seed": 16},
]


def _window_chunks(case):
    """``chunk_rounds`` values below and above the speculation window."""
    window = speculation_window(case["n_bins"], case["k"], case["d"])
    return (1, window // 2, window + 3, 4 * window)


_LARGE_D_CHUNKS = [
    (case, chunk) for case in _LARGE_D_CASES for chunk in _window_chunks(case)
]
_LARGE_D_CHUNK_IDS = [
    f"{_ids([case])[0]}-chunk{chunk}" for case, chunk in _LARGE_D_CHUNKS
]
_SERIALIZED_CASES = _cases("serialized")

#: Topology kernels: every layout (bound to n_bins, so ``wide`` puts 8
#: racks over as few as 8 bins) crossed with every bias and threshold, on
#: small bin counts with up to 3n balls so batches conflict heavily.
_TOPOLOGY_LAYOUT_NAMES = ("flat", "dual_zone", "wide")
_HIERARCHICAL_CASES = [
    dict(case, topology=_TOPOLOGY_LAYOUT_NAMES[case["index"] % 3])
    for case in _cases("hierarchical")
]
_LOCALITY_CASES = [
    dict(
        case,
        n_bins=min(case["n_bins"], 600),
        n_balls=min(case["n_balls"], 3 * min(case["n_bins"], 600)),
        topology=topology,
        bias=bias,
        threshold=threshold,
        chunk_rounds=(None, 1, 7, 64)[case["index"] % 4],
    )
    for case, (topology, bias, threshold) in zip(
        _cases("locality", count=36),
        [
            (topology, bias, threshold)
            for topology in _TOPOLOGY_LAYOUT_NAMES
            for bias in (0.0, 0.3, 0.6, 1.0)
            for threshold in (0, 1, 3)
        ],
    )
]


def _topology_ids(cases):
    return [
        f"{case['topology']}-n{case['n_bins']}-m{case['n_balls']}"
        + (f"-d{case['d']}-b{case['bias']}-t{case['threshold']}"
           if "bias" in case else "")
        for case in cases
    ]


_WEIGHTED_CASES = _cases("weighted")
_STALE_CASES = _cases("stale")
_CHURN_CASES = _cases("churn")
_BASELINE_CASES = _cases("baselines")
_ADAPTIVE_CASES = _cases("adaptive")


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("case", _KD_CASES, ids=_ids(_KD_CASES))
    def test_kd_choice(self, case):
        check_kd_choice(case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"])

    @pytest.mark.parametrize("case", _KD_CASES[:6], ids=_ids(_KD_CASES[:6]))
    @pytest.mark.parametrize("chunk_rounds", [1, 7, 64, 4096])
    def test_kd_choice_streaming_chunks(self, case, chunk_rounds):
        check_kd_choice_streaming(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"],
            chunk_rounds,
        )

    @pytest.mark.parametrize("case", _LARGE_D_CASES, ids=_ids(_LARGE_D_CASES))
    def test_kd_choice_large_d(self, case):
        check_kd_choice(case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"])
        if case["k"] == 1:
            check_d_choice(case["n_bins"], case["d"], case["n_balls"], case["seed"])

    @pytest.mark.parametrize("case,chunk_rounds", _LARGE_D_CHUNKS, ids=_LARGE_D_CHUNK_IDS)
    def test_kd_choice_large_d_chunks(self, case, chunk_rounds):
        check_kd_choice_streaming(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"],
            chunk_rounds,
        )

    @pytest.mark.parametrize("case", _LARGE_D_CASES, ids=_ids(_LARGE_D_CASES))
    def test_stale_large_d(self, case):
        check_stale(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"], 3
        )

    @pytest.mark.parametrize("case", _SERIALIZED_CASES, ids=_ids(_SERIALIZED_CASES))
    def test_serialized(self, case):
        sigma = ("identity", "reversed", "random")[case["index"] % 3]
        n_balls = case["n_balls"] - (case["n_balls"] % case["k"])
        check_serialized(
            case["n_bins"], case["k"], case["d"], max(n_balls, case["k"]),
            case["seed"], sigma,
        )

    @pytest.mark.parametrize("case", _KD_CASES, ids=_ids(_KD_CASES))
    def test_greedy_kd_choice(self, case):
        check_greedy_kd_choice(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"]
        )

    @pytest.mark.parametrize("case", _ADAPTIVE_CASES, ids=_ids(_ADAPTIVE_CASES))
    def test_callable_threshold(self, case):
        offset = case["index"] % 3
        threshold = lambda average: int(average) + offset  # noqa: E731
        max_probes = (None, 2, 6)[offset]
        check_callable_threshold(
            case["n_bins"], case["n_balls"], case["seed"], threshold, max_probes
        )

    @pytest.mark.parametrize("case", _WEIGHTED_CASES, ids=_ids(_WEIGHTED_CASES))
    def test_weighted(self, case):
        weights = ("constant", "exponential", "pareto")[case["index"] % 3]
        check_weighted(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"], weights
        )

    def test_weighted_explicit_weight_array(self):
        weights = list(np.linspace(0.1, 5.0, 300))
        check_weighted(64, 3, 6, 300, 11, weights)

    @pytest.mark.parametrize("case", _STALE_CASES, ids=_ids(_STALE_CASES))
    def test_stale(self, case):
        stale_rounds = (1, 2, 8, 64)[case["index"] % 4]
        check_stale(
            case["n_bins"], case["k"], case["d"], case["n_balls"], case["seed"],
            stale_rounds,
        )

    @pytest.mark.parametrize("case", _CHURN_CASES, ids=_ids(_CHURN_CASES))
    def test_churn(self, case):
        rounds = 1 + case["n_balls"] // max(case["k"], 1) // 4
        departures = (None, 0, 1, case["k"])[case["index"] % 4]
        check_churn(
            case["n_bins"], case["k"], case["d"], min(rounds, 300), case["seed"],
            departures,
        )

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_d_choice_and_two_choice(self, case):
        check_d_choice(case["n_bins"], case["d"], case["n_balls"], case["seed"])
        check_d_choice(case["n_bins"], 2, case["n_balls"], case["seed"] + 1)

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_one_plus_beta(self, case):
        beta = (0.0, 0.25, 0.5, 1.0)[case["index"] % 4]
        check_one_plus_beta(case["n_bins"], beta, case["n_balls"], case["seed"])

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_always_go_left(self, case):
        check_always_go_left(case["n_bins"], case["d"], case["n_balls"], case["seed"])

    @pytest.mark.parametrize(
        "case", _HIERARCHICAL_CASES, ids=_topology_ids(_HIERARCHICAL_CASES)
    )
    def test_hierarchical_go_left(self, case):
        check_hierarchical_go_left(
            case["n_bins"], case["n_balls"], case["seed"], case["topology"]
        )

    @pytest.mark.parametrize(
        "case", _LOCALITY_CASES, ids=_topology_ids(_LOCALITY_CASES)
    )
    def test_locality_two_choice(self, case):
        check_locality_two_choice(
            case["n_bins"], case["d"], case["n_balls"], case["seed"],
            case["topology"], case["bias"], case["threshold"],
            case["chunk_rounds"],
        )

    @pytest.mark.parametrize("case", _ADAPTIVE_CASES, ids=_ids(_ADAPTIVE_CASES))
    def test_threshold_adaptive(self, case):
        threshold = (None, 0, 2, None)[case["index"] % 4]
        max_probes = (None, 1, 3, 9)[case["index"] % 4]
        check_threshold_adaptive(
            case["n_bins"], case["n_balls"], case["seed"], threshold, max_probes
        )

    @pytest.mark.parametrize("case", _ADAPTIVE_CASES, ids=_ids(_ADAPTIVE_CASES))
    def test_two_phase_adaptive(self, case):
        cap = (None, 1, 2, 5)[case["index"] % 4]
        retry_probes = (1, 2, 4, 8)[case["index"] % 4]
        check_two_phase_adaptive(
            case["n_bins"], case["n_balls"], case["seed"], cap, retry_probes
        )


# ----------------------------------------------------------------------
# Hypothesis layer (adaptive exploration; skipped when unavailable)
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:
    # Small bin counts are deliberately over-weighted: they maximize batch
    # conflicts, which is where the speculate-verify kernels earn their keep.
    sizes = st.integers(min_value=2, max_value=600)
    seeds = st.integers(min_value=0, max_value=2**32 - 1)
    COMMON = dict(deadline=None, max_examples=30)

    class TestHypothesisEquivalence:
        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 12), k_frac=st.floats(0, 1),
               m_frac=st.floats(0.01, 3.0), seed=seeds)
        def test_kd_choice(self, n_bins, d, k_frac, m_frac, seed):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            n_balls = max(1, round(m_frac * n_bins))
            check_kd_choice(n_bins, k, d, n_balls, seed)

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 10), k_frac=st.floats(0, 1),
               rounds=st.integers(1, 60), seed=seeds,
               sigma=st.sampled_from(["identity", "reversed", "random"]))
        def test_serialized(self, n_bins, d, k_frac, rounds, seed, sigma):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            check_serialized(n_bins, k, d, k * rounds, seed, sigma)

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 12), k_frac=st.floats(0, 1),
               m_frac=st.floats(0.01, 3.0), seed=seeds)
        def test_greedy_kd_choice(self, n_bins, d, k_frac, m_frac, seed):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            n_balls = max(1, round(m_frac * n_bins))
            check_greedy_kd_choice(n_bins, k, d, n_balls, seed)

        @settings(**COMMON)
        @given(n_bins=sizes, m_frac=st.floats(0.01, 3.0), seed=seeds,
               offset=st.integers(0, 4),
               max_probes=st.one_of(st.none(), st.integers(1, 10)))
        def test_callable_threshold(self, n_bins, m_frac, seed, offset, max_probes):
            n_balls = max(1, round(m_frac * n_bins))
            check_callable_threshold(
                n_bins, n_balls, seed,
                lambda average: int(average) + offset, max_probes,
            )

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 10), k_frac=st.floats(0, 1),
               m_frac=st.floats(0.01, 3.0), seed=seeds,
               weights=st.sampled_from(["constant", "exponential", "pareto"]))
        def test_weighted(self, n_bins, d, k_frac, m_frac, seed, weights):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            n_balls = max(1, round(m_frac * n_bins))
            check_weighted(n_bins, k, d, n_balls, seed, weights)

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 10), k_frac=st.floats(0, 1),
               m_frac=st.floats(0.01, 3.0), seed=seeds,
               stale_rounds=st.integers(1, 64))
        def test_stale(self, n_bins, d, k_frac, m_frac, seed, stale_rounds):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            n_balls = max(1, round(m_frac * n_bins))
            check_stale(n_bins, k, d, n_balls, seed, stale_rounds)

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 8), k_frac=st.floats(0, 1),
               rounds=st.integers(0, 120), seed=seeds,
               departures=st.one_of(st.none(), st.integers(0, 6)))
        def test_churn(self, n_bins, d, k_frac, rounds, seed, departures):
            d = min(d, n_bins)
            k = max(1, round(k_frac * d))
            check_churn(n_bins, k, d, rounds, seed, departures)

        @settings(**COMMON)
        @given(n_bins=sizes, beta=st.floats(0, 1), m_frac=st.floats(0.01, 3.0),
               seed=seeds)
        def test_one_plus_beta(self, n_bins, beta, m_frac, seed):
            n_balls = max(1, round(m_frac * n_bins))
            check_one_plus_beta(n_bins, beta, n_balls, seed)

        @settings(**COMMON)
        @given(n_bins=sizes, d=st.integers(1, 8), m_frac=st.floats(0.01, 3.0),
               seed=seeds)
        def test_always_go_left(self, n_bins, d, m_frac, seed):
            d = min(d, n_bins)
            n_balls = max(1, round(m_frac * n_bins))
            check_always_go_left(n_bins, d, n_balls, seed)

        @settings(**COMMON)
        @given(n_bins=st.integers(8, 600), m_frac=st.floats(0.01, 3.0),
               seed=seeds,
               topology=st.sampled_from(_TOPOLOGY_LAYOUT_NAMES))
        def test_hierarchical_go_left(self, n_bins, m_frac, seed, topology):
            n_balls = max(1, round(m_frac * n_bins))
            check_hierarchical_go_left(n_bins, n_balls, seed, topology)

        @settings(**COMMON)
        @given(n_bins=st.integers(8, 600), d=st.integers(1, 8),
               m_frac=st.floats(0.01, 3.0), seed=seeds,
               topology=st.sampled_from(_TOPOLOGY_LAYOUT_NAMES),
               bias=st.sampled_from([0.0, 0.3, 0.6, 1.0]),
               threshold=st.sampled_from([0, 1, 3]))
        def test_locality_two_choice(
            self, n_bins, d, m_frac, seed, topology, bias, threshold
        ):
            n_balls = max(1, round(m_frac * n_bins))
            check_locality_two_choice(
                n_bins, d, n_balls, seed, topology, bias, threshold
            )

        @settings(**COMMON)
        @given(n_bins=sizes, m_frac=st.floats(0.01, 3.0), seed=seeds,
               threshold=st.one_of(st.none(), st.integers(0, 5)),
               max_probes=st.one_of(st.none(), st.integers(1, 10)))
        def test_threshold_adaptive(self, n_bins, m_frac, seed, threshold, max_probes):
            n_balls = max(1, round(m_frac * n_bins))
            check_threshold_adaptive(n_bins, n_balls, seed, threshold, max_probes)

        @settings(**COMMON)
        @given(n_bins=sizes, m_frac=st.floats(0.01, 3.0), seed=seeds,
               cap=st.one_of(st.none(), st.integers(1, 6)),
               retry_probes=st.integers(1, 8))
        def test_two_phase_adaptive(self, n_bins, m_frac, seed, cap, retry_probes):
            n_balls = max(1, round(m_frac * n_bins))
            check_two_phase_adaptive(n_bins, n_balls, seed, cap, retry_probes)


# ----------------------------------------------------------------------
# Compiled engine (C backend): same contract as the vectorized layer —
# bit-identical loads/accounting and identical RNG stream consumption —
# checked against the scalar reference for every compiled-covered family.
# Skipped wholesale when the backend cannot build here (no compiler/cffi).
# ----------------------------------------------------------------------
from repro.core.compiled import backend_unavailable_reason  # noqa: E402

_COMPILED_REASON = backend_unavailable_reason()
requires_compiled = pytest.mark.skipif(
    _COMPILED_REASON is not None,
    reason=f"compiled backend unavailable: {_COMPILED_REASON}",
)


def _compiled(scheme):
    """The scheme's registered compiled engine."""
    return get_scheme(scheme).compiled


def _assert_compiled_equivalent(scalar_fn, compiled_fn, kwargs, seed):
    a, b = _paired_rngs(seed)
    scalar = scalar_fn(rng=a, **kwargs)
    compiled = compiled_fn(rng=b, **kwargs)
    _assert_equivalent(scalar, compiled, a, b)
    assert compiled.extra["engine"] == "compiled"
    return scalar, compiled


@requires_compiled
class TestCompiledEquivalence:
    @pytest.mark.parametrize("case", _KD_CASES, ids=_ids(_KD_CASES))
    def test_kd_choice(self, case):
        _assert_compiled_equivalent(
            run_kd_choice, _compiled("kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _KD_CASES[:6], ids=_ids(_KD_CASES[:6]))
    @pytest.mark.parametrize("chunk_rounds", [1, 7, 64, 4096])
    def test_kd_choice_streaming_chunks(self, case, chunk_rounds):
        _assert_compiled_equivalent(
            run_kd_choice, _compiled("kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 n_balls=case["n_balls"], chunk_rounds=chunk_rounds),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _LARGE_D_CASES, ids=_ids(_LARGE_D_CASES))
    def test_kd_choice_large_d(self, case):
        _assert_compiled_equivalent(
            run_kd_choice, _compiled("kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case,chunk_rounds", _LARGE_D_CHUNKS, ids=_LARGE_D_CHUNK_IDS)
    def test_kd_choice_large_d_chunks(self, case, chunk_rounds):
        _assert_compiled_equivalent(
            run_kd_choice, _compiled("kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 n_balls=case["n_balls"], chunk_rounds=chunk_rounds),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _LARGE_D_CASES, ids=_ids(_LARGE_D_CASES))
    def test_stale_large_d(self, case):
        _assert_compiled_equivalent(
            run_stale_kd_choice, _compiled("stale_kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 stale_rounds=3, n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _WEIGHTED_CASES, ids=_ids(_WEIGHTED_CASES))
    def test_weighted(self, case):
        weights = ("constant", "exponential", "pareto")[case["index"] % 3]
        scalar, compiled = _assert_compiled_equivalent(
            run_weighted_kd_choice, _compiled("weighted_kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 weights=weights, n_balls=case["n_balls"]),
            case["seed"],
        )
        assert np.array_equal(
            scalar.extra["weighted_loads"], compiled.extra["weighted_loads"]
        ), "weighted (float) loads must match bit for bit"
        assert scalar.extra["total_weight"] == compiled.extra["total_weight"]

    @pytest.mark.parametrize("case", _STALE_CASES, ids=_ids(_STALE_CASES))
    def test_stale(self, case):
        stale_rounds = (1, 2, 8, 64)[case["index"] % 4]
        _assert_compiled_equivalent(
            run_stale_kd_choice, _compiled("stale_kd_choice"),
            dict(n_bins=case["n_bins"], k=case["k"], d=case["d"],
                 stale_rounds=stale_rounds, n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_d_choice_and_two_choice(self, case):
        _assert_compiled_equivalent(
            run_d_choice, _compiled("d_choice"),
            dict(n_bins=case["n_bins"], d=case["d"], n_balls=case["n_balls"]),
            case["seed"],
        )
        a, b = _paired_rngs(case["seed"] + 1)
        scalar = run_d_choice(
            n_bins=case["n_bins"], d=2, n_balls=case["n_balls"], rng=a
        )
        compiled = _compiled("two_choice")(
            n_bins=case["n_bins"], n_balls=case["n_balls"], rng=b
        )
        assert np.array_equal(scalar.loads, compiled.loads)
        assert scalar.messages == compiled.messages
        assert a.bit_generator.state == b.bit_generator.state
        assert compiled.extra["engine"] == "compiled"

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_one_plus_beta(self, case):
        beta = (0.0, 0.25, 0.5, 1.0)[case["index"] % 4]
        _assert_compiled_equivalent(
            run_one_plus_beta, _compiled("one_plus_beta"),
            dict(n_bins=case["n_bins"], beta=beta, n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _BASELINE_CASES, ids=_ids(_BASELINE_CASES))
    def test_always_go_left(self, case):
        _assert_compiled_equivalent(
            run_always_go_left, _compiled("always_go_left"),
            dict(n_bins=case["n_bins"], d=case["d"], n_balls=case["n_balls"]),
            case["seed"],
        )

    @pytest.mark.parametrize("case", _ADAPTIVE_CASES, ids=_ids(_ADAPTIVE_CASES))
    def test_threshold_adaptive(self, case):
        threshold = (None, 0, 2, None)[case["index"] % 4]
        max_probes = (None, 1, 3, 9)[case["index"] % 4]
        scalar, compiled = _assert_compiled_equivalent(
            run_threshold_adaptive, _compiled("threshold_adaptive"),
            dict(n_bins=case["n_bins"], n_balls=case["n_balls"],
                 threshold=threshold, max_probes=max_probes),
            case["seed"],
        )
        assert scalar.extra["probe_histogram"] == compiled.extra["probe_histogram"]

    @pytest.mark.parametrize("case", _ADAPTIVE_CASES, ids=_ids(_ADAPTIVE_CASES))
    def test_two_phase_adaptive(self, case):
        cap = (None, 1, 2, 5)[case["index"] % 4]
        retry_probes = (1, 2, 4, 8)[case["index"] % 4]
        scalar, compiled = _assert_compiled_equivalent(
            run_two_phase_adaptive, _compiled("two_phase_adaptive"),
            dict(n_bins=case["n_bins"], n_balls=case["n_balls"], cap=cap,
                 retry_probes=retry_probes),
            case["seed"],
        )
        assert scalar.extra["retries"] == compiled.extra["retries"]
