"""Streaming-vs-batch equivalence harness for the online allocator.

The contract locked down here is the one :mod:`repro.online` advertises:
for every scheme with an online stepper, streaming the spec's ``n_balls``
items — one :meth:`place` at a time, through chunked :meth:`place_batch`
calls, or any mix — produces loads, message/round accounting **and
generator state** bit-for-bit identical to the scheme's batch reference: its
hand-written oracle loop (``tests/oracles``), or, for the schemes that keep
one, its hand-written scalar runner.

Mirroring ``tests/core/test_engine_equivalence.py``, two layers of coverage:

* Hypothesis explores the parameter space adaptively (tiny bin counts
  maximize batch-kernel conflicts, ``k == d`` hits the degenerate
  shortcuts, ``n_balls % k != 0`` exercises partial tail rounds),
* a deterministic randomized-seed parametrization keeps the coverage
  without the dependency.

A registry dichotomy test pins the capability surface: every scheme either
streams with full parity or rejects with the registry's single-sourced
reason.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from oracles import ORACLES
from repro.api import (
    REGISTRY,
    SchemeSpec,
    get_scheme,
    online_unsupported_reason,
    simulate,
)
from repro.online import OnlineAllocator, OnlineAllocatorError

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without the dep
    HAVE_HYPOTHESIS = False

MASTER_SEED = 20260728

#: Ingestion modes every check runs: the scalar unit loop, chunked batches
#: (odd sizes, forcing pending-queue splits), and an alternating mix.
MODES = ("place", "batch", "mixed")


def _stream(spec: SchemeSpec, n_items: int, mode: str) -> OnlineAllocator:
    allocator = OnlineAllocator(spec)
    if mode == "place":
        for _ in range(n_items):
            allocator.place()
    elif mode == "batch":
        remaining = n_items
        for size in (1, 3, 7, 61, 499, 4096) * (n_items // 1 + 1):
            if not remaining:
                break
            take = min(size, remaining)
            allocator.place_batch(take)
            remaining -= take
    else:  # mixed
        remaining = n_items
        toggle = True
        while remaining:
            if toggle and remaining >= 13:
                allocator.place_batch(13)
                remaining -= 13
            else:
                allocator.place()
                remaining -= 1
            toggle = not toggle
    return allocator


def _reference(scheme: str, params: dict, rng: np.random.Generator):
    """The scheme's independent batch reference.

    A kernel's scalar engine is its stepper's ``step()`` loop, so where a
    scheme has an oracle (``tests/oracles``) the stream is compared with
    that; the schemes that keep a hand-written runner use their scalar
    engine.
    """
    oracle = ORACLES.get(get_scheme(scheme).name)
    if oracle is not None:
        return oracle(**params, rng=rng)
    return simulate(SchemeSpec(scheme=scheme, params=params, rng=rng, engine="scalar"))


def check_scheme(scheme: str, params: dict, seed: int, modes=MODES) -> None:
    """Stream vs batch: loads, accounting and RNG stream must coincide."""
    n_items = params.get("n_balls", params["n_bins"])
    reference_rng = np.random.default_rng(seed)
    batch = _reference(scheme, params, reference_rng)
    reference_state = reference_rng.bit_generator.state
    for mode in modes:
        stream_rng = np.random.default_rng(seed)
        engine = "scalar" if mode == "place" else "auto"
        allocator = _stream(
            SchemeSpec(scheme=scheme, params=params, rng=stream_rng,
                       engine=engine),
            n_items,
            mode,
        )
        assert np.array_equal(allocator.loads, batch.loads), (scheme, mode)
        assert allocator.stepper.messages == batch.messages, (scheme, mode)
        assert allocator.stepper.rounds == batch.rounds, (scheme, mode)
        assert allocator.placed == n_items
        assert (
            stream_rng.bit_generator.state == reference_state
        ), f"{scheme}/{mode}: stream consumed the RNG differently"


def check_ball_order(scheme: str, params: dict, seed: int) -> None:
    """place() and place_batch() must emit identical destination sequences."""
    n_items = params.get("n_balls", params["n_bins"])
    scalar = OnlineAllocator(
        SchemeSpec(scheme=scheme, params=params, seed=seed, engine="scalar")
    )
    batch = OnlineAllocator(SchemeSpec(scheme=scheme, params=params, seed=seed))
    assert [scalar.place() for _ in range(n_items)] == list(
        batch.place_batch(n_items)
    ), scheme


# ----------------------------------------------------------------------
# Randomized-seed parametrization (always runs, Hypothesis or not)
# ----------------------------------------------------------------------
def _cases(family: str, count: int = 10):
    source = random.Random(f"{MASTER_SEED}-online-{family}")
    cases = []
    for _ in range(count):
        n_bins = source.randint(8, 900)
        d = source.randint(1, min(10, n_bins))
        k = source.randint(1, d)
        cases.append(
            {
                "n_bins": n_bins,
                "k": k,
                "d": d,
                "n_balls": source.randint(1, 3 * n_bins),
                "seed": source.randint(0, 2**31),
                "pick": source.randint(0, 1000),
            }
        )
    return cases


def _ids(cases):
    return [f"n{c['n_bins']}-k{c['k']}-d{c['d']}-m{c['n_balls']}" for c in cases]


_KD = _cases("kd")
_WEIGHTED = _cases("weighted")
_STALE = _cases("stale")
_BASELINE = _cases("baseline")
_ADAPTIVE = _cases("adaptive")


class TestRandomizedStreamEquivalence:
    @pytest.mark.parametrize("case", _KD, ids=_ids(_KD))
    def test_kd_choice(self, case):
        check_scheme(
            "kd_choice",
            {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
             "n_balls": case["n_balls"]},
            case["seed"],
        )

    @pytest.mark.parametrize("case", _KD[:4], ids=_ids(_KD[:4]))
    def test_greedy_kd_choice(self, case):
        check_scheme(
            "greedy_kd_choice",
            {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
             "n_balls": case["n_balls"]},
            case["seed"],
        )

    @pytest.mark.parametrize("case", _KD, ids=_ids(_KD))
    def test_serialized_kd_choice(self, case):
        # n_balls must be a multiple of k (the paper assumes k | n).
        n_balls = max(case["n_balls"] - case["n_balls"] % case["k"], case["k"])
        sigma = ("identity", "reversed", "random")[case["pick"] % 3]
        check_scheme(
            "serialized_kd_choice",
            {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
             "n_balls": n_balls, "sigma": sigma},
            case["seed"],
        )

    def test_serialized_ball_order_identical_across_ingestion(self):
        check_ball_order(
            "serialized_kd_choice",
            {"n_bins": 32, "k": 4, "d": 8, "n_balls": 400, "sigma": "random"},
            seed=17,
        )

    @pytest.mark.parametrize("case", _WEIGHTED, ids=_ids(_WEIGHTED))
    def test_weighted(self, case):
        weights = ("constant", "exponential", "pareto")[case["pick"] % 3]
        check_scheme(
            "weighted_kd_choice",
            {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
             "n_balls": case["n_balls"], "weights": weights},
            case["seed"],
        )

    @pytest.mark.parametrize("case", _WEIGHTED[:4], ids=_ids(_WEIGHTED[:4]))
    def test_weighted_float_loads(self, case):
        params = {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
                  "n_balls": case["n_balls"]}
        rng = np.random.default_rng(case["seed"])
        batch = _reference("weighted_kd_choice", params, rng)
        allocator = _stream(
            SchemeSpec(scheme="weighted_kd_choice", params=params,
                       seed=case["seed"]),
            case["n_balls"],
            "batch",
        )
        assert np.array_equal(
            allocator.stepper.weighted_loads, batch.extra["weighted_loads"]
        ), "weighted (float) loads must match bit for bit"

    @pytest.mark.parametrize("case", _STALE, ids=_ids(_STALE))
    def test_stale(self, case):
        stale_rounds = (1, 2, 8, 64)[case["pick"] % 4]
        check_scheme(
            "stale_kd_choice",
            {"n_bins": case["n_bins"], "k": case["k"], "d": case["d"],
             "n_balls": case["n_balls"], "stale_rounds": stale_rounds},
            case["seed"],
        )

    @pytest.mark.parametrize("case", _BASELINE, ids=_ids(_BASELINE))
    def test_baselines(self, case):
        base = {"n_bins": case["n_bins"], "n_balls": case["n_balls"]}
        check_scheme("d_choice", {**base, "d": case["d"]}, case["seed"])
        check_scheme("two_choice", base, case["seed"] + 1)
        check_scheme("single_choice", base, case["seed"] + 2)
        check_scheme(
            "batch_random", {**base, "k": case["k"]}, case["seed"] + 3
        )
        check_scheme(
            "one_plus_beta",
            {**base, "beta": (0.0, 0.25, 0.5, 1.0)[case["pick"] % 4]},
            case["seed"] + 4,
        )
        check_scheme(
            "always_go_left", {**base, "d": case["d"]}, case["seed"] + 5
        )

    @pytest.mark.parametrize("case", _ADAPTIVE, ids=_ids(_ADAPTIVE))
    def test_adaptive(self, case):
        base = {"n_bins": case["n_bins"], "n_balls": case["n_balls"]}
        threshold = (None, 1, 3)[case["pick"] % 3]
        check_scheme(
            "threshold_adaptive", {**base, "threshold": threshold}, case["seed"]
        )
        check_scheme(
            "two_phase_adaptive",
            {**base, "retry_probes": case["d"]},
            case["seed"] + 1,
        )

    def test_threshold_adaptive_callable_threshold_streams(self):
        # Callable thresholds are scalar-only in the batch engines but the
        # online stepper mirrors the scalar loop, so they stream with parity.
        check_scheme(
            "threshold_adaptive",
            {"n_bins": 128, "n_balls": 300,
             "threshold": lambda average: int(average) + 2},
            99,
            modes=("place", "batch"),
        )

    @pytest.mark.parametrize(
        "scheme,params",
        [
            ("kd_choice", {"n_bins": 48, "k": 3, "d": 7, "n_balls": 500}),
            ("weighted_kd_choice", {"n_bins": 32, "k": 3, "d": 7, "n_balls": 350}),
            ("stale_kd_choice",
             {"n_bins": 32, "k": 2, "d": 5, "stale_rounds": 7, "n_balls": 333}),
            ("one_plus_beta", {"n_bins": 40, "beta": 0.5, "n_balls": 700}),
            ("always_go_left", {"n_bins": 40, "d": 4, "n_balls": 700}),
            ("single_choice", {"n_bins": 40, "n_balls": 200}),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_ball_order_identical_across_ingestion(self, scheme, params):
        check_ball_order(scheme, params, seed=17)


#: The speculate-and-truncate regimes the randomized cases (d <= 10) miss:
#: d^2 >> n with heavy within-round duplicates (k >= 2 keeps several copies
#: of one bin) and k = 1 at large d.
_LARGE_D = [
    ("kd_choice", {"n_bins": 16, "k": 3, "d": 12, "n_balls": 200}),
    ("kd_choice", {"n_bins": 64, "k": 8, "d": 40, "n_balls": 700}),
    ("kd_choice", {"n_bins": 200, "k": 16, "d": 193, "n_balls": 1000}),
    ("kd_choice", {"n_bins": 50, "k": 1, "d": 49, "n_balls": 400}),
    ("d_choice", {"n_bins": 700, "d": 120, "n_balls": 2100}),
    ("stale_kd_choice",
     {"n_bins": 64, "k": 8, "d": 40, "stale_rounds": 3, "n_balls": 700}),
]
_LARGE_D_IDS = [
    f"{scheme}-n{params['n_bins']}-k{params.get('k', 1)}-d{params['d']}"
    for scheme, params in _LARGE_D
]


class TestLargeDStreams:
    @pytest.mark.parametrize("scheme,params", _LARGE_D, ids=_LARGE_D_IDS)
    def test_stream_parity(self, scheme, params):
        check_scheme(scheme, params, seed=23)

    @pytest.mark.parametrize("scheme,params", _LARGE_D, ids=_LARGE_D_IDS)
    def test_ball_order_identical_across_ingestion(self, scheme, params):
        check_ball_order(scheme, params, seed=17)


# ----------------------------------------------------------------------
# Hypothesis layer
# ----------------------------------------------------------------------
if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        n_bins=st.integers(4, 200),
        d=st.integers(1, 8),
        k_offset=st.integers(0, 7),
        n_balls=st.integers(1, 500),
        seed=st.integers(0, 2**31),
    )
    def test_kd_choice_stream_equivalence_hypothesis(
        n_bins, d, k_offset, n_balls, seed
    ):
        d = min(d, n_bins)
        k = max(1, d - k_offset)
        check_scheme(
            "kd_choice",
            {"n_bins": n_bins, "k": k, "d": d, "n_balls": n_balls},
            seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_bins=st.integers(4, 150),
        d=st.integers(2, 8),
        k_offset=st.integers(0, 7),
        n_balls=st.integers(1, 400),
        stale_rounds=st.integers(1, 32),
        seed=st.integers(0, 2**31),
    )
    def test_stale_stream_equivalence_hypothesis(
        n_bins, d, k_offset, n_balls, stale_rounds, seed
    ):
        d = min(d, n_bins)
        k = max(1, d - k_offset)
        check_scheme(
            "stale_kd_choice",
            {"n_bins": n_bins, "k": k, "d": d, "n_balls": n_balls,
             "stale_rounds": stale_rounds},
            seed,
        )

    @settings(max_examples=25, deadline=None)
    @given(
        n_bins=st.integers(4, 150),
        d=st.integers(1, 7),
        k_offset=st.integers(0, 6),
        n_balls=st.integers(1, 300),
        seed=st.integers(0, 2**31),
    )
    def test_weighted_stream_equivalence_hypothesis(
        n_bins, d, k_offset, n_balls, seed
    ):
        d = min(d, n_bins)
        k = max(1, d - k_offset)
        check_scheme(
            "weighted_kd_choice",
            {"n_bins": n_bins, "k": k, "d": d, "n_balls": n_balls},
            seed,
        )


# ----------------------------------------------------------------------
# Registry dichotomy: online with parity, or a single-sourced rejection
# ----------------------------------------------------------------------
DICHOTOMY_PARAMS = {
    "kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "greedy_kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "serialized_kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "weighted_kd_choice": {"n_bins": 64, "k": 2, "d": 4},
    "stale_kd_choice": {"n_bins": 64, "k": 2, "d": 4, "stale_rounds": 4},
    "churn_kd_choice": {"n_bins": 64, "k": 2, "d": 4, "rounds": 32},
    "single_choice": {"n_bins": 64},
    "d_choice": {"n_bins": 64, "d": 3},
    "two_choice": {"n_bins": 64},
    "one_plus_beta": {"n_bins": 64, "beta": 0.5},
    "always_go_left": {"n_bins": 64, "d": 4},
    "batch_random": {"n_bins": 64, "k": 4},
    "threshold_adaptive": {"n_bins": 64},
    "two_phase_adaptive": {"n_bins": 64},
    "hierarchical_always_go_left": {"n_bins": 64, "topology": "quad_rack"},
    "locality_two_choice": {
        "n_bins": 64, "bias": 0.5, "threshold": 1, "topology": "dual_zone",
    },
    "cluster_scheduling": {"n_workers": 8, "n_jobs": 10},
    "storage_placement": {"n_servers": 16, "n_files": 20},
}


class TestOnlineDichotomy:
    def test_params_cover_registry(self):
        assert sorted(DICHOTOMY_PARAMS) == REGISTRY.names()

    def test_every_scheme_streams_or_rejects(self):
        for name in REGISTRY.names():
            info = get_scheme(name)
            params = DICHOTOMY_PARAMS[name]
            spec = SchemeSpec(scheme=name, params=params, seed=0)
            if info.online is None:
                reason = online_unsupported_reason(info, None, params)
                assert reason is not None and name in reason
                with pytest.raises(OnlineAllocatorError, match="no online"):
                    OnlineAllocator(spec)
            else:
                assert online_unsupported_reason(info, None, params) is None
                check_scheme(name, params, seed=5, modes=("place", "batch"))

    def test_describe_reports_online_capability(self):
        from repro.api import describe_scheme

        assert describe_scheme("kd_choice")["online"] is True
        assert describe_scheme("serialized_kd_choice")["online"] is True
        assert describe_scheme("churn_kd_choice")["online"] is False
        assert describe_scheme("cluster_scheduling")["online"] is False


# ----------------------------------------------------------------------
# Compiled engine: streaming through the C-backed kernels must stay inside
# the same parity envelope (loads, accounting, RNG stream) as the scalar
# reference, including across a mid-stream snapshot/restore boundary.
# ----------------------------------------------------------------------
from repro.core.compiled import backend_unavailable_reason  # noqa: E402

_COMPILED_REASON = backend_unavailable_reason()
requires_compiled = pytest.mark.skipif(
    _COMPILED_REASON is not None,
    reason=f"compiled backend unavailable: {_COMPILED_REASON}",
)

#: Every online-capable scheme with a compiled kernel, with params sized to
#: force multiple blocks, partial tail rounds and pending-queue splits.
COMPILED_STREAM_PARAMS = [
    ("kd_choice", {"n_bins": 96, "k": 3, "d": 7, "n_balls": 1200}),
    ("d_choice", {"n_bins": 96, "d": 5, "n_balls": 1100}),
    ("two_choice", {"n_bins": 96, "n_balls": 1000}),
    ("stale_kd_choice",
     {"n_bins": 96, "k": 2, "d": 5, "stale_rounds": 7, "n_balls": 900}),
    ("weighted_kd_choice",
     {"n_bins": 96, "k": 3, "d": 6, "weights": "pareto", "n_balls": 800}),
    ("one_plus_beta", {"n_bins": 96, "beta": 0.4, "n_balls": 1300}),
    ("always_go_left", {"n_bins": 96, "d": 4, "n_balls": 1200}),
    ("threshold_adaptive", {"n_bins": 96, "max_probes": 5, "n_balls": 1000}),
    ("two_phase_adaptive",
     {"n_bins": 96, "retry_probes": 4, "n_balls": 1000}),
]
_COMPILED_IDS = [scheme for scheme, _ in COMPILED_STREAM_PARAMS]


@requires_compiled
class TestCompiledStreamEquivalence:
    @pytest.mark.parametrize(
        "scheme,params", COMPILED_STREAM_PARAMS, ids=_COMPILED_IDS
    )
    @pytest.mark.parametrize("seed", [5, 1234])
    def test_compiled_stream_matches_scalar_batch(self, scheme, params, seed):
        n_items = params["n_balls"]
        reference_rng = np.random.default_rng(seed)
        batch = _reference(scheme, params, reference_rng)
        reference_state = reference_rng.bit_generator.state
        for mode in ("batch", "mixed"):
            stream_rng = np.random.default_rng(seed)
            allocator = _stream(
                SchemeSpec(scheme=scheme, params=params, rng=stream_rng,
                           engine="compiled"),
                n_items,
                mode,
            )
            assert allocator.stepper.kernel_mode == "compiled"
            assert np.array_equal(allocator.loads, batch.loads), (scheme, mode)
            assert allocator.stepper.messages == batch.messages, (scheme, mode)
            assert allocator.stepper.rounds == batch.rounds, (scheme, mode)
            assert (
                stream_rng.bit_generator.state == reference_state
            ), f"{scheme}/{mode}: compiled stream consumed the RNG differently"

    @pytest.mark.parametrize(
        "scheme,params", COMPILED_STREAM_PARAMS, ids=_COMPILED_IDS
    )
    def test_mid_stream_snapshot_restore(self, scheme, params, seed=31):
        """A compiled stream survives snapshot/restore bit-identically."""
        n_items = params["n_balls"]
        cut = n_items // 3
        unbroken = OnlineAllocator(
            SchemeSpec(scheme=scheme, params=params, seed=seed,
                       engine="compiled")
        )
        unbroken.place_batch(n_items)

        first = OnlineAllocator(
            SchemeSpec(scheme=scheme, params=params, seed=seed,
                       engine="compiled")
        )
        first.place_batch(cut)
        resumed = OnlineAllocator.restore(first.snapshot())
        assert resumed.stepper.kernel_mode == "compiled"
        resumed.place_batch(n_items - cut)
        assert np.array_equal(resumed.loads, unbroken.loads), scheme
        assert resumed.stepper.messages == unbroken.stepper.messages, scheme
        # The stepper state (loads, RNG, buffers) must be identical; the
        # telemetry wall_time is clock-dependent, so compare stepper dicts.
        assert (
            resumed.snapshot()["stepper"] == unbroken.snapshot()["stepper"]
        ), scheme

    def test_auto_runs_compiled_and_matches_scalar(self):
        params = {"n_bins": 80, "k": 2, "d": 5, "n_balls": 700}
        scalar = OnlineAllocator(
            SchemeSpec(scheme="kd_choice", params=params, seed=9,
                       engine="scalar")
        )
        for _ in range(700):
            scalar.place()
        auto = OnlineAllocator(
            SchemeSpec(scheme="kd_choice", params=params, seed=9)
        )
        assert auto.stepper.kernel_mode == "compiled"
        auto.place_batch(700)
        assert np.array_equal(auto.loads, scalar.loads)
        assert auto.stepper.messages == scalar.stepper.messages
