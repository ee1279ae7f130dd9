"""Property-based tests for the weighted, stale and dynamic extensions."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import run_stale_kd_choice, run_weighted_kd_choice
from repro.core.dynamic import DynamicKDChoiceProcess


@st.composite
def kd_small(draw):
    n_bins = draw(st.integers(min_value=4, max_value=96))
    d = draw(st.integers(min_value=1, max_value=min(n_bins, 12)))
    k = draw(st.integers(min_value=1, max_value=d))
    seed = draw(st.integers(min_value=0, max_value=2 ** 20))
    return n_bins, k, d, seed


class TestWeightedProperties:
    @given(params=kd_small(), weights=st.sampled_from(["constant", "exponential", "pareto"]))
    @settings(max_examples=30, deadline=None)
    def test_ball_and_weight_conservation(self, params, weights):
        n_bins, k, d, seed = params
        result = run_weighted_kd_choice(n_bins, k, d, weights=weights, seed=seed)
        assert int(result.loads.sum()) == n_bins
        weighted = result.extra["weighted_loads"]
        assert np.all(weighted >= -1e-12)
        assert float(weighted.sum()) == float(
            np.float64(result.extra["total_weight"])
        ) or abs(float(weighted.sum()) - result.extra["total_weight"]) < 1e-6

    @given(params=kd_small())
    @settings(max_examples=20, deadline=None)
    def test_unit_weights_reduce_to_counts(self, params):
        n_bins, k, d, seed = params
        result = run_weighted_kd_choice(n_bins, k, d, weights="constant", seed=seed)
        assert np.allclose(result.extra["weighted_loads"], result.loads)


class TestStaleProperties:
    @given(
        params=kd_small(),
        stale_rounds=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=30, deadline=None)
    def test_conservation_under_any_staleness(self, params, stale_rounds):
        n_bins, k, d, seed = params
        result = run_stale_kd_choice(n_bins, k, d, stale_rounds=stale_rounds, seed=seed)
        assert int(result.loads.sum()) == n_bins
        assert result.extra["stale_rounds"] == stale_rounds
        expected_rounds = -(-n_bins // k)
        assert result.messages == expected_rounds * d


class TestDynamicProperties:
    @given(
        params=kd_small(),
        rounds=st.integers(min_value=0, max_value=128),
        departures=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_population_accounting(self, params, rounds, departures):
        n_bins, k, d, seed = params
        process = DynamicKDChoiceProcess(
            n_bins, k, d, departures_per_round=departures, seed=seed
        )
        result = process.run(rounds=rounds, warmup_balls=n_bins)
        total = int(result.final_loads.sum())
        assert np.all(result.final_loads >= 0)
        # Arrivals add k per round; departures remove at most `departures`
        # per round (fewer when the system is empty).
        upper = n_bins + rounds * k
        lower = max(n_bins + rounds * (k - departures), 0)
        assert lower <= total <= upper
        if result.snapshots:
            assert result.snapshots[-1].total_balls == total
