"""Property-based tests (hypothesis) for the core allocation processes."""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from oracles import run_kd_choice
from repro.core.policies import GreedyPolicy, StrictPolicy
from repro.core.state import BinState


# Strategy: a (n_bins, k, d) triple with 1 <= k <= d <= n_bins.
@st.composite
def kd_parameters(draw):
    n_bins = draw(st.integers(min_value=4, max_value=256))
    d = draw(st.integers(min_value=1, max_value=min(n_bins, 24)))
    k = draw(st.integers(min_value=1, max_value=d))
    return n_bins, k, d


@st.composite
def policy_inputs(draw):
    n_bins = draw(st.integers(min_value=2, max_value=40))
    loads = draw(
        st.lists(st.integers(min_value=0, max_value=20), min_size=n_bins, max_size=n_bins)
    )
    d = draw(st.integers(min_value=1, max_value=12))
    samples = draw(
        st.lists(st.integers(min_value=0, max_value=n_bins - 1), min_size=d, max_size=d)
    )
    k = draw(st.integers(min_value=1, max_value=d))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31 - 1))
    return loads, samples, k, seed


class TestProcessProperties:
    @given(params=kd_parameters(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_ball_conservation(self, params, seed):
        n_bins, k, d = params
        result = run_kd_choice(n_bins=n_bins, k=k, d=d, seed=seed)
        assert int(result.loads.sum()) == n_bins
        assert result.loads.min() >= 0

    @given(params=kd_parameters(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_message_cost_formula(self, params, seed):
        n_bins, k, d = params
        result = run_kd_choice(n_bins=n_bins, k=k, d=d, seed=seed)
        expected_rounds = -(-n_bins // k)
        assert result.messages == expected_rounds * d

    @given(
        params=kd_parameters(),
        factor=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=20, deadline=None)
    def test_heavy_load_conservation(self, params, factor, seed):
        n_bins, k, d = params
        m = factor * n_bins
        result = run_kd_choice(n_bins=n_bins, k=k, d=d, n_balls=m, seed=seed)
        assert int(result.loads.sum()) == m
        assert result.max_load >= m // n_bins  # pigeonhole

    @given(params=kd_parameters(), seed=st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_max_load_at_least_average_and_at_most_total(self, params, seed):
        n_bins, k, d = params
        result = run_kd_choice(n_bins=n_bins, k=k, d=d, seed=seed)
        assert result.max_load >= 1
        assert result.max_load <= n_bins


class TestPolicyProperties:
    @given(inputs=policy_inputs())
    @settings(max_examples=60, deadline=None)
    def test_strict_policy_respects_multiplicity_cap(self, inputs):
        loads, samples, k, seed = inputs
        rng = np.random.default_rng(seed)
        destinations = StrictPolicy().select(loads, samples, k, rng)
        assert len(destinations) == k
        multiplicity = Counter(samples)
        for bin_index, count in Counter(destinations).items():
            assert count <= multiplicity[bin_index]

    @given(inputs=policy_inputs())
    @settings(max_examples=60, deadline=None)
    def test_strict_policy_keeps_lowest_heights(self, inputs):
        # The multiset of heights of the k kept balls must equal the k
        # smallest heights of the d placed balls.
        loads, samples, k, seed = inputs
        rng = np.random.default_rng(seed)
        destinations = StrictPolicy().select(loads, samples, k, rng)

        working = list(loads)
        all_heights = []
        for s in samples:
            working[s] += 1
            all_heights.append(working[s])
        expected = sorted(all_heights)[:k]

        working = list(loads)
        kept_heights = []
        extra = Counter()
        # Recompute heights of the kept balls in the order they were kept,
        # accounting for multiple balls landing in the same bin.
        for b in destinations:
            extra[b] += 1
            kept_heights.append(loads[b] + extra[b])
        assert sorted(kept_heights) == expected

    @given(inputs=policy_inputs())
    @settings(max_examples=60, deadline=None)
    def test_greedy_policy_uses_sampled_bins_only(self, inputs):
        loads, samples, k, seed = inputs
        rng = np.random.default_rng(seed)
        destinations = GreedyPolicy().select(loads, samples, k, rng)
        assert len(destinations) == k
        assert set(destinations) <= set(samples)

    @given(inputs=policy_inputs())
    @settings(max_examples=40, deadline=None)
    def test_greedy_round_maximum_no_higher_than_strict(self, inputs):
        # Within a single round, greedy water-filling never produces a higher
        # post-round maximum over the sampled bins than the strict policy.
        loads, samples, k, seed = inputs
        sampled = set(samples)

        strict_state = BinState(len(loads), loads=loads)
        for b in StrictPolicy().select(loads, samples, k, np.random.default_rng(seed)):
            strict_state.place(b)
        greedy_state = BinState(len(loads), loads=loads)
        for b in GreedyPolicy().select(loads, samples, k, np.random.default_rng(seed)):
            greedy_state.place(b)

        strict_max = max(strict_state.load_of(b) for b in sampled)
        greedy_max = max(greedy_state.load_of(b) for b in sampled)
        assert greedy_max <= strict_max
