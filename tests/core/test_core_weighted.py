"""Unit tests for the weighted (k, d)-choice extension."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import WeightedKDChoiceProcess, run_weighted_kd_choice
from repro.core.weighted import make_weights


class TestMakeWeights:
    def test_constant(self, rng):
        weights = make_weights("constant", 10, rng, mean_weight=2.0)
        assert np.allclose(weights, 2.0)

    def test_exponential_mean(self, rng):
        weights = make_weights("exponential", 20000, rng, mean_weight=3.0)
        assert weights.mean() == pytest.approx(3.0, rel=0.1)

    def test_pareto_mean_and_positivity(self, rng):
        weights = make_weights("pareto", 50000, rng, mean_weight=1.0, pareto_shape=3.0)
        assert np.all(weights > 0)
        assert weights.mean() == pytest.approx(1.0, rel=0.15)

    def test_pareto_shape_must_exceed_one(self, rng):
        with pytest.raises(ValueError):
            make_weights("pareto", 10, rng, pareto_shape=1.0)

    def test_explicit_sequence(self, rng):
        weights = make_weights([1.0, 2.0, 3.0], 3, rng)
        assert list(weights) == [1.0, 2.0, 3.0]

    def test_explicit_sequence_wrong_length(self, rng):
        with pytest.raises(ValueError):
            make_weights([1.0, 2.0], 3, rng)

    def test_callable_spec(self, rng):
        weights = make_weights(lambda r, n: np.full(n, 5.0), 4, rng)
        assert np.allclose(weights, 5.0)

    def test_negative_weights_rejected(self, rng):
        with pytest.raises(ValueError):
            make_weights([1.0, -1.0], 2, rng)

    def test_unknown_name_rejected(self, rng):
        with pytest.raises(ValueError):
            make_weights("weibull", 5, rng)


class TestWeightedProcess:
    def test_ball_count_conservation(self, small_n):
        result = run_weighted_kd_choice(small_n, 4, 8, weights="exponential", seed=1)
        assert int(result.loads.sum()) == small_n

    def test_weight_conservation(self, small_n):
        result = run_weighted_kd_choice(small_n, 4, 8, weights="exponential", seed=1)
        weighted = result.extra["weighted_loads"]
        assert float(weighted.sum()) == pytest.approx(result.extra["total_weight"])

    def test_unit_weights_match_unweighted_invariants(self, small_n):
        result = run_weighted_kd_choice(small_n, 2, 4, weights="constant", seed=2)
        weighted = result.extra["weighted_loads"]
        # With unit weights the weighted loads equal the ball counts.
        assert np.allclose(weighted, result.loads)

    def test_scheme_name_mentions_distribution(self, small_n):
        result = run_weighted_kd_choice(small_n, 2, 4, weights="pareto", seed=3)
        assert "pareto" in result.scheme

    def test_messages_d_per_round(self, small_n):
        result = run_weighted_kd_choice(small_n, 4, 8, seed=4)
        assert result.messages == (small_n // 4) * 8

    def test_partial_final_round(self):
        result = run_weighted_kd_choice(100, 8, 16, weights="constant", seed=5)
        assert int(result.loads.sum()) == 100

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            WeightedKDChoiceProcess(16, 5, 3)

    def test_deterministic_per_seed(self, small_n):
        a = run_weighted_kd_choice(small_n, 4, 8, weights="exponential", seed=9)
        b = run_weighted_kd_choice(small_n, 4, 8, weights="exponential", seed=9)
        assert np.array_equal(a.loads, b.loads)
        assert np.allclose(a.extra["weighted_loads"], b.extra["weighted_loads"])

    def test_multiple_choices_balance_weight_better_than_single(self, medium_n):
        # Weighted two-choice-style process should have a smaller weighted gap
        # than weighted "single choice" (k = d = 1).
        multi = run_weighted_kd_choice(medium_n, 4, 8, weights="exponential", seed=11)
        single = run_weighted_kd_choice(medium_n, 1, 1, weights="exponential", seed=11)
        assert multi.extra["weighted_gap"] <= single.extra["weighted_gap"]

    def test_heavy_tail_increases_gap(self, medium_n):
        constant = run_weighted_kd_choice(medium_n, 4, 8, weights="constant", seed=13)
        pareto = run_weighted_kd_choice(medium_n, 4, 8, weights="pareto", seed=13)
        assert pareto.extra["weighted_gap"] >= constant.extra["weighted_gap"] - 0.5
