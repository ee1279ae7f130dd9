"""Unit tests for the baseline allocation schemes."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import run_always_go_left, run_d_choice, run_one_plus_beta
from repro.core.baselines import run_batch_random, run_single_choice


class TestSingleChoice:
    def test_conservation(self, small_n):
        result = run_single_choice(small_n, seed=1)
        assert result.total_balls_check()

    def test_default_balls_equals_bins(self, small_n):
        assert run_single_choice(small_n, seed=1).n_balls == small_n

    def test_message_cost_one_per_ball(self, small_n):
        result = run_single_choice(small_n, seed=1)
        assert result.messages == small_n
        assert result.messages_per_ball == pytest.approx(1.0)

    def test_deterministic_per_seed(self, small_n):
        a = run_single_choice(small_n, seed=9)
        b = run_single_choice(small_n, seed=9)
        assert np.array_equal(a.loads, b.loads)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            run_single_choice(0)
        with pytest.raises(ValueError):
            run_single_choice(8, n_balls=-1)

    def test_scheme_name(self, small_n):
        assert run_single_choice(small_n, seed=1).scheme == "single-choice"

    def test_max_load_reasonably_high(self, medium_n):
        # Single choice should produce a clearly higher max load than 2.
        result = run_single_choice(medium_n, seed=0)
        assert result.max_load >= 4


class TestDChoice:
    def test_conservation(self, small_n):
        assert run_d_choice(small_n, d=2, seed=1).total_balls_check()

    def test_scheme_name_mentions_d(self, small_n):
        assert run_d_choice(small_n, d=3, seed=1).scheme == "greedy[3]"

    def test_message_cost_d_per_ball(self, small_n):
        result = run_d_choice(small_n, d=4, seed=1)
        assert result.messages == 4 * small_n

    def test_rejects_d_below_one(self, small_n):
        with pytest.raises(ValueError):
            run_d_choice(small_n, d=0)

    def test_two_choice_beats_single_choice(self, medium_n):
        single = run_single_choice(medium_n, seed=4)
        double = run_d_choice(medium_n, d=2, seed=4)
        assert double.max_load < single.max_load

    def test_more_choices_never_hurt_much(self, medium_n):
        d2 = run_d_choice(medium_n, d=2, seed=4)
        d8 = run_d_choice(medium_n, d=8, seed=4)
        assert d8.max_load <= d2.max_load


class TestOnePlusBeta:
    def test_conservation(self, small_n):
        assert run_one_plus_beta(small_n, beta=0.5, seed=1).total_balls_check()

    def test_beta_zero_is_single_choice_cost(self, small_n):
        result = run_one_plus_beta(small_n, beta=0.0, seed=1)
        assert result.messages == small_n

    def test_beta_one_is_two_choice_cost(self, small_n):
        result = run_one_plus_beta(small_n, beta=1.0, seed=1)
        assert result.messages == 2 * small_n

    def test_invalid_beta_rejected(self, small_n):
        with pytest.raises(ValueError):
            run_one_plus_beta(small_n, beta=1.5)
        with pytest.raises(ValueError):
            run_one_plus_beta(small_n, beta=-0.1)

    def test_messages_between_single_and_double(self, small_n):
        result = run_one_plus_beta(small_n, beta=0.5, seed=1)
        assert small_n <= result.messages <= 2 * small_n

    def test_interpolates_max_load(self, medium_n):
        single = run_single_choice(medium_n, seed=2)
        mixed = run_one_plus_beta(medium_n, beta=0.8, seed=2)
        assert mixed.max_load <= single.max_load


class TestAlwaysGoLeft:
    def test_conservation(self, small_n):
        assert run_always_go_left(small_n, d=2, seed=1).total_balls_check()

    def test_rejects_more_groups_than_bins(self):
        with pytest.raises(ValueError):
            run_always_go_left(3, d=5)

    def test_message_cost_d_per_ball(self, small_n):
        result = run_always_go_left(small_n, d=3, seed=1)
        assert result.messages == 3 * small_n

    def test_beats_single_choice(self, medium_n):
        single = run_single_choice(medium_n, seed=6)
        agl = run_always_go_left(medium_n, d=2, seed=6)
        assert agl.max_load < single.max_load

    def test_comparable_to_greedy_d(self, medium_n):
        greedy = run_d_choice(medium_n, d=2, seed=8)
        agl = run_always_go_left(medium_n, d=2, seed=8)
        # Vöcking's scheme is at least as good as symmetric two-choice
        # asymptotically; at finite n allow a one-ball slack.
        assert agl.max_load <= greedy.max_load + 1


class TestBatchRandom:
    def test_conservation(self, small_n):
        assert run_batch_random(small_n, k=4, seed=1).total_balls_check()

    def test_scheme_records_k(self, small_n):
        result = run_batch_random(small_n, k=4, seed=1)
        assert result.k == 4
        assert result.d == 4
        assert "batch-random" in result.scheme

    def test_rounds_are_ceil_n_over_k(self, small_n):
        result = run_batch_random(small_n, k=6, seed=1)
        assert result.rounds == -(-small_n // 6)

    def test_rejects_bad_k(self, small_n):
        with pytest.raises(ValueError):
            run_batch_random(small_n, k=0)

    def test_distribution_matches_single_choice(self, medium_n):
        # SA(k, k) is distribution-identical to single choice; compare the
        # mean max load over a few seeds.
        batch = [run_batch_random(medium_n, k=8, seed=s).max_load for s in range(5)]
        single = [run_single_choice(medium_n, seed=100 + s).max_load for s in range(5)]
        assert abs(np.mean(batch) - np.mean(single)) <= 1.5
