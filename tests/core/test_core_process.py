"""Unit tests for the (k, d)-choice process."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import KDChoiceProcess, run_kd_choice


class TestValidation:
    def test_rejects_k_greater_than_d(self):
        with pytest.raises(ValueError):
            KDChoiceProcess(n_bins=16, k=5, d=3)

    def test_rejects_d_exceeding_bins(self):
        with pytest.raises(ValueError):
            KDChoiceProcess(n_bins=4, k=1, d=8)

    def test_rejects_bad_chunk_rounds(self):
        with pytest.raises(ValueError):
            KDChoiceProcess(n_bins=16, k=1, d=2, chunk_rounds=0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            KDChoiceProcess(n_bins=16, k=1, d=2, policy="bogus")


class TestConservationAndCounts:
    @pytest.mark.parametrize("k,d", [(1, 1), (1, 2), (2, 3), (4, 8), (8, 9), (5, 16)])
    def test_ball_conservation(self, k, d, small_n):
        result = run_kd_choice(n_bins=small_n, k=k, d=d, seed=1)
        assert result.total_balls_check()
        assert result.n_balls == small_n

    def test_default_ball_count_equals_bins(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=2, d=4, seed=0)
        assert result.n_balls == small_n

    def test_explicit_ball_count(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=2, d=4, n_balls=3 * small_n, seed=0)
        assert int(result.loads.sum()) == 3 * small_n

    def test_rounds_count_exact_division(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=4, d=8, seed=0)
        assert result.rounds == small_n // 4

    def test_rounds_count_with_remainder(self):
        result = run_kd_choice(n_bins=100, k=7, d=9, n_balls=100, seed=0)
        # 14 full rounds of 7 balls plus one tail round of 2 balls.
        assert result.rounds == 15
        assert int(result.loads.sum()) == 100

    def test_message_cost_is_d_per_round(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=4, d=8, seed=0)
        assert result.messages == (small_n // 4) * 8

    def test_result_metadata(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=2, d=5, seed=0)
        assert result.k == 2
        assert result.d == 5
        assert result.scheme == "(2,5)-choice"
        assert result.policy == "strict"

    def test_zero_balls(self):
        result = run_kd_choice(n_bins=32, k=2, d=4, n_balls=0, seed=0)
        assert result.max_load == 0
        assert result.messages == 0


class TestDeterminism:
    def test_same_seed_same_result(self, small_n):
        a = run_kd_choice(n_bins=small_n, k=3, d=6, seed=99)
        b = run_kd_choice(n_bins=small_n, k=3, d=6, seed=99)
        assert np.array_equal(a.loads, b.loads)

    def test_different_seeds_differ(self, small_n):
        a = run_kd_choice(n_bins=small_n, k=3, d=6, seed=1)
        b = run_kd_choice(n_bins=small_n, k=3, d=6, seed=2)
        assert not np.array_equal(a.loads, b.loads)

    def test_generator_can_be_supplied(self, small_n):
        rng = np.random.default_rng(5)
        result = run_kd_choice(n_bins=small_n, k=2, d=4, rng=rng)
        assert result.total_balls_check()

    def test_chunking_does_not_change_validity_or_quality(self, small_n):
        # Different chunk sizes interleave RNG draws differently, so the runs
        # are not bitwise identical — but both must conserve balls and give
        # comparable balance.
        a = KDChoiceProcess(small_n, 2, 4, seed=3, chunk_rounds=8).run()
        b = KDChoiceProcess(small_n, 2, 4, seed=3, chunk_rounds=1024).run()
        assert a.total_balls_check() and b.total_balls_check()
        assert abs(a.max_load - b.max_load) <= 1


class TestRoundExecution:
    def test_run_round_with_explicit_samples(self):
        process = KDChoiceProcess(n_bins=8, k=2, d=3, seed=0)
        destinations = process.run_round(samples=np.array([1, 1, 5]))
        assert len(destinations) == 2
        assert set(destinations) <= {1, 5}
        assert process.state.total_balls == 2

    def test_run_round_rejects_wrong_sample_count(self):
        process = KDChoiceProcess(n_bins=8, k=2, d=3, seed=0)
        with pytest.raises(ValueError):
            process.run_round(samples=np.array([1, 2]))

    def test_run_round_increments_messages(self):
        process = KDChoiceProcess(n_bins=8, k=2, d=3, seed=0)
        process.run_round()
        process.run_round()
        assert process.messages == 6
        assert process.rounds_executed == 2


class TestLoadBalanceQuality:
    """Statistical sanity: multiple choice beats single choice."""

    def test_two_choice_beats_single_choice(self, medium_n):
        single = run_kd_choice(n_bins=medium_n, k=1, d=1, seed=11)
        double = run_kd_choice(n_bins=medium_n, k=1, d=2, seed=11)
        assert double.max_load < single.max_load

    def test_kd_choice_close_to_two_choice_for_small_k(self, medium_n):
        # (2, 3)-choice should still give a small max load (paper Table 1: 4
        # at n ~ 2*10^5; smaller n gives at most that).
        result = run_kd_choice(n_bins=medium_n, k=2, d=3, seed=5)
        assert result.max_load <= 5

    def test_wide_gap_gives_constant_load(self, medium_n):
        # d = 2k with k = 16: Theorem 1(i) regime, max load should be tiny.
        result = run_kd_choice(n_bins=medium_n, k=16, d=32, seed=5)
        assert result.max_load <= 3

    def test_k_close_to_d_degrades(self, medium_n):
        near_single = run_kd_choice(n_bins=medium_n, k=64, d=65, seed=5)
        balanced = run_kd_choice(n_bins=medium_n, k=16, d=32, seed=5)
        assert near_single.max_load >= balanced.max_load

    def test_heavy_load_average_grows_but_gap_stays_small(self):
        n = 1 << 10
        result = run_kd_choice(n_bins=n, k=2, d=4, n_balls=8 * n, seed=7)
        assert result.average_load == pytest.approx(8.0)
        assert result.gap <= 6.0

    def test_greedy_policy_runs_and_conserves(self, small_n):
        result = run_kd_choice(n_bins=small_n, k=4, d=5, policy="greedy", seed=3)
        assert result.total_balls_check()
        assert result.policy == "greedy"
