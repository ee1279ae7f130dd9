"""Unit tests for the stale-information and dynamic (churn) extensions."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import StaleKDChoiceProcess, run_stale_kd_choice
from repro.core.dynamic import DynamicKDChoiceProcess, run_churn_kd_choice


class TestStaleProcess:
    def test_conservation(self, small_n):
        result = run_stale_kd_choice(small_n, 4, 8, stale_rounds=8, seed=1)
        assert int(result.loads.sum()) == small_n

    def test_epoch_of_one_behaves_like_fresh_process(self, medium_n):
        stale = run_stale_kd_choice(medium_n, 4, 8, stale_rounds=1, seed=2)
        assert stale.max_load <= 4  # same ballpark as the fresh (4, 8) process

    def test_staleness_recorded_in_result(self, small_n):
        result = run_stale_kd_choice(small_n, 4, 8, stale_rounds=16, seed=3)
        assert result.extra["stale_rounds"] == 16
        assert "epoch=16" in result.scheme

    def test_messages_d_per_round(self, small_n):
        result = run_stale_kd_choice(small_n, 4, 8, stale_rounds=4, seed=4)
        assert result.messages == (small_n // 4) * 8

    def test_invalid_stale_rounds_rejected(self):
        with pytest.raises(ValueError):
            StaleKDChoiceProcess(64, 2, 4, stale_rounds=0)

    def test_more_staleness_never_helps(self, medium_n):
        fresh = np.mean(
            [run_stale_kd_choice(medium_n, 4, 8, stale_rounds=1, seed=s).max_load for s in range(3)]
        )
        very_stale = np.mean(
            [
                run_stale_kd_choice(medium_n, 4, 8, stale_rounds=256, seed=s).max_load
                for s in range(3)
            ]
        )
        assert very_stale >= fresh

    def test_fully_stale_approaches_batch_random(self, medium_n):
        # One epoch covering the whole run: every probe sees empty bins, so
        # the process is close to random placement of n balls.
        result = run_stale_kd_choice(
            medium_n, 4, 8, stale_rounds=medium_n // 4 + 1, seed=5
        )
        assert result.max_load >= 4

    def test_partial_final_round(self):
        result = run_stale_kd_choice(100, 8, 16, stale_rounds=4, seed=6)
        assert int(result.loads.sum()) == 100

    def test_greedy_policy_supported(self, small_n):
        result = run_stale_kd_choice(small_n, 4, 8, stale_rounds=4, policy="greedy", seed=7)
        assert result.policy == "greedy"
        assert int(result.loads.sum()) == small_n


class TestDynamicChurn:
    def test_population_stable_with_balanced_churn(self):
        result = run_churn_kd_choice(128, 2, 4, rounds=256, seed=1)
        # warmup = n balls; arrivals == departures per round keeps it there.
        assert int(result.final_loads.sum()) == 128

    def test_population_grows_without_departures(self):
        process = DynamicKDChoiceProcess(128, 2, 4, departures_per_round=0, seed=2)
        result = process.run(rounds=64, warmup_balls=0)
        assert int(result.final_loads.sum()) == 64 * 2

    def test_snapshots_recorded(self):
        result = run_churn_kd_choice(64, 2, 4, rounds=64, seed=3)
        assert result.snapshots
        assert result.snapshots[-1].round_index == 64
        for snapshot in result.snapshots:
            assert snapshot.max_load >= snapshot.average_load - 1e-9

    def test_steady_state_gap_nonnegative(self):
        result = run_churn_kd_choice(64, 2, 4, rounds=128, seed=4)
        assert result.steady_state_gap() >= 0.0
        assert result.steady_state_max_load() >= 1.0

    def test_warmup_fraction_validation(self):
        result = run_churn_kd_choice(32, 1, 2, rounds=16, seed=5)
        with pytest.raises(ValueError):
            result.steady_state_gap(warmup_fraction=1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            DynamicKDChoiceProcess(64, 2, 4, departures_per_round=-1)
        process = DynamicKDChoiceProcess(64, 2, 4, departures_per_round=2)
        with pytest.raises(ValueError):
            process.run(rounds=-1)
        with pytest.raises(ValueError):
            process.run(rounds=4, snapshot_every=0)

    def test_churn_with_choices_beats_random_churn(self):
        # Under balanced churn, (1, 2)-choice keeps a smaller steady gap than
        # single-choice churn (the dynamic analogue of the power of two
        # choices).
        random_churn = run_churn_kd_choice(256, 1, 1, rounds=2048, seed=6)
        two_choice_churn = run_churn_kd_choice(256, 1, 2, rounds=2048, seed=6)
        assert (
            two_choice_churn.steady_state_gap()
            <= random_churn.steady_state_gap() + 0.25
        )

    def test_deterministic_per_seed(self):
        a = run_churn_kd_choice(64, 2, 4, rounds=64, seed=9)
        b = run_churn_kd_choice(64, 2, 4, rounds=64, seed=9)
        assert np.array_equal(a.final_loads, b.final_loads)
