"""Unit tests for the adaptive comparator schemes."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import run_threshold_adaptive, run_two_phase_adaptive
from repro.core.baselines import run_single_choice


class TestThresholdAdaptive:
    def test_conservation(self, small_n):
        assert run_threshold_adaptive(small_n, seed=1).total_balls_check()

    def test_probe_histogram_sums_to_balls(self, small_n):
        result = run_threshold_adaptive(small_n, seed=1)
        histogram = result.extra["probe_histogram"]
        assert sum(histogram.values()) == small_n

    def test_messages_match_histogram(self, small_n):
        result = run_threshold_adaptive(small_n, seed=1)
        histogram = result.extra["probe_histogram"]
        assert result.messages == sum(p * c for p, c in histogram.items())

    def test_average_probes_close_to_one(self, medium_n):
        # The adaptive scheme's whole point: (1 + o(1)) probes per ball.
        result = run_threshold_adaptive(medium_n, seed=2)
        assert result.extra["average_probes"] < 1.6

    def test_max_load_beats_single_choice(self, medium_n):
        single = run_single_choice(medium_n, seed=3)
        adaptive = run_threshold_adaptive(medium_n, seed=3)
        assert adaptive.max_load < single.max_load

    def test_fixed_integer_threshold_accepted(self, small_n):
        result = run_threshold_adaptive(small_n, threshold=1, seed=1)
        assert result.total_balls_check()

    def test_callable_threshold_accepted(self, small_n):
        result = run_threshold_adaptive(
            small_n, threshold=lambda average: int(average) + 2, seed=1
        )
        assert result.total_balls_check()

    def test_max_probes_respected(self, small_n):
        result = run_threshold_adaptive(small_n, max_probes=3, seed=1)
        assert max(result.extra["probe_histogram"]) <= 3

    def test_invalid_max_probes_rejected(self, small_n):
        with pytest.raises(ValueError):
            run_threshold_adaptive(small_n, max_probes=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            run_threshold_adaptive(0)

    def test_deterministic_per_seed(self, small_n):
        a = run_threshold_adaptive(small_n, seed=5)
        b = run_threshold_adaptive(small_n, seed=5)
        assert np.array_equal(a.loads, b.loads)


class TestTwoPhaseAdaptive:
    def test_conservation(self, small_n):
        assert run_two_phase_adaptive(small_n, seed=1).total_balls_check()

    def test_retry_fraction_recorded(self, small_n):
        result = run_two_phase_adaptive(small_n, seed=1)
        assert 0.0 <= result.extra["retry_fraction"] <= 1.0

    def test_messages_account_for_retries(self, small_n):
        result = run_two_phase_adaptive(small_n, retry_probes=4, seed=1)
        retries = result.extra["retries"]
        assert result.messages == small_n + 4 * retries

    def test_low_cap_forces_retries(self, small_n):
        result = run_two_phase_adaptive(small_n, cap=1, seed=1)
        assert result.extra["retries"] > 0

    def test_huge_cap_means_no_retries(self, small_n):
        result = run_two_phase_adaptive(small_n, cap=10 ** 6, seed=1)
        assert result.extra["retries"] == 0
        assert result.messages == small_n

    def test_bounded_max_load_with_default_cap(self, medium_n):
        result = run_two_phase_adaptive(medium_n, seed=4)
        # Default cap is ceil(m/n) + 2 = 3; phase-2 balls join the least
        # loaded of several probes, so the max load stays small.
        assert result.max_load <= 6

    def test_invalid_retry_probes_rejected(self, small_n):
        with pytest.raises(ValueError):
            run_two_phase_adaptive(small_n, retry_probes=0)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            run_two_phase_adaptive(-1)
