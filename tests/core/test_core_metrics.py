"""Unit tests for repro.core.metrics."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import run_kd_choice
from repro.core import metrics
from repro.core.types import AllocationResult


@pytest.fixture
def loads():
    return np.array([0, 1, 2, 2, 4], dtype=np.int64)


@pytest.fixture
def result(loads):
    return AllocationResult(
        loads=loads, scheme="test", n_bins=5, n_balls=int(loads.sum()), messages=20
    )


class TestAsLoads:
    def test_accepts_allocation_result(self, result, loads):
        assert np.array_equal(metrics.as_loads(result), loads)

    def test_accepts_plain_list(self):
        assert np.array_equal(metrics.as_loads([1, 2, 3]), np.array([1, 2, 3]))

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError):
            metrics.as_loads(np.zeros((2, 2)))


class TestScalarMetrics:
    def test_max_load(self, loads):
        assert metrics.max_load(loads) == 4

    def test_min_load(self, loads):
        assert metrics.min_load(loads) == 0

    def test_average_load(self, loads):
        assert metrics.average_load(loads) == pytest.approx(1.8)

    def test_gap(self, loads):
        assert metrics.gap(loads) == pytest.approx(4 - 1.8)

    def test_empty_vector_edge_cases(self):
        empty = np.array([], dtype=np.int64)
        assert metrics.max_load(empty) == 0
        assert metrics.min_load(empty) == 0
        assert metrics.average_load(empty) == 0.0
        assert metrics.gap(empty) == 0.0
        assert metrics.empty_fraction(empty) == 0.0

    def test_empty_fraction(self, loads):
        assert metrics.empty_fraction(loads) == pytest.approx(0.2)


class TestDistributionMetrics:
    def test_load_profile_sorted_descending(self, loads):
        assert list(metrics.load_profile(loads)) == [4, 2, 2, 1, 0]

    def test_nu(self, loads):
        assert metrics.nu(loads, 0) == 5
        assert metrics.nu(loads, 1) == 4
        assert metrics.nu(loads, 2) == 3
        assert metrics.nu(loads, 3) == 1
        assert metrics.nu(loads, 5) == 0

    def test_nu_vector_matches_nu(self, loads):
        vector = metrics.nu_vector(loads)
        for y, value in enumerate(vector):
            assert value == metrics.nu(loads, y)

    def test_mu(self, loads):
        assert metrics.mu(loads, 1) == 9
        assert metrics.mu(loads, 2) == 5
        assert metrics.mu(loads, 4) == 1
        assert metrics.mu(loads, 6) == 0

    def test_mu_relation_to_nu(self, loads):
        # mu_y = sum_{h >= y} nu_h  (each bin contributes one ball per level).
        for y in range(1, 6):
            expected = sum(metrics.nu(loads, h) for h in range(y, 6))
            assert metrics.mu(loads, y) == expected

    def test_load_histogram(self, loads):
        assert metrics.load_histogram(loads) == {0: 1, 1: 1, 2: 2, 4: 1}

    def test_height_histogram_matches_nu(self, loads):
        histogram = metrics.height_histogram(loads)
        assert histogram == {1: 4, 2: 3, 3: 1, 4: 1}

    def test_height_histogram_empty(self):
        assert metrics.height_histogram(np.array([], dtype=np.int64)) == {}


class TestResultMetrics:
    def test_message_cost(self, result):
        assert metrics.message_cost(result) == 20

    def test_messages_per_ball(self, result):
        assert metrics.messages_per_ball(result) == pytest.approx(20 / 9)

    def test_summarize_contains_distribution_fields(self, result):
        summary = metrics.summarize(result)
        assert summary["max_load"] == 4
        assert summary["min_load"] == 0
        assert summary["empty_fraction"] == pytest.approx(0.2)
        assert "std_load" in summary

    def test_summarize_on_real_run(self):
        run = run_kd_choice(n_bins=128, k=2, d=4, seed=0)
        summary = metrics.summarize(run)
        assert summary["scheme"] == "(2,4)-choice"
        assert summary["max_load"] >= 1
