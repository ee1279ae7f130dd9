"""Unit tests for the empirical majorization / domination checks."""

from __future__ import annotations

import numpy as np
import pytest

from oracles import run_kd_choice
from repro.analysis.majorization import (
    MajorizationReport,
    compare_processes,
    empirical_majorization_fraction,
    mean_prefix_profile,
    prefix_sum_profile,
)
from repro.core.types import AllocationResult


def _result(loads):
    loads = np.asarray(loads)
    return AllocationResult(
        loads=loads, scheme="t", n_bins=loads.shape[0], n_balls=int(loads.sum())
    )


class TestPrefixProfiles:
    def test_prefix_sum_profile_of_array(self):
        assert list(prefix_sum_profile(np.array([1, 3, 0, 2]))) == [3, 5, 6, 6]

    def test_prefix_sum_profile_of_result(self):
        assert list(prefix_sum_profile(_result([2, 0, 1]))) == [2, 3, 3]

    def test_mean_prefix_profile_averages(self):
        # Profiles are built from the *sorted* loads: [2, 0] -> [2, 2] and
        # [0, 4] -> [4, 4]; the mean is [3, 3].
        profile = mean_prefix_profile([np.array([2, 0]), np.array([0, 4])])
        assert list(profile) == [3.0, 3.0]

    def test_mean_prefix_profile_rejects_empty(self):
        with pytest.raises(ValueError):
            mean_prefix_profile([])


class TestEmpiricalMajorizationFraction:
    def test_balanced_majorized_by_concentrated(self):
        balanced = [_result([1, 1, 1, 1])]
        concentrated = [_result([4, 0, 0, 0])]
        assert empirical_majorization_fraction(balanced, concentrated) == 1.0

    def test_reverse_direction_fails(self):
        balanced = [_result([1, 1, 1, 1])]
        concentrated = [_result([4, 0, 0, 0])]
        assert empirical_majorization_fraction(concentrated, balanced) < 1.0

    def test_tolerance_allows_slack(self):
        a = [_result([2, 1, 1])]
        b = [_result([2, 1, 0])]
        # a has one more ball, so strictly it is not majorized by b; a
        # tolerance of 1 ball per rank accepts it.
        assert empirical_majorization_fraction(a, b, tolerance=1.0) == 1.0

    def test_mismatched_sizes_rejected(self):
        with pytest.raises(ValueError):
            empirical_majorization_fraction([_result([1, 1])], [_result([1, 1, 0])])


class TestCompareProcesses:
    def test_two_choice_majorized_by_single_choice(self):
        report = compare_processes(
            run_small=lambda s: run_kd_choice(512, 1, 2, seed=s),
            run_large=lambda s: run_kd_choice(512, 1, 1, seed=s),
            trials=6,
            seeds=list(range(12)),
            label_small="greedy[2]",
            label_large="single",
            tolerance=5.0,
        )
        assert report.consistent
        assert report.mean_max_small <= report.mean_max_large

    def test_report_dict_has_labels(self):
        report = MajorizationReport(
            label_small="a",
            label_large="b",
            trials=3,
            prefix_fraction=1.0,
            max_load_dominance=1.0,
            mean_max_small=2.0,
            mean_max_large=3.0,
        )
        d = report.as_dict()
        assert d["small"] == "a"
        assert d["large"] == "b"
        assert d["consistent"] is True

    def test_inconsistent_report_flagged(self):
        report = MajorizationReport(
            label_small="a",
            label_large="b",
            trials=3,
            prefix_fraction=0.2,
            max_load_dominance=0.1,
            mean_max_small=9.0,
            mean_max_large=2.0,
        )
        assert not report.consistent

    def test_requires_enough_seeds(self):
        with pytest.raises(ValueError):
            compare_processes(
                run_small=lambda s: run_kd_choice(64, 1, 2, seed=s),
                run_large=lambda s: run_kd_choice(64, 1, 1, seed=s),
                trials=4,
                seeds=[1, 2, 3],
            )

    def test_requires_positive_trials(self):
        with pytest.raises(ValueError):
            compare_processes(
                run_small=lambda s: run_kd_choice(64, 1, 2, seed=s),
                run_large=lambda s: run_kd_choice(64, 1, 1, seed=s),
                trials=0,
                seeds=[],
            )
