"""The exact batch kernels of the (k, d) family against the scalar rule.

``_select_rounds`` (speculate and truncate) must equal successive
:func:`~repro.core.policies.strict_select` calls, and
``strict_select_rows`` must equal one ``strict_select`` per row — rounds
that sample a bin twice, bit-equal tie-break doubles and high loads
included.  The batched kd-family and stale paths must never fall back to
the scalar kernel, and neither may the per-ball and topology kernels that
speculate and truncate (locality, hierarchical, threshold, weighted).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ORACLES
from oracles import weighted as weighted_oracle
from repro.api import SchemeSpec, get_scheme, simulate
from repro.core import batched, policies
from repro.core.batched import (
    ConflictScratch,
    add_repeat_counts,
    conflict_free_prefix,
    strict_select_rows,
)
from repro.core.kernels import adaptive as adaptive_kernel
from repro.core.kernels import kd as kd_kernel, stale as stale_kernel
from repro.core.kernels import topology as topology_kernel
from repro.core.kernels import weighted as weighted_kernel
from repro.core.kernels.kd import _select_rounds
from repro.core.policies import strict_select


def _instances(seed, count):
    """Small random instances: crowded tables, d up to 40, rounded ties."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n_bins = int(rng.integers(1, 120))
        d = int(rng.integers(2, 41))
        k = int(rng.integers(1, d))
        rounds = int(rng.integers(1, 60))
        base = int(rng.choice([0, 1000, 2**40]))
        loads = base + rng.integers(0, 3, size=n_bins)
        samples = rng.integers(0, n_bins, size=(rounds, d))
        ties = rng.random((rounds, d))
        if index % 4 == 0:
            ties = np.round(ties, 1)  # many bit-equal tie-break doubles
        yield rng, loads, samples, ties, k


def _sequential(loads, samples, ties, k):
    loads = loads.copy()
    order = []
    for row, row_ties in zip(samples.tolist(), ties):
        destinations = strict_select(loads, row, k, row_ties)
        order.append(destinations)
        for bin_index in destinations:
            loads[bin_index] += 1
    return loads, order


@pytest.mark.parametrize("seed", range(4))
def test_select_rounds_equals_sequential_strict_select(seed):
    for rng, loads, samples, ties, k in _instances(seed, 150):
        expected_loads, expected_order = _sequential(loads, samples, ties, k)
        got = loads.copy()
        out = np.empty((len(samples), k), dtype=np.int64)
        window = int(rng.integers(1, 24))
        _select_rounds(got, samples, ties, k, window, ConflictScratch(len(loads)), out=out)
        assert np.array_equal(got, expected_loads)
        assert out.tolist() == expected_order


def test_select_rounds_without_capture_applies_the_same_loads():
    for rng, loads, samples, ties, k in _instances(9, 60):
        expected_loads, _ = _sequential(loads, samples, ties, k)
        got = loads.copy()
        _select_rounds(got, samples, ties, k, 8, ConflictScratch(len(loads)))
        assert np.array_equal(got, expected_loads)


@pytest.mark.parametrize("seed", range(3))
def test_strict_select_rows_equals_strict_select_per_row(seed):
    for _, loads, samples, ties, k in _instances(seed + 10, 150):
        got = strict_select_rows(loads, samples, ties, k, ordered=True)
        for row, row_ties, destinations in zip(samples.tolist(), ties, got.tolist()):
            assert destinations == strict_select(loads, row, k, row_ties)


def test_add_repeat_counts_adds_earlier_copies_in_the_row():
    samples = np.array([[5, 5, 2, 5, 2], [1, 2, 3, 4, 0]])
    target = np.full(samples.shape, 10, dtype=np.int64)
    add_repeat_counts(target, samples, scale=3)
    assert target.tolist() == [[10, 13, 10, 16, 13], [10] * 5]


def test_conflict_free_prefix_stops_at_the_first_shared_destination():
    scratch = ConflictScratch(16)
    # A round keeping one bin twice is not a conflict with itself.
    assert conflict_free_prefix(np.array([[3, 3], [4, 5], [6, 7]]), scratch) == 3
    assert conflict_free_prefix(np.array([[3, 1], [4, 5], [5, 7], [1, 9]]), scratch) == 2
    assert conflict_free_prefix(np.array([[2], [2]]), scratch) == 1
    # The scratch is left clean for the next call.
    assert (scratch.positions == ConflictScratch._SENTINEL).all()


def _forbid_scalar_kernel(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a batched path replayed a round through strict_select")

    # Every module a batched path could reach the kernel through, whether
    # or not it imports the name today.
    for module in (policies, batched, kd_kernel, stale_kernel):
        monkeypatch.setattr(module, "strict_select", refuse, raising=False)


@pytest.mark.parametrize(
    "scheme,params",
    [
        ("kd_choice", {"n_bins": 16, "k": 3, "d": 12, "n_balls": 300}),
        ("kd_choice", {"n_bins": 200, "k": 16, "d": 193, "n_balls": 1600}),
        ("d_choice", {"n_bins": 50, "d": 49, "n_balls": 500}),
        ("two_choice", {"n_bins": 8, "n_balls": 400}),
        ("stale_kd_choice",
         {"n_bins": 16, "k": 3, "d": 12, "stale_rounds": 5, "n_balls": 300}),
    ],
)
def test_batched_paths_never_call_the_scalar_kernel(monkeypatch, scheme, params):
    # Whole rounds only (n_balls % k == 0): a partial tail round is a
    # per-unit step by design.
    reference = ORACLES[scheme](seed=4, **params)
    _forbid_scalar_kernel(monkeypatch)
    result = get_scheme(scheme).vectorized(seed=4, **params)
    assert np.array_equal(result.loads, reference.loads)


def _run(scheme, params, engine):
    return simulate(SchemeSpec(scheme=scheme, params=params, seed=5, engine=engine))


@pytest.mark.parametrize(
    "scheme,params",
    [
        ("locality_two_choice", {"n_bins": 64, "n_balls": 4000,
                                 "topology": "dual_zone", "bias": 0.5,
                                 "threshold": 1}),
        ("locality_two_choice", {"n_bins": 64, "n_balls": 3000, "d": 5,
                                 "topology": "wide", "bias": 0.3}),
        ("hierarchical_always_go_left", {"n_bins": 64, "n_balls": 4000, "d": 4}),
        ("hierarchical_always_go_left", {"n_bins": 64, "n_balls": 3000,
                                         "topology": "wide"}),
        ("threshold_adaptive", {"n_bins": 64, "n_balls": 4000}),
        ("threshold_adaptive", {"n_bins": 64, "n_balls": 4000, "threshold": 3,
                                "max_probes": 5}),
    ],
)
def test_per_ball_kernels_never_replay(monkeypatch, scheme, params):
    # High conflict: thousands of balls into 64 bins, so almost every
    # speculation window truncates.
    reference = ORACLES[scheme](**params, seed=5)

    def refuse(*args, **kwargs):
        raise AssertionError(f"{scheme}'s batched path replayed a ball")

    for module, name in (
        (topology_kernel, "locality_select"),
        (topology_kernel, "least_loaded_probe"),
        (adaptive_kernel, "threshold_place"),
    ):
        monkeypatch.setattr(module, name, refuse)
    result = _run(scheme, params, "vectorized")
    assert np.array_equal(result.loads, reference.loads)
    assert result.messages == reference.messages
    assert result.extra == {**reference.extra, "engine": "vectorized"}


@pytest.mark.parametrize(
    "params",
    [
        {"n_bins": 64, "k": 2, "d": 4, "n_balls": 4000},
        {"n_bins": 64, "k": 4, "d": 9, "n_balls": 4000, "weights": "pareto"},
        {"n_bins": 16, "k": 3, "d": 12, "n_balls": 3000},
    ],
)
def test_weighted_kernel_replays_only_repeated_samples(monkeypatch, params):
    # Spy on the oracle's round kernel for every round's samples.
    repeated = []
    scalar_round = weighted_oracle.weighted_round_apply

    def record(loads, counts, samples, *args, **kwargs):
        repeated.append(len(set(samples)) < len(samples))
        return scalar_round(loads, counts, samples, *args, **kwargs)

    monkeypatch.setattr(weighted_oracle, "weighted_round_apply", record)
    reference = ORACLES["weighted_kd_choice"](**params, seed=5)
    monkeypatch.undo()
    assert len(repeated) == params["n_balls"] // params["k"]

    calls = []

    def count(loads, counts, samples, *args, **kwargs):
        calls.append(samples)
        return scalar_round(loads, counts, samples, *args, **kwargs)

    monkeypatch.setattr(weighted_kernel, "weighted_round_apply", count)
    result = _run("weighted_kd_choice", params, "vectorized")
    assert np.array_equal(result.loads, reference.loads)
    assert np.array_equal(
        result.extra["weighted_loads"], reference.extra["weighted_loads"]
    )
    assert result.messages == reference.messages
    assert len(calls) == sum(repeated)
    assert all(len(set(samples)) < len(samples) for samples in calls)
