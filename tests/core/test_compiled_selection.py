"""Row-by-row selection of the C round kernels against the scalar kernels.

The engine-equivalence harnesses compare whole runs (loads, messages, RNG
state).  These tests pin the selection itself: every row's destinations,
in ball order, for rows crowded with duplicate bins and bit-equal
tie-breaks, at probe widths on both sides of the C kernels' small-d
crossover (pairwise copy scan and insertion sort up to 32 probes, bin
table and bounded heap above).  The stale-epoch kernel is checked against
the scalar epoch rule: rows select against the epoch-start loads, and
each epoch's placements land at its end.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import compiled
from repro.core.compiled import backend_unavailable_reason
from repro.core.policies import strict_select
from repro.core.weighted import weighted_round_apply

_REASON = backend_unavailable_reason()
pytestmark = pytest.mark.skipif(
    _REASON is not None, reason=f"compiled backend unavailable: {_REASON}"
)

N_BINS = (1, 2, 3, 8)
WIDTHS = (2, 31, 32, 33, 49, 193, 300)
ROWS = 8


def _cases():
    for n_bins in N_BINS:
        for d in WIDTHS:
            for k in sorted({1, 2, d // 2, d - 1} - {0}):
                yield n_bins, d, k


CASES = list(_cases())
IDS = [f"n{n}-d{d}-k{k}" for n, d, k in CASES]


def _rows(n_bins, d, seed, rows=ROWS):
    """Duplicate-heavy samples and ties; odd rows draw ties from two values
    (row 1 from one), so many slots tie bit for bit."""
    rng = np.random.default_rng(seed)
    samples = rng.integers(0, n_bins, size=(rows, d))
    ties = rng.random((rows, d))
    ties[1] = 0.5
    ties[3::2] = rng.choice([0.25, 0.75], size=ties[3::2].shape)
    loads = rng.integers(0, 3, size=n_bins).astype(np.int64)
    return samples, ties, loads


@pytest.mark.parametrize("n_bins,d,k", CASES, ids=IDS)
def test_kd_rounds_match_strict_select(n_bins, d, k):
    samples, ties, loads = _rows(n_bins, d, seed=n_bins * 1000 + d * 10 + k)
    expected_loads = loads.copy()
    expected = []
    for row, tie in zip(samples, ties):
        dest = strict_select(expected_loads, row.tolist(), k, tie)
        for b in dest:
            expected_loads[b] += 1
        expected.append(dest)
    out = compiled.kd_rounds(loads, samples, ties, k)
    assert out.tolist() == expected
    assert np.array_equal(loads, expected_loads)


@pytest.mark.parametrize("n_bins,d,k", CASES, ids=IDS)
def test_select_rows_match_strict_select(n_bins, d, k):
    samples, ties, snapshot = _rows(n_bins, d, seed=n_bins * 1000 + d * 10 + k + 1)
    expected = [
        strict_select(snapshot, row.tolist(), k, tie)
        for row, tie in zip(samples, ties)
    ]
    before = snapshot.copy()
    out = compiled.select_rows(snapshot, samples, ties, k)
    assert out.tolist() == expected
    assert np.array_equal(snapshot, before)


EPOCHS = 4
EPOCH_CASES = [
    (n_bins, d, k, r)
    for n_bins in (3, 40)
    for d in (2, 9, 33, 193)
    for k in sorted({1, d // 2, d - 1})
    for r in (1, 5)
]
EPOCH_IDS = [f"n{n}-d{d}-k{k}-r{r}" for n, d, k, r in EPOCH_CASES]


@pytest.mark.parametrize("n_bins,d,k,r", EPOCH_CASES, ids=EPOCH_IDS)
def test_stale_epochs_match_per_epoch_reference(n_bins, d, k, r):
    samples, ties, loads = _rows(
        n_bins, d, seed=n_bins * 1000 + d * 10 + k + r, rows=EPOCHS * r
    )
    # Per epoch: every row against the epoch-start loads, then one commit.
    expected_loads = loads.copy()
    expected = []
    for first in range(0, EPOCHS * r, r):
        snapshot = expected_loads.copy()
        epoch = [
            strict_select(snapshot, row.tolist(), k, tie)
            for row, tie in zip(samples[first : first + r], ties[first : first + r])
        ]
        np.add.at(expected_loads, np.asarray(epoch).reshape(-1), 1)
        expected.extend(epoch)
    out = compiled.stale_epochs(loads, samples, ties, k, r)
    assert out.tolist() == expected
    assert np.array_equal(loads, expected_loads)


def test_stale_epochs_reject_bad_shapes():
    loads = np.zeros(8, dtype=np.int64)
    samples = np.zeros((6, 3), dtype=np.int64)
    ties = np.zeros((6, 3))
    with pytest.raises(ValueError, match="whole epochs"):
        compiled.stale_epochs(loads, samples, ties, 2, 4)
    with pytest.raises(ValueError, match="whole epochs"):
        compiled.stale_epochs(loads, samples, ties, 2, 0)
    with pytest.raises(ValueError, match="ties shaped like samples"):
        compiled.stale_epochs(loads, samples, np.zeros((6, 2)), 2, 3)
    with pytest.raises(ValueError, match="1 <= k <= d"):
        compiled.stale_epochs(loads, samples, ties, 4, 3)
    with pytest.raises(TypeError, match="in place"):
        compiled.stale_epochs(loads.astype(np.int32), samples, ties, 2, 3)
    assert not loads.any()


@pytest.mark.parametrize("n_bins,d,k", CASES, ids=IDS)
def test_weighted_rounds_match_weighted_round_apply(n_bins, d, k):
    samples, ties, counts = _rows(n_bins, d, seed=n_bins * 1000 + d * 10 + k + 2)
    rng = np.random.default_rng(d * 7 + k)
    # Small integer weights and loads keep many weighted heights bit-equal.
    weights = -np.sort(-rng.integers(1, 3, size=(ROWS, k)).astype(float), axis=1)
    increments = weights.mean(axis=1)
    loads = counts.astype(float)
    expected_loads, expected_counts = loads.copy(), counts.copy()
    expected = [
        weighted_round_apply(
            expected_loads, expected_counts, row.tolist(), tie, w, inc
        )
        for row, tie, w, inc in zip(samples, ties, weights, increments)
    ]
    out = compiled.weighted_rounds(loads, counts, samples, ties, weights, increments)
    assert out.tolist() == expected
    assert np.array_equal(loads, expected_loads)
    assert np.array_equal(counts, expected_counts)


def test_round_kernels_reject_bad_shapes():
    loads = np.zeros(8, dtype=np.int64)
    samples = np.zeros((2, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="1 <= k <= d"):
        compiled.kd_rounds(loads, samples, np.zeros((2, 3)), 4)
    with pytest.raises(ValueError, match="ties shaped like samples"):
        compiled.select_rows(loads, samples, np.zeros((2, 2)), 1)
    with pytest.raises(ValueError, match="increments"):
        compiled.weighted_rounds(
            loads.astype(float), loads, samples, np.zeros((2, 3)),
            np.ones((2, 2)), np.ones(3),
        )


def test_concurrent_calls_share_no_scratch():
    # cffi releases the GIL around the C calls, so threads run the round
    # kernels at once; per-call scratch keeps their results independent.
    jobs = []
    for index in range(6):
        rng = np.random.default_rng(index)
        d = (33, 193)[index % 2]
        samples = rng.integers(0, 50, size=(400, d))
        ties = rng.random((400, d))
        expected = compiled.kd_rounds(np.zeros(50, dtype=np.int64), samples, ties, 5)
        jobs.append((samples, ties, expected))
    results = [None] * len(jobs)

    def run(index):
        samples, ties, _ = jobs[index]
        for _ in range(20):
            out = compiled.kd_rounds(np.zeros(50, dtype=np.int64), samples, ties, 5)
            if results[index] is None or np.array_equal(results[index], out):
                results[index] = out
            else:
                results[index] = "diverged"

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(jobs))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for (_, _, expected), got in zip(jobs, results):
        assert isinstance(got, np.ndarray) and np.array_equal(got, expected)
