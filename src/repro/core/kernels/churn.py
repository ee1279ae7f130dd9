"""The dynamic insert/delete churn kernel (batch-only).

Churn has no per-item streaming form — departures are global events over
the whole allocation, so the scheme exposes no stepper and the generic
``drive`` loop does not apply.  Its kernel is the batch runner alone:
:func:`run_churn_allocation_vectorized` is the ``vectorized`` engine of
its kernel record.

Draw blocks (identical to :func:`~repro.core.dynamic.run_churn_kd_choice`):
one ``size=warmup_balls`` integer block, then per round a ``size=d`` sample
block, the strict tie-break doubles (``k < d`` only), and one integer per
departure.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

import numpy as np

from ..baselines import _make_rng
from ..dynamic import ChurnResult, ChurnSnapshot, allocation_from_churn
from ..policies import strict_select
from ..types import AllocationResult, ProcessParams
from .base import _require_strict

__all__ = ["run_churn_kd_choice_vectorized", "run_churn_allocation_vectorized"]


class _LoadIndex:
    """The load vector as a Fenwick tree plus a load histogram.

    Finding a departing ball's bin (the first bin whose cumulative load
    exceeds the ball's rank) and every +-1 update cost O(log n_bins), and
    the maximum load is tracked in O(1) per update, so a round costs
    nothing proportional to ``n_bins``.
    """

    def __init__(self, loads: np.ndarray) -> None:
        size = len(loads)
        # Node i (1-based) holds the loads of bins (i - lowbit(i), i].
        cumulative = np.concatenate(([0], np.cumsum(loads)))
        nodes = np.arange(size + 1)
        self._tree = array("q", (cumulative - cumulative[nodes - (nodes & -nodes)]).tolist())
        self._size = size
        self._top_step = 1 << (size.bit_length() - 1)
        self._histogram = np.bincount(loads).tolist()  # bins per load level
        self.max_load = len(self._histogram) - 1

    def add(self, bin_index: int, old_load: int, delta: int) -> None:
        tree, size = self._tree, self._size
        index = bin_index + 1
        while index <= size:
            tree[index] += delta
            index += index & -index
        histogram = self._histogram
        histogram[old_load] -= 1
        new_load = old_load + delta
        if new_load == len(histogram):
            histogram.append(0)
        histogram[new_load] += 1
        if new_load > self.max_load:
            self.max_load = new_load
        elif old_load == self.max_load and not histogram[old_load]:
            self.max_load = new_load

    def find(self, rank: int) -> int:
        """The first bin whose cumulative load exceeds ``rank``."""
        tree, size = self._tree, self._size
        position, step = 0, self._top_step
        while step:
            probe = position + step
            if probe <= size and tree[probe] <= rank:
                position = probe
                rank -= tree[probe]
            step >>= 1
        return position


def run_churn_kd_choice_vectorized(
    n_bins: int,
    k: int,
    d: int,
    rounds: int,
    departures_per_round: Optional[int] = None,
    policy: str = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
    warmup_balls: Optional[int] = None,
    snapshot_every: int = 16,
) -> ChurnResult:
    """Dynamic (k, d)-choice churn on the batch engine.

    Seed-for-seed identical to :func:`~repro.core.dynamic.run_churn_kd_choice`.
    The scalar process spends almost all its time scanning the load vector
    ball by ball to find each departing ball's bin; here that scan is one
    O(log n_bins) descent of a Fenwick tree over the loads per departure.
    """
    _require_strict(policy)
    ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
    departures_per_round = k if departures_per_round is None else departures_per_round
    if departures_per_round < 0:
        raise ValueError(
            f"departures_per_round must be non-negative, got {departures_per_round}"
        )
    if rounds < 0:
        raise ValueError(f"rounds must be non-negative, got {rounds}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
    generator = _make_rng(seed, rng)
    if warmup_balls is None:
        warmup_balls = n_bins

    loads = np.bincount(
        generator.integers(0, n_bins, size=warmup_balls), minlength=n_bins
    ).astype(np.int64)
    index = _LoadIndex(loads)
    total = warmup_balls
    messages = 0
    snapshots: List[ChurnSnapshot] = []

    for round_index in range(1, rounds + 1):
        # Arrivals: one (k, d)-choice round.
        samples = generator.integers(0, n_bins, size=d).tolist()
        messages += d
        if k == d:
            destinations = samples
        else:
            destinations = strict_select(loads, samples, k, generator.random(d))
        for bin_index in destinations:
            index.add(bin_index, int(loads[bin_index]), 1)
            loads[bin_index] += 1
        total += k

        # Departures: remove balls uniformly at random (by ball).  The
        # scalar scan "first bin with target < cumulative load" is exactly a
        # search for the first bin whose cumulative load exceeds the target.
        departures = min(departures_per_round, total)
        for _ in range(departures):
            bin_index = index.find(int(generator.integers(0, total)))
            index.add(bin_index, int(loads[bin_index]), -1)
            loads[bin_index] -= 1
            total -= 1

        if round_index % snapshot_every == 0 or round_index == rounds:
            snapshots.append(
                ChurnSnapshot(
                    round_index=round_index,
                    total_balls=total,
                    max_load=index.max_load,
                    average_load=total / n_bins,
                )
            )

    return ChurnResult(
        n_bins=n_bins,
        k=k,
        d=d,
        rounds=rounds,
        departures_per_round=departures_per_round,
        messages=messages,
        final_loads=np.asarray(loads, dtype=np.int64),
        snapshots=snapshots,
    )


def run_churn_allocation_vectorized(
    n_bins: int,
    k: int,
    d: int,
    rounds: int,
    departures_per_round: Optional[int] = None,
    policy: str = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Vectorized churn run adapted to the common :class:`AllocationResult`.

    The raw :class:`~repro.core.dynamic.ChurnResult` (snapshots,
    steady-state statistics) rides along in ``extra["churn_result"]``,
    exactly as the scalar runner reports it.
    """
    churn = run_churn_kd_choice_vectorized(
        n_bins=n_bins,
        k=k,
        d=d,
        rounds=rounds,
        departures_per_round=departures_per_round,
        policy=policy,
        seed=seed,
        rng=rng,
    )
    return allocation_from_churn(churn, n_bins, k, d, policy)
