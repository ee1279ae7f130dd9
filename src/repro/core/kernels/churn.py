"""The dynamic insert/delete churn kernel (batch-only).

Churn has no per-item streaming form — departures are global events over
the whole allocation, so the scheme exposes no stepper and the generic
``drive`` loop does not apply.  Its kernel is the batch runner alone:
:func:`run_churn_allocation_vectorized` is the ``vectorized=`` engine the
kernel table registers for it.

Draw blocks (identical to :func:`~repro.core.dynamic.run_churn_kd_choice`):
one ``size=warmup_balls`` integer block, then per round a ``size=d`` sample
block, the strict tie-break doubles (``k < d`` only), and one integer per
departure.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..baselines import _make_rng
from ..dynamic import ChurnResult, ChurnSnapshot, allocation_from_churn
from ..policies import strict_select
from ..types import AllocationResult, ProcessParams
from .base import _require_strict

__all__ = ["run_churn_kd_choice_vectorized", "run_churn_allocation_vectorized"]


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
    ``cumsum``/``searchsorted`` pair per departure.
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
            loads[bin_index] += 1
        total += k

        # Departures: remove balls uniformly at random (by ball).  The
        # scalar scan "first bin with target < cumulative load" is exactly a
        # right-bisect into the cumulative sum.
        departures = min(departures_per_round, total)
        for _ in range(departures):
            target = int(generator.integers(0, total))
            cumulative = np.cumsum(loads)
            bin_index = int(np.searchsorted(cumulative, target, side="right"))
            loads[bin_index] -= 1
            total -= 1

        if round_index % snapshot_every == 0 or round_index == rounds:
            snapshots.append(
                ChurnSnapshot(
                    round_index=round_index,
                    total_balls=total,
                    max_load=int(loads.max()),
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
