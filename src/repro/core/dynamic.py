"""Dynamic (k, d)-choice: balls arrive in rounds and depart over time.

Both applications in the paper's Section 1.3 are dynamic systems — tasks
finish and files get deleted — whereas the analysis covers the one-shot
insertion process.  This module implements the standard dynamic extension
studied in the balanced-allocations literature (the "supermarket"-style
insert/delete model): the system alternates between

* an *arrival* round, in which ``k`` balls are placed with the (k, d)-choice
  rule, and
* ``departures_per_round`` uniformly random ball removals (a random occupied
  bin loses one ball, i.e. each currently present ball is equally likely to
  leave when removal is by ball).

With arrivals and departures balanced the total load fluctuates around a
steady state; the quantity of interest is the *gap* between the maximum and
the average load over time, mirroring the heavily loaded analysis (Theorem 2)
which this process converges to when departures are disabled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .policies import AllocationPolicy, get_policy
from .types import AllocationResult, ProcessParams

__all__ = [
    "ChurnSnapshot",
    "ChurnResult",
    "DynamicKDChoiceProcess",
    "run_churn_kd_choice",
    "allocation_from_churn",
]


@dataclass(frozen=True)
class ChurnSnapshot:
    """Periodic snapshot of the dynamic system."""

    round_index: int
    total_balls: int
    max_load: int
    average_load: float

    @property
    def gap(self) -> float:
        return self.max_load - self.average_load


@dataclass
class ChurnResult:
    """Outcome of a dynamic run."""

    n_bins: int
    k: int
    d: int
    rounds: int
    departures_per_round: int
    messages: int
    final_loads: np.ndarray
    snapshots: List[ChurnSnapshot]

    @property
    def final_max_load(self) -> int:
        return int(self.final_loads.max()) if self.final_loads.size else 0

    @property
    def final_gap(self) -> float:
        if self.final_loads.size == 0:
            return 0.0
        return float(self.final_loads.max() - self.final_loads.mean())

    def steady_state_gap(self, warmup_fraction: float = 0.5) -> float:
        """Mean gap over the snapshots taken after the warm-up period."""
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError(
                f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
            )
        if not self.snapshots:
            return self.final_gap
        start = int(len(self.snapshots) * warmup_fraction)
        tail = self.snapshots[start:] or self.snapshots
        return float(np.mean([snapshot.gap for snapshot in tail]))

    def steady_state_max_load(self, warmup_fraction: float = 0.5) -> float:
        """Mean maximum load over the post-warm-up snapshots."""
        if not self.snapshots:
            return float(self.final_max_load)
        start = int(len(self.snapshots) * warmup_fraction)
        tail = self.snapshots[start:] or self.snapshots
        return float(np.mean([snapshot.max_load for snapshot in tail]))


class DynamicKDChoiceProcess:
    """Insert/delete (k, d)-choice process.

    Parameters
    ----------
    n_bins, k, d, policy, seed, rng:
        As for the ``kd_choice`` scheme: bins, balls and probes per round
        (``1 <= k <= d <= n_bins``), the policy and the randomness source.
    departures_per_round:
        Number of uniformly random ball removals performed after each arrival
        round.  ``departures_per_round = k`` keeps the population stable once
        the target load is reached; smaller values let it grow.
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        departures_per_round: int = 0,
        policy: "str | AllocationPolicy" = "strict",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        if departures_per_round < 0:
            raise ValueError(
                f"departures_per_round must be non-negative, got {departures_per_round}"
            )
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.departures_per_round = departures_per_round
        self.policy = get_policy(policy)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def run(
        self,
        rounds: int,
        warmup_balls: Optional[int] = None,
        snapshot_every: int = 16,
    ) -> ChurnResult:
        """Run ``rounds`` arrival rounds (each followed by departures).

        Parameters
        ----------
        warmup_balls:
            Balls pre-loaded uniformly at random before the dynamics start
            (default ``n_bins``, i.e. average load 1).
        snapshot_every:
            Record a :class:`ChurnSnapshot` every this many rounds.
        """
        if rounds < 0:
            raise ValueError(f"rounds must be non-negative, got {rounds}")
        if snapshot_every < 1:
            raise ValueError(f"snapshot_every must be positive, got {snapshot_every}")
        rng = self.rng
        if warmup_balls is None:
            warmup_balls = self.n_bins
        loads = np.bincount(
            rng.integers(0, self.n_bins, size=warmup_balls), minlength=self.n_bins
        ).tolist()
        total = warmup_balls
        messages = 0
        snapshots: List[ChurnSnapshot] = []
        select = self.policy.select

        for round_index in range(1, rounds + 1):
            # Arrivals: one (k, d)-choice round.
            samples = [int(s) for s in rng.integers(0, self.n_bins, size=self.d)]
            messages += self.d
            for bin_index in select(loads, samples, self.k, rng):
                loads[bin_index] += 1
            total += self.k

            # Departures: remove balls uniformly at random (by ball).
            departures = min(self.departures_per_round, total)
            for _ in range(departures):
                target = rng.integers(0, total)
                cumulative = 0
                for bin_index, load in enumerate(loads):
                    cumulative += load
                    if target < cumulative:
                        loads[bin_index] -= 1
                        total -= 1
                        break

            if round_index % snapshot_every == 0 or round_index == rounds:
                max_load = max(loads)
                snapshots.append(
                    ChurnSnapshot(
                        round_index=round_index,
                        total_balls=total,
                        max_load=max_load,
                        average_load=total / self.n_bins,
                    )
                )

        return ChurnResult(
            n_bins=self.n_bins,
            k=self.k,
            d=self.d,
            rounds=rounds,
            departures_per_round=self.departures_per_round,
            messages=messages,
            final_loads=np.asarray(loads, dtype=np.int64),
            snapshots=snapshots,
        )


def run_churn_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    rounds: int,
    departures_per_round: Optional[int] = None,
    policy: "str | AllocationPolicy" = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> ChurnResult:
    """One-call wrapper: balanced churn by default (departures = k)."""
    process = DynamicKDChoiceProcess(
        n_bins=n_bins,
        k=k,
        d=d,
        departures_per_round=k if departures_per_round is None else departures_per_round,
        policy=policy,
        seed=seed,
        rng=rng,
    )
    return process.run(rounds=rounds)


def allocation_from_churn(
    churn: ChurnResult, n_bins: int, k: int, d: int, policy: "str | AllocationPolicy"
) -> AllocationResult:
    """Adapt a :class:`ChurnResult` to the common :class:`AllocationResult`.

    The steady-state loads become the allocation; the full churn record
    (snapshots, steady-state statistics) rides along in
    ``extra["churn_result"]``.  Shared by the scalar registry runner and the
    kernel-derived batch engine so the two report identical shapes.
    """
    return AllocationResult(
        loads=churn.final_loads,
        scheme=f"churn-({k},{d})-choice",
        n_bins=n_bins,
        n_balls=int(churn.final_loads.sum()),
        k=k,
        d=d,
        messages=churn.messages,
        rounds=churn.rounds,
        policy="strict" if policy == "strict" else str(policy),
        extra={
            "churn_result": churn,
            "steady_state_gap": churn.steady_state_gap(),
            "departures_per_round": churn.departures_per_round,
        },
    )
