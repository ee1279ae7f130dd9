"""Oracle: the hand-written stale-information (k, d)-choice runner.

The paper positions (k, d)-choice as a *semi-parallel* process: the k balls
of a round share one probe wave, but rounds are still sequential and every
probe sees fresh loads.  Fully parallel balanced allocations (Adler et al.;
Berenbrink et al., RANDOM 2012 — both cited) must cope with *stale* load
information: many balls commit based on the same snapshot before any of them
lands.

This module implements that extension: rounds are grouped into *epochs* of
``stale_rounds`` rounds; every probe within an epoch sees the bin loads as
they were at the start of the epoch, and all placements of the epoch are
applied at its end.  ``stale_rounds = 1`` recovers the paper's process
exactly; larger values quantify how much the guarantee degrades as the
synchrony assumption weakens — the question the parallel-allocation line of
work answers analytically.

An independent scalar reference kept for the tests (the library runs the
kernel stepper's ``step()`` loop); it imports nothing from
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.policies import AllocationPolicy, get_policy, strict_select
from repro.core.types import AllocationResult, ProcessParams

__all__ = ["StaleKDChoiceProcess", "run_stale_kd_choice"]


class StaleKDChoiceProcess:
    """(k, d)-choice where probes within an epoch see a stale load snapshot.

    Parameters
    ----------
    n_bins, k, d, policy, seed, rng:
        As for :class:`oracles.process.KDChoiceProcess`.
    stale_rounds:
        Number of rounds per epoch.  All rounds of an epoch probe the bin
        loads as of the epoch start; their placements are applied together at
        the epoch end.  ``1`` = the paper's sequential-round process.
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        stale_rounds: int = 1,
        policy: "str | AllocationPolicy" = "strict",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        if stale_rounds < 1:
            raise ValueError(f"stale_rounds must be at least 1, got {stale_rounds}")
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.stale_rounds = stale_rounds
        self.policy = get_policy(policy)
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def run(self, n_balls: Optional[int] = None) -> AllocationResult:
        """Place ``n_balls`` balls (default ``n_bins``) and return the result."""
        if n_balls is None:
            n_balls = self.n_bins
        loads = [0] * self.n_bins
        messages = 0
        rounds = 0
        placed = 0
        rng = self.rng
        strict = self.policy.name == "strict"
        select = self.policy.select

        while placed < n_balls:
            # Snapshot at epoch start: probes in this epoch see these loads.
            snapshot = list(loads)
            pending: list[int] = []
            # The whole epoch's samples are one RNG block (then, for the
            # strict policy, one matching tie-break block); NumPy fills both
            # element-sequentially, so the vectorized engine can draw the
            # same blocks and stay stream-identical.  With k == d the strict
            # policy draws no tie-breaks for full rounds, mirroring the
            # plain process.  Non-strict policies draw through the policy
            # object round by round (they stay scalar-only).
            epoch_rounds = min(
                self.stale_rounds, -(-(n_balls - placed) // self.k)
            )
            samples_block = rng.integers(
                0, self.n_bins, size=(epoch_rounds, self.d)
            )
            ties_block = (
                rng.random((epoch_rounds, self.d))
                if strict and self.k < self.d
                else None
            )
            for row in range(epoch_rounds):
                batch = min(self.k, n_balls - placed)
                samples = samples_block[row].tolist()
                messages += self.d
                rounds += 1
                if not strict:
                    destinations = select(snapshot, samples, batch, rng)
                elif batch == self.d:
                    destinations = samples
                elif ties_block is not None:
                    destinations = strict_select(
                        snapshot, samples, batch, ties_block[row]
                    )
                else:  # k == d but a partial final round
                    destinations = strict_select(
                        snapshot, samples, batch, rng.random(self.d)
                    )
                pending.extend(destinations)
                placed += batch
            for bin_index in pending:
                loads[bin_index] += 1

        return AllocationResult(
            loads=np.asarray(loads, dtype=np.int64),
            scheme=(
                f"stale-({self.k},{self.d})-choice"
                f"[epoch={self.stale_rounds} rounds]"
            ),
            n_bins=self.n_bins,
            n_balls=n_balls,
            k=self.k,
            d=self.d,
            messages=messages,
            rounds=rounds,
            policy=self.policy.name,
            extra={"stale_rounds": self.stale_rounds},
        )


def run_stale_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    stale_rounds: int = 1,
    n_balls: Optional[int] = None,
    policy: "str | AllocationPolicy" = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """One-call wrapper around :class:`StaleKDChoiceProcess`."""
    process = StaleKDChoiceProcess(
        n_bins=n_bins,
        k=k,
        d=d,
        stale_rounds=stale_rounds,
        policy=policy,
        seed=seed,
        rng=rng,
    )
    return process.run(n_balls=n_balls)
