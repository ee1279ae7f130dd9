"""Oracle: the hand-written (k, d)-choice runner.

In each of ``m / k`` rounds, ``d`` bins are chosen independently and
uniformly at random (with replacement) and ``k`` balls are placed into the
``k`` least loaded of them, subject to the multiplicity cap "a bin sampled
``m`` times receives at most ``m`` balls" (implemented by
:class:`repro.core.policies.StrictPolicy`).

This is an independent scalar reference kept for the tests: the library's
scalar engine is the kernel stepper's ``step()`` loop
(:func:`repro.core.kernels.table.drive`), and the equivalence harnesses
compare every engine against this loop seed for seed.  It imports nothing
from :mod:`repro.core.kernels`; the ``capacities`` variant is defined by
the kernel alone and is not modelled here.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.core.policies import AllocationPolicy, get_policy
from repro.core.state import BinState
from repro.core.types import AllocationResult, ProcessParams

__all__ = ["KDChoiceProcess", "run_kd_choice", "run_greedy_kd_choice"]

# Number of rounds whose random samples are drawn from the generator in one
# NumPy call.  Chunking keeps memory bounded (a full Table-1 run with k = 1,
# d = 193 would otherwise materialize ~200k x 193 integers at once).
_DEFAULT_CHUNK_ROUNDS = 4096


class KDChoiceProcess:
    """Round-based (k, d)-choice allocation.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    k:
        Balls placed per round; ``1 <= k <= d``.
    d:
        Bins probed per round; ``d <= n_bins``.
    policy:
        "strict" (the paper's rule), "greedy" (Section 7 relaxation), or an
        :class:`~repro.core.policies.AllocationPolicy` instance.
    seed:
        Integer seed, :class:`numpy.random.SeedSequence`, or ``None`` for a
        nondeterministic run.
    rng:
        Alternatively, an existing :class:`numpy.random.Generator` (takes
        precedence over ``seed``).

    Examples
    --------
    >>> process = KDChoiceProcess(n_bins=1024, k=4, d=8, seed=7)
    >>> result = process.run()
    >>> result.max_load >= 1
    True
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        policy: "str | AllocationPolicy" = "strict",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        chunk_rounds: int = _DEFAULT_CHUNK_ROUNDS,
    ) -> None:
        # ProcessParams performs the parameter validation; the ball count is
        # only known at run() time (n_balls=None = "unknown yet").
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        if chunk_rounds <= 0:
            raise ValueError(f"chunk_rounds must be positive, got {chunk_rounds}")

        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.policy = get_policy(policy)
        self.chunk_rounds = chunk_rounds
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        self.state = BinState(n_bins)
        self.rounds_executed = 0
        self.messages = 0

    # ------------------------------------------------------------------
    # Round execution
    # ------------------------------------------------------------------
    def run_round(self, samples: Optional[np.ndarray] = None) -> list[int]:
        """Execute one round and return the destination bins chosen.

        ``samples`` may be supplied explicitly (used by coupling experiments
        and tests); otherwise ``d`` bins are drawn uniformly at random with
        replacement.
        """
        if samples is None:
            samples = self.rng.integers(0, self.n_bins, size=self.d)
        sample_list = [int(s) for s in samples]
        if len(sample_list) != self.d:
            raise ValueError(
                f"expected {self.d} samples, got {len(sample_list)}"
            )
        destinations = self.policy.select(
            self.state._loads, sample_list, self.k, self.rng
        )
        for bin_index in destinations:
            self.state.place(bin_index)
        self.rounds_executed += 1
        self.messages += self.d
        return destinations

    def _sample_chunks(self, rounds: int) -> Iterator[np.ndarray]:
        """Yield chunks of pre-generated round samples."""
        remaining = rounds
        while remaining > 0:
            batch = min(remaining, self.chunk_rounds)
            yield self.rng.integers(0, self.n_bins, size=(batch, self.d))
            remaining -= batch

    def run(self, n_balls: Optional[int] = None) -> AllocationResult:
        """Run the process until ``n_balls`` balls have been placed.

        ``n_balls`` defaults to ``n_bins`` (the lightly loaded case analysed
        by Theorem 1).  If ``n_balls`` is not a multiple of ``k``, the final
        round places only the remaining ``n_balls mod k`` balls (still probing
        ``d`` bins), which matches the paper's convention of choosing ``k``
        dividing ``n``.
        """
        if n_balls is None:
            n_balls = self.n_bins
        params = ProcessParams(
            n_bins=self.n_bins,
            n_balls=n_balls,
            k=self.k,
            d=self.d,
            policy=self.policy.name,
        )

        full_rounds, tail_balls = divmod(n_balls, self.k)
        loads = self.state._loads  # local alias for speed
        select = self.policy.select
        k = self.k
        rng = self.rng

        for chunk in self._sample_chunks(full_rounds):
            for row in chunk.tolist():
                destinations = select(loads, row, k, rng)
                for bin_index in destinations:
                    loads[bin_index] += 1
                self.state._total += k
                self.rounds_executed += 1
                self.messages += self.d

        if tail_balls:
            samples = self.rng.integers(0, self.n_bins, size=self.d).tolist()
            destinations = select(loads, samples, tail_balls, rng)
            for bin_index in destinations:
                loads[bin_index] += 1
            self.state._total += tail_balls
            self.rounds_executed += 1
            self.messages += self.d

        return AllocationResult(
            loads=np.asarray(loads, dtype=np.int64),
            scheme=f"({self.k},{self.d})-choice",
            n_bins=self.n_bins,
            n_balls=self.state.total_balls,
            k=self.k,
            d=self.d,
            messages=self.messages,
            rounds=self.rounds_executed,
            policy=self.policy.name,
            extra={"expected_messages": params.message_cost},
        )


def run_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    n_balls: Optional[int] = None,
    policy: "str | AllocationPolicy" = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
    chunk_rounds: Optional[int] = None,
) -> AllocationResult:
    """Run a complete (k, d)-choice allocation and return its result.

    Parameters
    ----------
    n_bins:
        Number of bins ``n``.
    k, d:
        Round size and probe count, ``1 <= k <= d <= n_bins``.
    n_balls:
        Number of balls ``m`` (default ``n_bins``).
    policy:
        "strict" or "greedy" (or a policy object).
    seed, rng:
        Source of randomness.
    chunk_rounds:
        Rounds whose samples are drawn per RNG block (default 4096).  This
        bounds the sample-buffer memory at ``O(chunk_rounds * d)``; the
        random stream (and therefore the result) depends on it, so compare
        engines only at equal ``chunk_rounds``.

    Examples
    --------
    >>> result = run_kd_choice(n_bins=4096, k=8, d=16, seed=42)
    >>> result.total_balls_check()
    True
    """
    process = KDChoiceProcess(
        n_bins=n_bins, k=k, d=d, policy=policy, seed=seed, rng=rng,
        chunk_rounds=_DEFAULT_CHUNK_ROUNDS if chunk_rounds is None else chunk_rounds,
    )
    return process.run(n_balls=n_balls)


def run_greedy_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """(k, d)-choice under the greedy water-filling relaxation."""
    return run_kd_choice(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, policy="greedy", seed=seed, rng=rng
    )
