"""Serialized (k, d)-choice process ``A_σ`` (Definition 1 of the paper).

The round-based process places its ``k`` balls "simultaneously".  For the
analysis (and for the coupling arguments of Section 3), the paper serializes
each round: a permutation ``σ_r`` of ``{1, ..., k}`` fixes the order in which
the ``k`` balls of round ``r`` claim the ``k`` destination slots, so the bin
state is defined at every *ball time* ``t ∈ {1, ..., m}``, not only at round
boundaries.

Property (i) of Section 3 states that every serialization ``A_σ`` is
equivalent to the round process ``A`` — the end-of-round states coincide
under the natural coupling.  The implementation below realizes exactly that
coupling: a round's destination slots are computed once with the strict
policy, and ``σ_r`` only determines which ball (i.e. which time step) claims
which slot.  This gives per-ball heights and placement times for tests and
for the lower-bound experiments, while guaranteeing Property (i) by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .policies import StrictPolicy
from .state import BinState
from .types import AllocationResult, ProcessParams

__all__ = ["BallPlacement", "SerializedKDChoice", "run_serialized_kd_choice"]


@dataclass(frozen=True)
class BallPlacement:
    """Record of a single ball placement in the serialized process.

    Attributes
    ----------
    time:
        Ball time ``t`` (1-based), i.e. this was the ``t``-th ball placed.
    round_index:
        Round the ball belongs to (1-based).
    position_in_round:
        The ball's index ``s`` within its round (1-based), i.e. ``σ_r`` maps
        this position to a destination slot.
    bin_index:
        Physical bin that received the ball.
    height:
        Number of balls in the bin immediately after this placement.
    """

    time: int
    round_index: int
    position_in_round: int
    bin_index: int
    height: int


SigmaFactory = Callable[[int, int, np.random.Generator], Sequence[int]]
"""A callable ``(round_index, k, rng) -> permutation of range(k)``."""


def _identity_sigma(round_index: int, k: int, rng: np.random.Generator) -> Sequence[int]:
    return tuple(range(k))


def _reversed_sigma(round_index: int, k: int, rng: np.random.Generator) -> Sequence[int]:
    return tuple(reversed(range(k)))


def _random_sigma(round_index: int, k: int, rng: np.random.Generator) -> Sequence[int]:
    return tuple(int(x) for x in rng.permutation(k))


_NAMED_SIGMAS = {
    "identity": _identity_sigma,
    "reversed": _reversed_sigma,
    "random": _random_sigma,
}


class SerializedKDChoice:
    """Ball-at-a-time serialization ``A_σ`` of the (k, d)-choice process.

    Parameters
    ----------
    n_bins, k, d:
        Bins, balls per round and probes per round, ``1 <= k <= d <= n_bins``.
    sigma:
        Either a named strategy ("identity", "reversed", "random") or a
        callable ``(round_index, k, rng) -> permutation of range(k)``.
    seed, rng:
        Source of randomness.
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        sigma: "str | SigmaFactory" = "identity",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.rng = rng if rng is not None else np.random.default_rng(seed)
        if isinstance(sigma, str):
            try:
                self.sigma: SigmaFactory = _NAMED_SIGMAS[sigma]
            except KeyError as exc:
                raise ValueError(
                    f"unknown sigma strategy {sigma!r}; "
                    f"choose from {sorted(_NAMED_SIGMAS)}"
                ) from exc
        else:
            self.sigma = sigma
        self.sigma_name = sigma if isinstance(sigma, str) else getattr(
            sigma, "__name__", "custom"
        )
        self.state = BinState(n_bins)
        self.placements: List[BallPlacement] = []
        self.messages = 0
        self._policy = StrictPolicy()

    def run(self, n_balls: Optional[int] = None) -> AllocationResult:
        """Place ``n_balls`` balls (default ``n_bins``) and return the result.

        ``result.extra['placements']`` holds the full placement history.
        """
        if n_balls is None:
            n_balls = self.n_bins
        if n_balls % self.k != 0:
            raise ValueError(
                "the serialized process requires n_balls to be a multiple of k "
                f"(got n_balls={n_balls}, k={self.k}); the paper assumes k | n"
            )
        rounds = n_balls // self.k
        time = 0
        loads = self.state._loads

        for round_index in range(1, rounds + 1):
            samples = [
                int(s) for s in self.rng.integers(0, self.n_bins, size=self.d)
            ]
            self.messages += self.d
            # Destination slots for the round, least-loaded-first, exactly as
            # the strict policy computes them.
            slots = self._policy.select(loads, samples, self.k, self.rng)
            permutation = list(self.sigma(round_index, self.k, self.rng))
            if sorted(permutation) != list(range(self.k)):
                raise ValueError(
                    f"sigma produced {permutation!r}, not a permutation of "
                    f"range({self.k})"
                )
            for position, slot_index in enumerate(permutation, start=1):
                bin_index = slots[slot_index]
                time += 1
                height = self.state.place(bin_index)
                self.placements.append(
                    BallPlacement(
                        time=time,
                        round_index=round_index,
                        position_in_round=position,
                        bin_index=bin_index,
                        height=height,
                    )
                )

        return AllocationResult(
            loads=self.state.as_array(),
            scheme=f"serialized-({self.k},{self.d})-choice[{self.sigma_name}]",
            n_bins=self.n_bins,
            n_balls=self.state.total_balls,
            k=self.k,
            d=self.d,
            messages=self.messages,
            rounds=rounds,
            policy="strict",
            extra={"placements": self.placements},
        )

    # ------------------------------------------------------------------
    # Per-time accounting used by tests of Definition 1 quantities
    # ------------------------------------------------------------------
    def loads_at_time(self, t: int) -> np.ndarray:
        """Reconstruct the unsorted load vector right after ball ``t``.

        This is ``B^{A_σ}(t)`` from Definition 1 (before sorting).  ``t = 0``
        gives the empty configuration.
        """
        if not 0 <= t <= len(self.placements):
            raise ValueError(
                f"t must be in [0, {len(self.placements)}], got {t}"
            )
        loads = np.zeros(self.n_bins, dtype=np.int64)
        for placement in self.placements[:t]:
            loads[placement.bin_index] += 1
        return loads

    def sorted_loads_at_time(self, t: int) -> np.ndarray:
        """Sorted load vector ``B^{A_σ}_x(t)`` (descending in x)."""
        return np.sort(self.loads_at_time(t))[::-1]

    def height_of_ball(self, t: int) -> int:
        """Height of the ``t``-th ball (1-based)."""
        return self.placements[t - 1].height


def run_serialized_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    n_balls: Optional[int] = None,
    sigma: "str | SigmaFactory" = "identity",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Convenience wrapper: run ``A_σ`` once and return its result."""
    process = SerializedKDChoice(
        n_bins=n_bins, k=k, d=d, sigma=sigma, seed=seed, rng=rng
    )
    return process.run(n_balls=n_balls)
