"""Baseline allocation processes the paper compares (k, d)-choice against.

The per-ball baselines — Greedy[d] and two-choice
(:mod:`repro.core.kernels.kd`), (1 + β)-choice and Always-Go-Left
(:mod:`repro.core.kernels.balls`) — are defined by their kernel steppers,
which share this module's block size, generator helper and probe kernel.
Two baselines keep a runner of their own, because it is one ``bincount``:

``run_single_choice``
    The classic single-choice process: each ball goes to one uniformly random
    bin.  Maximum load ``(1 + o(1)) ln n / ln ln n`` w.h.p. [Raab & Steger].
``run_batch_random``
    ``SA(k, k)``: ``k`` balls per round, each to a uniformly random bin.
    Distribution-identical to single choice; used by the analysis (Lemma 3)
    and by tests of the majorization chain.

Every scheme reports an :class:`~repro.core.types.AllocationResult` whose
``messages`` field counts bin probes, so the trade-off experiments can compare
message cost across schemes on an equal footing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .types import AllocationResult

__all__ = [
    "run_single_choice",
    "run_batch_random",
    "least_loaded_probe",
]

#: Balls per RNG block for the per-ball schemes, shared (by import) by their
#: kernels: every engine of a scheme draws these same blocks.
_CHUNK = 8192


def _make_rng(
    seed: "int | np.random.SeedSequence | None",
    rng: Optional[np.random.Generator],
) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(seed)


def least_loaded_probe(loads, row) -> int:
    """First least-loaded bin of ``row`` (strict ``<`` scan, earliest wins).

    The per-ball kernel of the Always-Go-Left steppers (and of two-phase's
    fallback), in ``step()`` and in their conflict replay; the
    earliest-minimum rule is what makes ties "go left".
    """
    best_bin = row[0]
    best_load = loads[best_bin]
    for bin_index in row[1:]:
        load = loads[bin_index]
        if load < best_load:
            best_load = load
            best_bin = bin_index
    return best_bin


def run_single_choice(
    n_bins: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Classic single-choice balls-into-bins.

    Fully vectorized: the destination of every ball is independent, so the
    final load vector is a single multinomial draw realized via ``bincount``.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if n_balls is None:
        n_balls = n_bins
    if n_balls < 0:
        raise ValueError(f"n_balls must be non-negative, got {n_balls}")
    generator = _make_rng(seed, rng)
    choices = generator.integers(0, n_bins, size=n_balls)
    loads = np.bincount(choices, minlength=n_bins)
    return AllocationResult(
        loads=loads,
        scheme="single-choice",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=1,
        messages=n_balls,
        rounds=n_balls,
        policy="uniform",
    )


def run_batch_random(
    n_bins: int,
    k: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """The paper's ``SA(k, k)``: per round, ``k`` balls each to a random bin.

    The end state is distribution-identical to single choice with the same
    number of balls; the scheme exists as a separate entry point because the
    analysis (Lemma 3 and the lower bound of Section 5) compares (k, d)-choice
    against exactly this process.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    result = run_single_choice(n_bins=n_bins, n_balls=n_balls, seed=seed, rng=rng)
    result.scheme = f"batch-random[k={k}]"
    result.k = k
    result.d = k
    result.rounds = -(-result.n_balls // k)
    return result
