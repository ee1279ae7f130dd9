"""Baseline allocation processes the paper compares (k, d)-choice against.

Implemented schemes
-------------------
``run_single_choice``
    The classic single-choice process: each ball goes to one uniformly random
    bin.  Maximum load ``(1 + o(1)) ln n / ln ln n`` w.h.p. [Raab & Steger].
``run_d_choice``
    Azar et al.'s Greedy[d]: each ball probes ``d`` random bins and joins the
    least loaded.  Maximum load ``ln ln n / ln d + O(1)`` w.h.p.
``run_one_plus_beta``
    Peres, Talwar & Wieder's (1 + β)-choice: each ball uses two-choice with
    probability β and single-choice otherwise.  Included because the paper
    positions (k, d)-choice as a different single/multi-choice mix.
``run_always_go_left``
    Vöcking's asymmetric Always-Go-Left scheme with ``d`` groups, the best
    known non-adaptive d-probe scheme (``ln ln n / (d ln φ_d) + O(1)``).
``run_batch_random``
    ``SA(k, k)``: ``k`` balls per round, each to a uniformly random bin.
    Distribution-identical to single choice; used by the analysis (Lemma 3)
    and by tests of the majorization chain.

Every function returns an :class:`~repro.core.types.AllocationResult` whose
``messages`` field counts bin probes, so the trade-off experiments can compare
message cost across schemes on an equal footing.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .process import run_kd_choice
from .types import AllocationResult

__all__ = [
    "run_single_choice",
    "run_d_choice",
    "run_one_plus_beta",
    "run_always_go_left",
    "run_batch_random",
    "least_loaded_probe",
]

#: Balls per RNG block for the per-ball schemes.  Shared (by import) with
#: :mod:`repro.core.adaptive` and the vectorized engines: bit-for-bit engine
#: equivalence depends on both sides drawing identical blocks.
_CHUNK = 8192


def _make_rng(
    seed: "int | np.random.SeedSequence | None",
    rng: Optional[np.random.Generator],
) -> np.random.Generator:
    return rng if rng is not None else np.random.default_rng(seed)


def least_loaded_probe(loads, row) -> int:
    """First least-loaded bin of ``row`` (strict ``<`` scan, earliest wins).

    The per-ball kernel shared by the scalar Always-Go-Left loop and the
    vectorized engine's conflict replay; the earliest-minimum rule is what
    makes ties "go left".
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


def run_d_choice(
    n_bins: int,
    d: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
    capacities: Optional[np.ndarray] = None,
) -> AllocationResult:
    """Azar et al.'s Greedy[d] (the standard multiple-choice process).

    This is exactly the (1, d)-choice special case of the library's main
    process; the wrapper exists so baseline comparisons read naturally and
    report the conventional scheme name.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    result = run_kd_choice(
        n_bins=n_bins, k=1, d=d, n_balls=n_balls, seed=seed, rng=rng,
        capacities=capacities,
    )
    result.scheme = f"greedy[{d}]"
    return result


def run_one_plus_beta(
    n_bins: int,
    beta: float,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """The (1 + β)-choice process of Peres, Talwar and Wieder (SODA 2010).

    Each ball flips a β-coin: with probability β it performs two-choice
    (probe two bins, join the lesser loaded), otherwise it joins a single
    uniformly random bin.
    """
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if n_balls is None:
        n_balls = n_bins
    generator = _make_rng(seed, rng)

    loads = [0] * n_bins
    messages = 0
    remaining = n_balls
    while remaining > 0:
        batch = min(remaining, _CHUNK)
        coins = generator.random(batch) < beta
        first = generator.integers(0, n_bins, size=batch)
        second = generator.integers(0, n_bins, size=batch)
        for use_two, a, b in zip(coins.tolist(), first.tolist(), second.tolist()):
            if use_two:
                messages += 2
                target = a if loads[a] <= loads[b] else b
            else:
                messages += 1
                target = a
            loads[target] += 1
        remaining -= batch

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme=f"(1+{beta:g})-choice",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=2,
        messages=messages,
        rounds=n_balls,
        policy="mixed",
        extra={"beta": beta},
    )


def run_always_go_left(
    n_bins: int,
    d: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
    capacities: Optional[np.ndarray] = None,
) -> AllocationResult:
    """Vöcking's Always-Go-Left asymmetric d-choice scheme.

    The bins are split into ``d`` contiguous groups of (almost) equal size;
    each ball probes one uniformly random bin per group and joins a least
    loaded probed bin, breaking ties towards the leftmost (lowest index)
    group.  ``capacities`` (the ``hetero_bins`` workload) switches the
    comparison to fractional fill ``(load + 1) / capacity``.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n_bins < d:
        raise ValueError(f"need n_bins >= d groups, got n_bins={n_bins}, d={d}")
    if capacities is not None:
        # The fill-aware variant is defined by the streaming kernel
        # (AlwaysGoLeftStepper.step); the batch drive loop declines its
        # batched apply under capacities, so this runs the per-ball
        # reference path with the identical draw blocks.
        from .kernels.table import KERNELS, drive

        result = drive(
            KERNELS["always_go_left"], "vectorized",
            n_bins=n_bins, d=d, n_balls=n_balls, seed=seed, rng=rng,
            capacities=capacities,
        )
        result.extra.pop("engine", None)
        return result
    if n_balls is None:
        n_balls = n_bins
    generator = _make_rng(seed, rng)

    # Group g covers bins [boundaries[g], boundaries[g+1]).
    boundaries = np.linspace(0, n_bins, d + 1).astype(np.int64)
    group_sizes = np.diff(boundaries)
    if np.any(group_sizes == 0):
        raise ValueError("every group must contain at least one bin")

    loads = [0] * n_bins
    messages = 0
    remaining = n_balls
    while remaining > 0:
        batch = min(remaining, _CHUNK)
        # One uniform draw per (ball, group), scaled into each group's range.
        uniform = generator.random(size=(batch, d))
        probes = (boundaries[:-1] + uniform * group_sizes).astype(np.int64)
        for row in probes.tolist():
            messages += d
            loads[least_loaded_probe(loads, row)] += 1
        remaining -= batch

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme=f"always-go-left[{d}]",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=d,
        messages=messages,
        rounds=n_balls,
        policy="asymmetric",
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
