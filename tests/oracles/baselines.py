"""Oracle: the hand-written Greedy[d], (1 + β)-choice and Always-Go-Left runners.

``run_d_choice``
    Azar et al.'s Greedy[d]: each ball probes ``d`` random bins and joins the
    least loaded (the (1, d)-choice special case of :func:`run_kd_choice`).
``run_two_choice``
    Greedy[2].
``run_one_plus_beta``
    Peres, Talwar & Wieder's (1 + β)-choice: each ball uses two-choice with
    probability β and single-choice otherwise.
``run_always_go_left``
    Vöcking's asymmetric Always-Go-Left scheme with ``d`` groups.

Independent scalar references kept for the tests (the library runs the
kernel steppers' ``step()`` loops); they share the block size and probe
kernel of :mod:`repro.core.baselines` and import nothing from
:mod:`repro.core.kernels`.  The ``capacities`` variants are defined by the
kernels alone and are not modelled here.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.baselines import _CHUNK, _make_rng, least_loaded_probe
from repro.core.types import AllocationResult

from .process import run_kd_choice

__all__ = [
    "run_d_choice",
    "run_two_choice",
    "run_one_plus_beta",
    "run_always_go_left",
]


def run_d_choice(
    n_bins: int,
    d: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Azar et al.'s Greedy[d] (the standard multiple-choice process).

    This is exactly the (1, d)-choice special case of the library's main
    process; the wrapper exists so baseline comparisons read naturally and
    report the conventional scheme name.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    result = run_kd_choice(
        n_bins=n_bins, k=1, d=d, n_balls=n_balls, seed=seed, rng=rng
    )
    result.scheme = f"greedy[{d}]"
    return result


def run_two_choice(
    n_bins: int,
    n_balls: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Two-choice (Greedy[2]) via the d-choice baseline."""
    return run_d_choice(n_bins=n_bins, d=2, n_balls=n_balls, seed=seed, rng=rng)


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
) -> AllocationResult:
    """Vöcking's Always-Go-Left asymmetric d-choice scheme.

    The bins are split into ``d`` contiguous groups of (almost) equal size;
    each ball probes one uniformly random bin per group and joins a least
    loaded probed bin, breaking ties towards the leftmost (lowest index)
    group.
    """
    if d < 1:
        raise ValueError(f"d must be at least 1, got {d}")
    if n_bins < d:
        raise ValueError(f"need n_bins >= d groups, got n_bins={n_bins}, d={d}")
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
