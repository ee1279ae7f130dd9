"""Oracle: the hand-written adaptive comparator runners.

``run_threshold_adaptive``
    Probe random bins one at a time; commit to the first bin whose load is at
    most a threshold, falling back to the best probed bin after ``max_probes``
    probes.

``run_two_phase_adaptive``
    Every ball first probes one random bin and commits if the bin is below a
    cap; the few balls that fail retry with ``retry_probes`` probes and join
    the least loaded.

Independent scalar references kept for the tests (the library runs the
kernel steppers' ``step()`` loops); they share the per-ball kernels of
:mod:`repro.core.adaptive` and import nothing from
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.adaptive import threshold_place, two_phase_place
from repro.core.baselines import _CHUNK, _make_rng
from repro.core.types import AllocationResult

__all__ = ["run_threshold_adaptive", "run_two_phase_adaptive"]


def run_threshold_adaptive(
    n_bins: int,
    n_balls: Optional[int] = None,
    threshold: "int | Callable[[float], int] | None" = None,
    max_probes: Optional[int] = None,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Adaptive threshold probing (Czumaj–Stemann style).

    Parameters
    ----------
    threshold:
        Either a fixed integer load threshold, a callable mapping the current
        average load to a threshold, or ``None`` for the default
        ``ceil(average) + 1``.
    max_probes:
        Probe budget per ball; default ``max(2, ceil(log2 n))``.  After the
        budget is exhausted the ball joins the least loaded probed bin.

    Returns
    -------
    AllocationResult
        ``extra['probe_histogram']`` maps number-of-probes to ball count, and
        ``extra['average_probes']`` is the realized mean probes per ball.
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if n_balls is None:
        n_balls = n_bins
    if max_probes is None:
        max_probes = max(2, int(np.ceil(np.log2(max(n_bins, 2)))))
    if max_probes < 1:
        raise ValueError(f"max_probes must be at least 1, got {max_probes}")
    generator = _make_rng(seed, rng)

    if threshold is None:
        def threshold_fn(average: float) -> int:
            return int(np.ceil(average)) + 1
    elif callable(threshold):
        threshold_fn = threshold
    else:
        fixed = int(threshold)

        def threshold_fn(average: float) -> int:
            return fixed

    loads = [0] * n_bins
    messages = 0
    probe_histogram: dict[int, int] = {}
    placed = 0

    # Pre-draw probes in a (chunk, max_probes) block; unused probes in a row
    # are simply ignored, which keeps the inner loop free of RNG calls.
    remaining = n_balls
    while remaining > 0:
        batch = min(remaining, _CHUNK)
        probes = generator.integers(0, n_bins, size=(batch, max_probes))
        for row in probes.tolist():
            limit = threshold_fn(placed / n_bins)
            best_bin, used = threshold_place(loads, row, limit)
            loads[best_bin] += 1
            placed += 1
            messages += used
            probe_histogram[used] = probe_histogram.get(used, 0) + 1
        remaining -= batch

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme="adaptive-threshold",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=max_probes,
        messages=messages,
        rounds=n_balls,
        policy="adaptive",
        extra={
            "probe_histogram": probe_histogram,
            "average_probes": messages / max(n_balls, 1),
            "max_probes": max_probes,
        },
    )


def run_two_phase_adaptive(
    n_bins: int,
    n_balls: Optional[int] = None,
    cap: Optional[int] = None,
    retry_probes: int = 4,
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Two-phase adaptive allocation (simplified Lenzen–Wattenhofer).

    Phase 1: the ball probes a single random bin and commits if the bin holds
    fewer than ``cap`` balls (default ``ceil(m/n) + 2``).  Phase 2: otherwise
    it probes ``retry_probes`` random bins and joins the least loaded of them
    (unconditionally).
    """
    if n_bins <= 0:
        raise ValueError(f"n_bins must be positive, got {n_bins}")
    if n_balls is None:
        n_balls = n_bins
    if retry_probes < 1:
        raise ValueError(f"retry_probes must be at least 1, got {retry_probes}")
    if cap is None:
        cap = int(np.ceil(n_balls / n_bins)) + 2
    generator = _make_rng(seed, rng)

    loads = [0] * n_bins
    messages = 0
    retries = 0
    remaining = n_balls
    while remaining > 0:
        batch = min(remaining, _CHUNK)
        first = generator.integers(0, n_bins, size=batch)
        fallback = generator.integers(0, n_bins, size=(batch, retry_probes))
        for primary, row in zip(first.tolist(), fallback.tolist()):
            messages += 1
            best_bin, retried = two_phase_place(loads, primary, row, cap)
            if retried:
                retries += 1
                messages += retry_probes
            loads[best_bin] += 1
        remaining -= batch

    return AllocationResult(
        loads=np.asarray(loads, dtype=np.int64),
        scheme="adaptive-two-phase",
        n_bins=n_bins,
        n_balls=n_balls,
        k=1,
        d=retry_probes,
        messages=messages,
        rounds=n_balls,
        policy="adaptive",
        extra={
            "cap": cap,
            "retries": retries,
            "retry_fraction": retries / max(n_balls, 1),
            "average_probes": messages / max(n_balls, 1),
        },
    )
