"""Adaptive allocation comparators.

The paper's introduction compares its non-adaptive (k, d)-choice scheme
against *adaptive* algorithms, where the number of probes per ball is not
fixed:

* Czumaj & Stemann (Random Structures & Algorithms 2001): ``O(ln ln n)``
  maximum load with ``(1 + o(1)) n`` messages in expectation.
* Lenzen & Wattenhofer (STOC 2011) and Berenbrink et al. (SPAA 2013):
  constant maximum load with ``O(1)`` average probes per ball.

Two schemes place (k, d)-choice on the same max-load versus message-cost
plane the paper argues about in Section 1.1 (``benchmarks/bench_tradeoff.py``);
their steppers in :mod:`repro.core.kernels.adaptive` define them, and this
module holds their per-ball kernels:

``threshold_adaptive``
    Probe random bins one at a time; commit to the first bin whose load is at
    most a threshold, falling back to the best probed bin after ``max_probes``
    probes.  With threshold equal to the current average load this is the
    classical low-message adaptive scheme: most balls stop after one or two
    probes, so the total message cost is ``(1 + o(1)) n``.

``two_phase_adaptive``
    A simplified Lenzen–Wattenhofer-style two-phase scheme: every ball first
    probes one random bin and commits if the bin is below a cap; the few balls
    that fail retry with ``retry_probes`` probes and join the least loaded.
    Constant maximum load with ``O(n)`` messages for a suitable cap.
"""

from __future__ import annotations

from .baselines import least_loaded_probe

__all__ = ["threshold_place", "two_phase_place"]


def threshold_place(loads, row, limit) -> "tuple[int, int]":
    """Place one ball by threshold probing; returns ``(bin, probes used)``.

    The per-ball kernel shared by the scalar loop and the vectorized
    engine's conflict replay: probe ``row`` left to right, stop at the first
    bin at or below ``limit``, and commit to the least loaded bin examined
    so far (earliest minimum on ties).
    """
    best_bin = row[0]
    best_load = loads[best_bin]
    used = 1
    if best_load > limit:
        for bin_index in row[1:]:
            used += 1
            load = loads[bin_index]
            if load < best_load:
                best_load = load
                best_bin = bin_index
            if load <= limit:
                break
    return best_bin, used


def two_phase_place(loads, primary, row, cap) -> "tuple[int, bool]":
    """Place one two-phase ball; returns ``(bin, retried)``.

    Commit to ``primary`` when it is below ``cap``; otherwise join the least
    loaded bin of the pre-drawn fallback ``row`` (earliest minimum on ties).
    Shared by the scalar loop and the vectorized engine's conflict replay.
    """
    if loads[primary] < cap:
        return primary, False
    return least_loaded_probe(loads, row), True
