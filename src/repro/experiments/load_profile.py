"""Reproduction of Figures 1 and 2: the sorted bin-load vector.

Both figures in the paper are schematic sketches of the sorted load vector
``B_1 ≥ B_2 ≥ ... ≥ B_n`` at the end of the (k, d)-choice process, annotated
with the landmark ranks used in the proofs:

* Figure 1 (upper bound):  ``β₀ = n / (6 d_k)`` — the maximum load is split
  into ``B_{β₀}`` plus the difference ``B_1 − B_{β₀}``.
* Figure 2 (lower bound):  ``γ* = 4 n / d_k`` and ``γ₀ = n / d`` — the lower
  bound is ``B_{γ*}`` plus the difference ``B_1 − B_{γ₀}``.

The reproduction measures the actual sorted profile from simulation, records
the loads at those landmark ranks, and checks the decomposition inequalities
the figures illustrate (``M = B_1 ≥ B_{γ*} + (B_1 − B_{γ₀})`` when
``γ* ≥ γ₀``, and ``M = B_{β₀} + (B_1 − B_{β₀})``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..analysis.recurrences import beta_zero, gamma_star, gamma_zero
from ..api import SchemeSpec, simulate
from ..core.metrics import load_profile

__all__ = ["ProfileSeries", "LoadProfileResult", "run_load_profile", "downsample_profile"]


def downsample_profile(profile: np.ndarray, points: int = 64) -> List[tuple[int, int]]:
    """Downsample a sorted load profile to ``points`` (rank, load) pairs.

    Ranks are spaced geometrically so the head of the distribution (where the
    interesting structure lives) keeps full resolution.
    """
    n = profile.shape[0]
    if n == 0:
        return []
    if points <= 1:
        return [(1, int(profile[0]))]
    ranks = np.unique(
        np.clip(
            np.geomspace(1, n, num=min(points, n)).astype(np.int64), 1, n
        )
    )
    return [(int(rank), int(profile[rank - 1])) for rank in ranks]


@dataclass(frozen=True)
class ProfileSeries:
    """The sorted-load series of one run plus the figure landmarks."""

    k: int
    d: int
    n: int
    max_load: int
    profile_points: List[tuple[int, int]]
    beta0: float
    gamma0: float
    gamma_star_: float
    load_at_beta0: Optional[int]
    load_at_gamma0: Optional[int]
    load_at_gamma_star: Optional[int]

    def figure1_decomposition(self) -> Dict[str, float]:
        """Figure 1's split of the maximum load: ``B_{β₀}`` and ``B_1 − B_{β₀}``."""
        base = self.load_at_beta0 if self.load_at_beta0 is not None else 0
        return {
            "B_beta0": float(base),
            "B1_minus_Bbeta0": float(self.max_load - base),
            "max_load": float(self.max_load),
        }

    def figure2_decomposition(self) -> Dict[str, float]:
        """Figure 2's lower-bound pieces: ``B_{γ*}`` and ``B_1 − B_{γ₀}``."""
        at_star = self.load_at_gamma_star if self.load_at_gamma_star is not None else 0
        at_zero = self.load_at_gamma0 if self.load_at_gamma0 is not None else 0
        return {
            "B_gamma_star": float(at_star),
            "B1_minus_Bgamma0": float(self.max_load - at_zero),
            "max_load": float(self.max_load),
        }


@dataclass
class LoadProfileResult:
    """Profiles for several (k, d) configurations at the same ``n``."""

    n: int
    series: List[ProfileSeries] = field(default_factory=list)

    def as_records(self) -> List[Dict[str, object]]:
        records = []
        for s in self.series:
            record: Dict[str, object] = {
                "k": s.k,
                "d": s.d,
                "n": s.n,
                "max_load": s.max_load,
                "beta0": round(s.beta0, 2),
                "gamma0": round(s.gamma0, 2),
                "gamma_star": round(s.gamma_star_, 2),
                "B_at_beta0": s.load_at_beta0,
                "B_at_gamma0": s.load_at_gamma0,
                "B_at_gamma_star": s.load_at_gamma_star,
            }
            records.append(record)
        return records


def _load_at_rank(profile: np.ndarray, rank: float) -> Optional[int]:
    """Load of the bin at (1-based) rank ``rank``; ``None`` if out of range."""
    index = int(math.floor(rank))
    if index < 1 or index > profile.shape[0]:
        return None
    return int(profile[index - 1])


def run_load_profile(
    n: int = 3 * 2 ** 14,
    configurations: Sequence[tuple[int, int]] = ((4, 8), (16, 17)),
    seed: "int | None" = 0,
    profile_points: int = 64,
) -> LoadProfileResult:
    """Measure sorted load profiles and figure landmarks for several (k, d).

    The default configurations cover both proof regimes: (4, 8) has
    ``d_k = 2`` (Figure 1's ``d_k = O(1)`` setting) and (16, 17) has
    ``d_k = 17`` (the growing-``d_k`` setting where the ``B_{γ*}`` term
    matters).
    """
    result = LoadProfileResult(n=n)
    for index, (k, d) in enumerate(configurations):
        run = simulate(
            SchemeSpec(
                "kd_choice",
                {"n_bins": n, "k": k, "d": d},
                seed=None if seed is None else seed + index,
            )
        )
        profile = load_profile(run)
        beta0 = beta_zero(k, d, n)
        gamma0 = gamma_zero(d, n)
        gstar = gamma_star(k, d, n)
        result.series.append(
            ProfileSeries(
                k=k,
                d=d,
                n=n,
                max_load=run.max_load,
                profile_points=downsample_profile(profile, points=profile_points),
                beta0=beta0,
                gamma0=gamma0,
                gamma_star_=gstar,
                load_at_beta0=_load_at_rank(profile, beta0) if beta0 >= 1 else None,
                load_at_gamma0=_load_at_rank(profile, gamma0),
                load_at_gamma_star=_load_at_rank(profile, gstar) if gstar >= 1 else None,
            )
        )
    return result
