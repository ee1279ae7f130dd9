"""The single-choice kernel (and SA(k, k) batched random via ``round_size``).

Draw blocks: one ``size=n_balls`` integer block at construction — exactly
the scalar :func:`~repro.core.baselines.run_single_choice` draw.  Per-unit
apply: pop the next pre-drawn destination.  Batched apply: one ``np.add.at``
over the pre-drawn slice (its cost follows the slice, not ``n_bins``).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..baselines import _make_rng
from .base import _PLACED, OnlineStepper

__all__ = ["SingleChoiceStepper"]


class SingleChoiceStepper(OnlineStepper):
    """Streaming single choice, unit = one ball.

    The scalar runner draws every destination in one ``size=n_balls`` block;
    the stepper does the same at construction and pops destinations off the
    pre-drawn array.  ``round_size`` only affects round accounting (the
    ``batch_random`` scheme reports ``ceil(n / k)`` rounds).
    """

    _STATE_SCALARS = ("messages", "balls_emitted", "_pos")
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_choices",)

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        round_size: int = 1,
    ) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        if n_balls is None:
            n_balls = n_bins
        if n_balls < 0:
            raise ValueError(f"n_balls must be non-negative, got {n_balls}")
        if round_size < 1:
            raise ValueError(f"round_size must be at least 1, got {round_size}")
        self.n_bins = n_bins
        self.planned_balls = n_balls
        self.round_size = round_size
        self.rng = _make_rng(seed, rng)
        self._choices = self.rng.integers(0, n_bins, size=n_balls)
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self._pos = 0

    @property
    def rounds(self) -> int:
        return -(-self.balls_emitted // self.round_size)

    def step(self) -> List[int]:
        self._require_more()
        bin_index = int(self._choices[self._pos])
        self._pos += 1
        self.loads[bin_index] += 1
        self.messages += 1
        self.balls_emitted += 1
        return [bin_index]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        take = min(max_balls, self.planned_balls - self.balls_emitted)
        if take <= 0:
            return None
        chunk = self._choices[self._pos : self._pos + take]
        if self._capture:
            destinations = chunk.astype(np.int64, copy=True)
        else:
            destinations = _PLACED
        self._pos += take
        np.add.at(self.loads, chunk, 1)  # touched bins only, not O(n_bins)
        self.messages += take
        self.balls_emitted += take
        return destinations
