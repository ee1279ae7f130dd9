"""The serialized (k, d)-choice kernel ``A_sigma`` (Definition 1).

Draw blocks (identical to :class:`~repro.core.serialization.SerializedKDChoice`):
per round, one ``size=d`` sample block, the strict policy's ``size=d``
tie-break block (``k < d`` only), then — for the "random" sigma — one
``permutation(k)`` draw.

Per-unit apply: one round of ``k`` balls; the round's destination slots are
computed once with the strict policy and ``sigma_r`` fixes which ball (time
step) claims which slot, so the returned ball order *is* the serialization
order.  There is no batched apply — the process is defined ball-at-a-time —
so the derived batch engine simply drives this kernel (and skips the
per-ball placement record the scalar reference keeps).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..baselines import _make_rng
from ..policies import StrictPolicy
from ..serialization import _NAMED_SIGMAS, SigmaFactory
from ..types import ProcessParams
from .base import OnlineStepper

__all__ = ["SerializedKDChoiceStepper"]


class SerializedKDChoiceStepper(OnlineStepper):
    """Streaming serialized (k, d)-choice, unit = one round of ``k`` balls.

    Mirrors :class:`~repro.core.serialization.SerializedKDChoice` draw for
    draw; the planned stream must be a multiple of ``k`` (the paper assumes
    ``k | n``), checked at construction.
    """

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        n_balls: Optional[int] = None,
        sigma: "str | SigmaFactory" = "identity",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
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
        planned = n_bins if n_balls is None else n_balls
        if planned % k != 0:
            raise ValueError(
                "the serialized process requires n_balls to be a multiple of k "
                f"(got n_balls={planned}, k={k}); the paper assumes k | n"
            )
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.rng = _make_rng(seed, rng)
        self.planned_balls = planned
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.rounds = 0
        self.balls_emitted = 0
        self._policy = StrictPolicy()

    def _result_label(self) -> str:
        return f"serialized-({self.k},{self.d})-choice[{self.sigma_name}]"

    def step(self) -> List[int]:
        self._require_more()
        samples = [int(s) for s in self.rng.integers(0, self.n_bins, size=self.d)]
        self.messages += self.d
        # Destination slots for the round, least-loaded-first, exactly as
        # the strict policy computes them; sigma_r then fixes which ball
        # claims which slot.
        slots = self._policy.select(self.loads, samples, self.k, self.rng)
        permutation = list(self.sigma(self.rounds + 1, self.k, self.rng))
        if sorted(permutation) != list(range(self.k)):
            raise ValueError(
                f"sigma produced {permutation!r}, not a permutation of "
                f"range({self.k})"
            )
        destinations = [int(slots[slot_index]) for slot_index in permutation]
        for bin_index in destinations:
            self.loads[bin_index] += 1
        self.rounds += 1
        self.balls_emitted += self.k
        return destinations
