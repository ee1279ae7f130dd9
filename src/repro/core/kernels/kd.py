"""The (k, d)-choice kernel: the paper's process, plus Greedy[d]/two-choice.

Draw blocks (identical to :class:`~repro.core.process.KDChoiceProcess`):
``(min(rounds remaining, chunk_rounds), d)`` integer sample blocks, then the
policy's per-round tie-break doubles (``d`` per round, strict policy with
``k < d`` only).  The partial tail round draws its own ``size=d`` sample and
tie-break blocks.

Per-unit apply: one round of ``k`` balls through the policy's ``select``.
Batched apply: independent-round batches through :func:`_select_batch`
(strict policy, full rounds only).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..baselines import _make_rng
from ..batched import ball_order_kept, stable_tiebreak_ranks
from ..policies import capacity_select, get_policy, strict_select
from ..process import _DEFAULT_CHUNK_ROUNDS
from ..types import ProcessParams
from .base import (
    _PLACED,
    OnlineStepper,
    independent_batch_rounds,
    normalize_capacities,
)

__all__ = ["KDChoiceStepper", "DChoiceStepper", "_select_batch"]


def _select_batch(
    loads: np.ndarray,
    samples: np.ndarray,
    tiebreaks: np.ndarray,
    k: int,
    out: Optional[np.ndarray] = None,
) -> None:
    """Apply one batch of rounds to ``loads`` in place.

    ``samples`` and ``tiebreaks`` are ``(B, d)`` blocks; rounds whose bins are
    untouched by every other round in the batch are resolved with one
    argpartition, the rest replay sequentially through the scalar kernel.

    ``out`` (a ``(B, k)`` int64 array) optionally receives each round's
    destination bins in *ball order* — the exact order the scalar
    :func:`~repro.core.policies.strict_select` kernel returns them — which is
    what the streaming allocator (:mod:`repro.online`) hands out one ball at
    a time.  The batch path skips that per-row sort when no caller asks.
    """
    batch, d = samples.shape

    # A bin value is "shared" when it occurs more than once in the batch.
    flat = np.sort(samples, axis=None)
    shared = flat[1:][flat[1:] == flat[:-1]]
    if shared.size:
        dirty = np.isin(samples, shared).any(axis=1)
    else:
        dirty = np.zeros(batch, dtype=bool)
    clean = ~dirty

    clean_rows = samples[clean]
    if clean_rows.size:
        # No bin repeats anywhere in these rounds: every virtual ball has
        # height loads[bin] + 1, and placements cannot interact, so the
        # strict rule reduces to "keep the k smallest (height, tiebreak)
        # pairs per round".  Encode the pair as one int64 key: the tie-break
        # rank within the round replaces the float (rank < d, so the
        # lexicographic order is preserved exactly).
        heights = loads[clean_rows] + 1
        ranks = stable_tiebreak_ranks(tiebreaks[clean])
        keys = heights * np.int64(d) + ranks
        kept = np.argpartition(keys, k - 1, axis=1)[:, :k]
        if out is not None:
            kept = ball_order_kept(keys, kept)
        destinations = np.take_along_axis(clean_rows, kept, axis=1)
        if out is not None:
            out[clean] = destinations
        loads[destinations.ravel()] += 1  # all destinations are distinct bins

    for row_index in np.flatnonzero(dirty):
        row = samples[row_index].tolist()
        row_destinations = strict_select(loads, row, k, tiebreaks[row_index])
        if out is not None:
            out[row_index] = row_destinations
        for bin_index in row_destinations:
            loads[bin_index] += 1


class KDChoiceStepper(OnlineStepper):
    """Streaming (k, d)-choice, unit = one round of ``k`` balls.

    Mirrors :class:`~repro.core.process.KDChoiceProcess` draw for draw:
    round samples come from ``(chunk, d)`` integer blocks of
    ``min(rounds remaining, chunk_rounds)`` rounds, and the policy draws its
    tie-breaks round by round from the shared generator.  ``step_block``
    rides the batch kernel (strict policy, full rounds only) and is
    bit-identical to repeated ``step()`` calls.
    """

    _STATE_SCALARS = OnlineStepper._STATE_SCALARS + (
        "_rounds_drawn",
        "_buffer_pos",
        "_tail_done",
    )
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_buffer",)

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        n_balls: Optional[int] = None,
        policy: str = "strict",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        chunk_rounds: Optional[int] = None,
        capacities: Optional[object] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=n_balls, k=k, d=d)
        chunk_rounds = _DEFAULT_CHUNK_ROUNDS if chunk_rounds is None else chunk_rounds
        if chunk_rounds <= 0:
            raise ValueError(f"chunk_rounds must be positive, got {chunk_rounds}")
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.policy = get_policy(policy)
        self.capacities = normalize_capacities(capacities, n_bins)
        if self.capacities is not None and self.policy.name != "strict":
            raise ValueError(
                f"heterogeneous bin capacities implement only the strict "
                f"policy, got {self.policy.name!r}"
            )
        self._inv_capacity = (
            None if self.capacities is None else 1.0 / self.capacities
        )
        self.chunk_rounds = chunk_rounds
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self.full_rounds, self.tail_balls = divmod(self.planned_balls, k)
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.rounds = 0
        self.balls_emitted = 0
        self._rounds_drawn = 0
        self._buffer: Optional[np.ndarray] = None
        self._buffer_pos = 0
        self._tail_done = False
        self._batch_rounds = min(chunk_rounds, independent_batch_rounds(n_bins, d))

    @property
    def result_policy(self) -> str:
        return self.policy.name

    def _result_label(self) -> str:
        return f"({self.k},{self.d})-choice"

    def _result_extra(self) -> Dict[str, Any]:
        params = ProcessParams(
            n_bins=self.n_bins, n_balls=self.planned_balls, k=self.k, d=self.d
        )
        return {"expected_messages": params.message_cost}

    def _refill(self) -> None:
        chunk = min(self.full_rounds - self._rounds_drawn, self.chunk_rounds)
        self._buffer = self.rng.integers(0, self.n_bins, size=(chunk, self.d))
        self._buffer_pos = 0
        self._rounds_drawn += chunk

    def _buffered_rounds(self) -> int:
        if self._buffer is None:
            return 0
        return len(self._buffer) - self._buffer_pos

    def _select(self, samples: List[int], count: int) -> List[int]:
        """One round's destinations: the policy, or its fill-aware variant.

        The capacity path mirrors :class:`~repro.core.policies.StrictPolicy`
        draw for draw (no tie-break when every candidate is kept), so a
        homogeneous ``capacities`` vector reproduces the uncapacitated
        stream exactly.
        """
        if self._inv_capacity is None:
            return self.policy.select(self.loads, samples, count, self.rng)
        if count == len(samples):
            return list(samples)
        return capacity_select(
            self.loads, self._inv_capacity, samples, count,
            self.rng.random(len(samples)),
        )

    def step(self) -> List[int]:
        self._require_more()
        if self.rounds < self.full_rounds:
            if self._buffered_rounds() == 0:
                self._refill()
            row = self._buffer[self._buffer_pos].tolist()
            self._buffer_pos += 1
            destinations = self._select(row, self.k)
            for bin_index in destinations:
                self.loads[bin_index] += 1
            self.rounds += 1
            self.messages += self.d
            self.balls_emitted += self.k
            return [int(b) for b in destinations]
        # The partial tail round (n_balls % k balls, still d probes).
        samples = self.rng.integers(0, self.n_bins, size=self.d).tolist()
        destinations = self._select(samples, self.tail_balls)
        for bin_index in destinations:
            self.loads[bin_index] += 1
        self.rounds += 1
        self.messages += self.d
        self.balls_emitted += self.tail_balls
        self._tail_done = True
        return [int(b) for b in destinations]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if self.policy.name != "strict":
            return None
        if self._inv_capacity is not None and self.k != self.d:
            # Capacity-aware rounds compare fractional fills, which the
            # batch kernels (and the compiled replay loops) do not model;
            # every engine falls back to the per-unit drive path, which is
            # the reference semantics by construction.  (k == d rounds keep
            # every sampled bin regardless of fill, so they may still ride
            # the degenerate bincount path below.)
            return None
        rounds_wanted = min(max_balls // self.k, self.full_rounds - self.rounds)
        if rounds_wanted <= 0:
            return None
        if self._buffered_rounds() == 0:
            self._refill()
        r = min(rounds_wanted, self._buffered_rounds())
        samples = self._buffer[self._buffer_pos : self._buffer_pos + r]
        self._buffer_pos += r
        if self.k == self.d:
            # Degenerate rounds: every sampled bin keeps its ball, and the
            # strict policy draws no tie-breaks.
            flat = samples.reshape(-1)
            self.loads += np.bincount(flat, minlength=self.n_bins)
            destinations = flat.astype(np.int64, copy=True) if self._capture else _PLACED
        else:
            ties = self.rng.random((r, self.d))
            if self.kernel_mode == "compiled":
                from repro.core import compiled

                out = compiled.kd_rounds(self.loads, samples, ties, self.k)
                destinations = out.reshape(-1) if self._capture else _PLACED
            else:
                out = np.empty((r, self.k), dtype=np.int64) if self._capture else None
                for start in range(0, r, self._batch_rounds):
                    stop = start + self._batch_rounds
                    _select_batch(
                        self.loads,
                        samples[start:stop],
                        ties[start:stop],
                        self.k,
                        out=None if out is None else out[start:stop],
                    )
                destinations = out.reshape(-1) if self._capture else _PLACED
        self.rounds += r
        self.messages += r * self.d
        self.balls_emitted += r * self.k
        return destinations


class DChoiceStepper(KDChoiceStepper):
    """Streaming Greedy[d]: the (1, d)-choice special case, one ball a round."""

    def __init__(
        self,
        n_bins: int,
        d: int,
        n_balls: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
        capacities: Optional[object] = None,
    ) -> None:
        if d < 1:
            raise ValueError(f"d must be at least 1, got {d}")
        super().__init__(
            n_bins=n_bins, k=1, d=d, n_balls=n_balls, seed=seed, rng=rng,
            capacities=capacities,
        )

    def _result_label(self) -> str:
        return f"greedy[{self.d}]"
