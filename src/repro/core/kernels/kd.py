"""The (k, d)-choice kernel: the paper's process, plus Greedy[d]/two-choice.

Draw blocks: ``(min(rounds remaining, chunk_rounds), d)`` integer sample blocks, then the
policy's per-round tie-break doubles (``d`` per round, strict policy with
``k < d`` only).  The partial tail round draws its own ``size=d`` sample and
tie-break blocks.

Per-unit apply: one round of ``k`` balls through the policy's ``select``.
Batched apply (strict policy, full rounds only): speculate and truncate
through :func:`_select_rounds` — key a window of rounds against the current
loads, apply the rounds before the first one that keeps a bin an earlier
round of the window keeps, re-speculate from there.  Rounds that sample a
bin twice resolve in the same vectorized pass (multiplicity-aware keys), so
no round replays through the scalar kernel.  ``k == d`` rounds keep every
sampled bin and add them with one ``np.add.at``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..baselines import _make_rng
from ..batched import ConflictScratch, conflict_free_prefix, strict_select_rows
from ..policies import capacity_select, get_policy
from ..types import ProcessParams
from .base import (
    _DEFAULT_CHUNK_ROUNDS,
    _PLACED,
    OnlineStepper,
    normalize_capacities,
    speculation_window,
)

__all__ = ["KDChoiceStepper", "DChoiceStepper", "speculation_window"]


def _select_rounds(
    loads: np.ndarray,
    samples: np.ndarray,
    tiebreaks: np.ndarray,
    k: int,
    window: int,
    scratch: ConflictScratch,
    out: Optional[np.ndarray] = None,
) -> None:
    """Apply ``(R, d)`` rounds to ``loads`` in order, exactly as ``R``
    successive :func:`~repro.core.policies.strict_select` calls would.

    Speculate and truncate: key a window of rounds against the current
    loads, keep each round's ``k`` smallest keys, apply the rounds before
    the first one that keeps a bin an earlier round of the window keeps
    (:func:`~repro.core.batched.conflict_free_prefix`), and re-speculate
    from that round.  Nothing replays through the scalar kernel.

    Each window is keyed by :func:`~repro.core.batched.strict_select_rows`
    (within-round multiplicities and tie-break ranks included), so the
    temporaries stay window-sized whatever the block size.

    ``out`` (a ``(R, k)`` int64 array) optionally receives each round's
    destination bins in *ball order* — the exact order the scalar kernel
    returns them — which is what the streaming allocator
    (:mod:`repro.online`) hands out one ball at a time.  The batch path
    skips that per-row sort when no caller asks.
    """
    rounds = len(samples)
    start = 0
    while start < rounds:
        stop = min(start + window, rounds)
        destinations = strict_select_rows(
            loads, samples[start:stop], tiebreaks[start:stop], k,
            ordered=out is not None,
        )
        taken = conflict_free_prefix(destinations, scratch) if stop - start > 1 else 1
        # Rounds of the prefix never share a destination, but one round may
        # keep a bin twice.
        np.add.at(loads, destinations[:taken].ravel(), 1)
        if out is not None:
            out[start : start + taken] = destinations[:taken]
        start += taken


class KDChoiceStepper(OnlineStepper):
    """Streaming (k, d)-choice, unit = one round of ``k`` balls.

    The paper's process, one round per ``step()``: round samples come from ``(chunk, d)`` integer blocks of
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
        self._window = speculation_window(n_bins, k, d)
        self._scratch: Optional[ConflictScratch] = None

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
            # the degenerate path below.)
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
            np.add.at(self.loads, flat, 1)
            destinations = flat.astype(np.int64, copy=True) if self._capture else _PLACED
        else:
            ties = self.rng.random((r, self.d))
            if self.kernel_mode == "compiled":
                from repro.core import compiled

                out = compiled.kd_rounds(self.loads, samples, ties, self.k)
                destinations = out.reshape(-1) if self._capture else _PLACED
            else:
                if self._scratch is None:
                    self._scratch = ConflictScratch(self.n_bins)
                out = np.empty((r, self.k), dtype=np.int64) if self._capture else None
                _select_rounds(
                    self.loads, samples, ties, self.k, self._window,
                    self._scratch, out=out,
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
