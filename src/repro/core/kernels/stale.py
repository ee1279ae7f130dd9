"""The stale-information (k, d)-choice kernel (parallel epochs).

The paper's rounds are sequential and every probe sees fresh loads.  Fully
parallel balanced allocations (Adler et al.; Berenbrink et al., RANDOM
2012) must cope with *stale* load information: here rounds are grouped
into epochs of ``stale_rounds`` rounds, every probe of an epoch sees the
loads as of the epoch start, and the epoch's placements apply at its end.
``stale_rounds = 1`` is the paper's process.

Draw blocks: per epoch, one ``(epoch_rounds, d)`` sample block, then — for
the strict policy with ``k < d`` — the matching ``(epoch_rounds, d)``
tie-break block; other policies draw their tie-breaks round by round.
A partial final round in a ``k == d`` epoch draws its own ``size=d``
tie-break block when it is selected.

Per-unit apply: one round probing the epoch-start snapshot; placements
commit when the epoch's last round has been emitted.  Because placements
are deferred, the snapshot *is* ``loads`` until a committed ball is removed
mid-epoch (``remove_ball`` copies it first), so an epoch costs nothing
proportional to ``n_bins``.

Batched apply: every round of an epoch probes the same snapshot.  In
compiled mode a block that starts at an epoch boundary covers whole full
epochs (up to ``_DEFAULT_CHUNK_ROUNDS`` rows): their blocks are drawn epoch
by epoch in the scalar order, then one
:func:`~repro.core.compiled.stale_epochs` call selects each epoch's rows
against the loads as of its start and commits its placements at its end.
The rest — an epoch already under way (say, after a mid-epoch removal),
the final epoch, ``k == d`` and the vectorized mode — runs one epoch per
call: its full rounds resolve against the snapshot in one
:func:`~repro.core.batched.strict_select_rows` (or uncommitted compiled)
call, rounds that sample a bin twice included.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from ..baselines import _make_rng
from ..batched import strict_select_rows
from ..policies import get_policy, strict_select
from ..types import ProcessParams
from .base import _DEFAULT_CHUNK_ROUNDS, _PLACED, OnlineStepper

__all__ = ["StaleKDChoiceStepper"]


class StaleKDChoiceStepper(OnlineStepper):
    """Streaming stale (k, d)-choice, unit = one round of an epoch.

    Probes of an epoch see the loads as of the epoch start; placements apply
    when the epoch's last round has been emitted, so committed ``loads``
    lag the emitted stream by design.
    """

    _STATE_SCALARS = OnlineStepper._STATE_SCALARS + ("_epoch_pos",)
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + (
        "_epoch_rows",
        "_epoch_ties",
        "_snapshot",
    )
    _STATE_LISTS = ("_epoch_pending",)

    def __init__(
        self,
        n_bins: int,
        k: int,
        d: int,
        stale_rounds: int = 1,
        n_balls: Optional[int] = None,
        policy: str = "strict",
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        ProcessParams(n_bins=n_bins, n_balls=None, k=k, d=d)
        if stale_rounds < 1:
            raise ValueError(f"stale_rounds must be at least 1, got {stale_rounds}")
        self.n_bins = n_bins
        self.k = k
        self.d = d
        self.stale_rounds = stale_rounds
        self.policy = get_policy(policy)
        self.rng = _make_rng(seed, rng)
        self.planned_balls = n_bins if n_balls is None else n_balls
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.rounds = 0
        self.balls_emitted = 0
        self._epoch_rows: Optional[np.ndarray] = None
        self._epoch_ties: Optional[np.ndarray] = None
        self._snapshot: Optional[np.ndarray] = None
        self._epoch_pos = 0
        self._epoch_pending: List[int] = []

    @property
    def result_policy(self) -> str:
        return self.policy.name

    def _result_label(self) -> str:
        return f"stale-({self.k},{self.d})-choice[epoch={self.stale_rounds} rounds]"

    def _result_extra(self) -> Dict[str, Any]:
        return {"stale_rounds": self.stale_rounds}

    def _begin_epoch(self) -> None:
        remaining = self.planned_balls - self.balls_emitted
        epoch_rounds = min(self.stale_rounds, -(-remaining // self.k))
        self._epoch_rows = self.rng.integers(
            0, self.n_bins, size=(epoch_rounds, self.d)
        )
        strict = self.policy.name == "strict"
        self._epoch_ties = (
            self.rng.random((epoch_rounds, self.d))
            if strict and self.k < self.d
            else None
        )
        # Placements are deferred to the epoch's end, so until a committed
        # ball is removed the snapshot is ``loads`` itself (see
        # ``remove_ball``); no per-epoch copy.
        self._snapshot = self.loads
        self._epoch_pos = 0
        self._epoch_pending = []

    def _end_epoch_if_done(self) -> None:
        if self._epoch_pos == len(self._epoch_rows):
            np.add.at(
                self.loads, np.asarray(self._epoch_pending, dtype=np.int64), 1
            )
            self._epoch_rows = None
            self._epoch_ties = None
            self._snapshot = None
            self._epoch_pending = []

    def _finish_round(self, destinations: List[int], batch: int) -> List[int]:
        self._epoch_pending.extend(int(b) for b in destinations)
        self._epoch_pos += 1
        self.rounds += 1
        self.messages += self.d
        self.balls_emitted += batch
        self._end_epoch_if_done()
        return [int(b) for b in destinations]

    def remove_ball(self, bin_index: int, ball_index: Optional[int] = None) -> None:
        """Take one ball out of ``bin_index``, committed or epoch-pending.

        A churned item may have been placed in the *current* epoch, whose
        placements have not been applied to ``loads`` yet; such a removal
        cancels the pending placement instead (the eventual loads are the
        same either way, and the epoch's probes keep seeing the epoch-start
        snapshot by definition).  The snapshot aliases ``loads`` until the
        first committed-ball removal of an epoch, which copies it.
        """
        if not 0 <= bin_index < self.n_bins:
            raise ValueError(f"bin index {bin_index} out of range")
        if self.loads[bin_index] > 0:
            if self._snapshot is self.loads:
                # The epoch's remaining probes must keep reading the
                # epoch-start loads: detach the snapshot before the first
                # committed-ball decrement.
                self._snapshot = self.loads.copy()
            self.loads[bin_index] -= 1
        elif bin_index in self._epoch_pending:
            self._epoch_pending.remove(bin_index)
        else:
            raise ValueError(f"cannot remove from empty bin {bin_index}")

    def step(self) -> List[int]:
        remaining = self._require_more()
        if self._epoch_rows is None:
            self._begin_epoch()
        row = self._epoch_rows[self._epoch_pos].tolist()
        batch = min(self.k, remaining)
        strict = self.policy.name == "strict"
        if not strict:
            destinations = self.policy.select(self._snapshot, row, batch, self.rng)
        elif batch == self.d:
            destinations = row
        elif self._epoch_ties is not None:
            destinations = strict_select(
                self._snapshot, row, batch, self._epoch_ties[self._epoch_pos]
            )
        else:  # k == d but a partial final round
            destinations = strict_select(
                self._snapshot, row, batch, self.rng.random(self.d)
            )
        return self._finish_round(destinations, batch)

    def _step_epochs(self, max_balls: int) -> Optional[np.ndarray]:
        """Whole full epochs in one C call (compiled mode, at an epoch
        boundary); ``None`` when not even one fits in ``max_balls``."""
        from repro.core import compiled

        r, k, d = self.stale_rounds, self.k, self.d
        budget = min(max_balls, self.planned_balls - self.balls_emitted)
        epochs = min(budget // (r * k), _DEFAULT_CHUNK_ROUNDS // r)
        if epochs == 0:
            return None
        samples = np.empty((epochs * r, d), dtype=np.int64)
        ties = np.empty((epochs * r, d))
        # Epoch by epoch, samples then ties, as _begin_epoch draws them:
        # that interleaving is the scalar stream.
        for start in range(0, epochs * r, r):
            samples[start : start + r] = self.rng.integers(
                0, self.n_bins, size=(r, d)
            )
            self.rng.random(out=ties[start : start + r])
        destinations = compiled.stale_epochs(self.loads, samples, ties, k, r)
        # The state the per-epoch path leaves after an epoch's last round.
        self._epoch_pos = r
        self.rounds += epochs * r
        self.messages += epochs * r * d
        self.balls_emitted += epochs * r * k
        return destinations.reshape(-1) if self._capture else _PLACED

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if self.policy.name != "strict":
            return None
        if self._epoch_rows is None:
            if self.kernel_mode == "compiled" and self.k < self.d:
                block = self._step_epochs(max_balls)
                if block is not None:
                    return block
            if max_balls < min(self.k, self.planned_balls - self.balls_emitted):
                return None
            self._begin_epoch()
        # Whole full rounds still pending in this epoch; the partial tail
        # round (if this epoch carries one) falls back to step().
        full_left = len(self._epoch_rows) - self._epoch_pos
        if (
            self.balls_emitted + full_left * self.k > self.planned_balls
        ):  # epoch ends with a partial round
            full_left -= 1
        r = min(max_balls // self.k, full_left)
        if r <= 0:
            return None
        rows = self._epoch_rows[self._epoch_pos : self._epoch_pos + r]
        if self.k == self.d:
            # Degenerate rounds: every sampled bin keeps its ball, no
            # tie-break draws — the rows themselves are the ball order.
            flat = rows.reshape(-1)
        else:
            ties = self._epoch_ties[self._epoch_pos : self._epoch_pos + r]
            if self.kernel_mode == "compiled":
                from repro.core import compiled

                # The C kernel is always ball-ordered; drive mode commits
                # via np.add.at, which is order-insensitive, so the same
                # multiset gives identical loads either way.
                destinations = compiled.select_rows(
                    self._snapshot, rows, ties, self.k
                )
            else:
                destinations = strict_select_rows(
                    self._snapshot, rows, ties, self.k, ordered=self._capture
                )
            flat = destinations.reshape(-1)
        self._epoch_pending.extend(flat.tolist())
        self._epoch_pos += r
        self.rounds += r
        self.messages += r * self.d
        self.balls_emitted += r * self.k
        self._end_epoch_if_done()
        return flat.copy() if self._capture else _PLACED
