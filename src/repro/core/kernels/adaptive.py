"""Adaptive comparator kernels: threshold probing and two-phase allocation.

Draw blocks: per ``min(remaining, 8192)`` balls, threshold
probing draws one ``(batch, max_probes)`` probe block; two-phase draws the
primary-probe block then the ``(batch, retry_probes)`` fallback block.

Per-unit apply: one ball through the scalar
:func:`~repro.core.adaptive.threshold_place` /
:func:`~repro.core.adaptive.two_phase_place` kernels (callable thresholds
evaluate per ball here).  Batched apply: threshold probing speculates and
truncates (:func:`~repro.core.kernels.base.speculate_balls`); two-phase
keeps the speculate-verify sub-batches of
:func:`~repro.core.batched.prefix_conflicts` (see
:mod:`repro.core.batched` for why).  A callable threshold has no batched
apply (its evaluation order is inherently per-ball), so only the per-unit
path serves it.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..adaptive import threshold_place, two_phase_place
from ..baselines import _CHUNK as _BALL_CHUNK
from ..baselines import _make_rng
from ..batched import ConflictScratch, clean_segments, prefix_conflicts
from .base import (
    OnlineStepper,
    speculate_balls,
    speculation_window,
    speculative_batch_rows,
)

__all__ = ["ThresholdAdaptiveStepper", "TwoPhaseAdaptiveStepper"]


class ThresholdAdaptiveStepper(OnlineStepper):
    """Streaming threshold probing, unit = one ball.

    The threshold is evaluated per ball in ``step()``, so callable
    thresholds stream too (and reach the batch engine through
    the per-unit drive path).  ``step_block`` serves the default
    average-based rule and fixed integer thresholds — their limits are a
    pure function of the ball index, so a whole sub-batch shares one limit
    vector.
    """

    _STATE_SCALARS = ("messages", "balls_emitted", "_pos", "_balls_drawn")
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_probes",)

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        threshold: "int | None" = None,
        max_probes: Optional[int] = None,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        self.n_bins = n_bins
        self.planned_balls = n_bins if n_balls is None else n_balls
        if max_probes is None:
            max_probes = max(2, int(np.ceil(np.log2(max(n_bins, 2)))))
        if max_probes < 1:
            raise ValueError(f"max_probes must be at least 1, got {max_probes}")
        self.max_probes = max_probes
        if threshold is None:
            self._threshold_mode = "default"
            self._fixed_limit: Optional[int] = None
            self._threshold_fn = lambda average: int(np.ceil(average)) + 1
        elif callable(threshold):
            self._threshold_mode = "callable"
            self._fixed_limit = None
            self._threshold_fn = threshold
        else:
            self._threshold_mode = "fixed"
            self._fixed_limit = int(threshold)
            self._threshold_fn = lambda average, fixed=self._fixed_limit: fixed
        self.rng = _make_rng(seed, rng)
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self.probe_histogram: Dict[int, int] = {}
        self._probes: Optional[np.ndarray] = None
        self._pos = 0
        self._balls_drawn = 0
        self._scratch = ConflictScratch(n_bins)
        self._window = speculation_window(n_bins, 1, max_probes)
        self._probe_columns = np.arange(max_probes)

    @property
    def rounds(self) -> int:
        return self.balls_emitted

    result_policy = "adaptive"

    def _result_label(self) -> str:
        return "adaptive-threshold"

    def _result_kd(self) -> Tuple[int, int]:
        return 1, self.max_probes

    def _result_extra(self) -> Dict[str, Any]:
        return {
            "probe_histogram": {
                int(count): int(balls)
                for count, balls in sorted(self.probe_histogram.items())
            },
            "average_probes": self.messages / max(self.planned_balls, 1),
            "max_probes": self.max_probes,
        }

    def _refill(self) -> None:
        batch = min(self.planned_balls - self._balls_drawn, _BALL_CHUNK)
        self._probes = self.rng.integers(
            0, self.n_bins, size=(batch, self.max_probes)
        )
        self._pos = 0
        self._balls_drawn += batch

    def step(self) -> List[int]:
        self._require_more()
        if self._probes is None or self._pos >= len(self._probes):
            self._refill()
        row = self._probes[self._pos].tolist()
        self._pos += 1
        limit = self._threshold_fn(self.balls_emitted / self.n_bins)
        best_bin, used = threshold_place(self.loads, row, limit)
        self.loads[best_bin] += 1
        self.messages += used
        self.probe_histogram[used] = self.probe_histogram.get(used, 0) + 1
        self.balls_emitted += 1
        return [int(best_bin)]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if self._threshold_mode == "callable" or max_balls <= 0 or self.exhausted:
            return None
        if self._probes is None or self._pos >= len(self._probes):
            self._refill()
        take = min(max_balls, len(self._probes) - self._pos)
        rows_block = self._probes[self._pos : self._pos + take]
        if self._threshold_mode == "fixed":
            limits = np.full(take, self._fixed_limit, dtype=np.int64)
        else:
            ball_index = self.balls_emitted + np.arange(take)
            limits = np.ceil(ball_index / self.n_bins).astype(np.int64) + 1
        if self.kernel_mode == "compiled":
            from repro.core import compiled

            out, used = compiled.threshold(self.loads, rows_block, limits)
        else:
            out = np.empty(take, dtype=np.int64)
            used = np.empty(take, dtype=np.int64)

            def choose(start: int, stop: int) -> np.ndarray:
                # The probes examined before a destination sit over the
                # limit and stay over it (loads only grow, limits follow
                # the ball index), and the destination either meets the
                # limit or is the earliest minimum of a full miss.  So a
                # destination no earlier ball writes is still chosen after
                # the same number of probes.
                rows = rows_block[start:stop]
                row_limits = limits[start:stop]
                # Most balls commit on their first probe, so the full-width
                # computation runs only on the rows that miss.
                destinations = rows[:, 0].copy()
                row_used = used[start:stop]
                row_used[:] = 1
                deep = np.flatnonzero(self.loads[destinations] > row_limits)
                if deep.size:
                    deep_rows = rows[deep]
                    deep_loads = self.loads[deep_rows]
                    meets = deep_loads <= row_limits[deep][:, None]
                    deep_used = np.where(
                        meets.any(axis=1),
                        np.argmax(meets, axis=1) + 1,
                        self.max_probes,
                    )
                    # Earliest minimum among the probes examined.
                    masked = np.where(
                        self._probe_columns < deep_used[:, None],
                        deep_loads,
                        np.iinfo(np.int64).max,
                    )
                    columns = np.argmin(masked, axis=1)
                    row_used[deep] = deep_used
                    destinations[deep] = deep_rows[np.arange(deep.size), columns]
                return destinations

            speculate_balls(self.loads, take, self._window, self._scratch, choose, out)
        for count, balls in zip(*np.unique(used, return_counts=True)):
            count = int(count)
            self.probe_histogram[count] = (
                self.probe_histogram.get(count, 0) + int(balls)
            )
        self.messages += int(used.sum())
        self._pos += take
        self.balls_emitted += take
        return out

    def _extra_state(self) -> Dict[str, Any]:
        return {
            "probe_histogram": sorted(self.probe_histogram.items()),
        }

    def _load_extra_state(self, state: Dict[str, Any]) -> None:
        self.probe_histogram = {
            int(used): int(count) for used, count in state["probe_histogram"]
        }


class TwoPhaseAdaptiveStepper(OnlineStepper):
    """Streaming two-phase adaptive allocation, unit = one ball."""

    _STATE_SCALARS = (
        "messages",
        "balls_emitted",
        "retries",
        "_pos",
        "_balls_drawn",
    )
    _STATE_ARRAYS = OnlineStepper._STATE_ARRAYS + ("_first", "_fallback")

    def __init__(
        self,
        n_bins: int,
        n_balls: Optional[int] = None,
        cap: Optional[int] = None,
        retry_probes: int = 4,
        seed: "int | np.random.SeedSequence | None" = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_bins <= 0:
            raise ValueError(f"n_bins must be positive, got {n_bins}")
        if retry_probes < 1:
            raise ValueError(f"retry_probes must be at least 1, got {retry_probes}")
        self.n_bins = n_bins
        self.planned_balls = n_bins if n_balls is None else n_balls
        self.retry_probes = retry_probes
        self.cap = (
            int(np.ceil(self.planned_balls / n_bins)) + 2 if cap is None else cap
        )
        self.rng = _make_rng(seed, rng)
        self.loads = np.zeros(n_bins, dtype=np.int64)
        self.messages = 0
        self.balls_emitted = 0
        self.retries = 0
        self._first: Optional[np.ndarray] = None
        self._fallback: Optional[np.ndarray] = None
        self._pos = 0
        self._balls_drawn = 0
        self._scratch = ConflictScratch(n_bins)
        # Committed balls read only their primary probe, so the effective
        # read width is ~1 + retry_fraction * retry_probes, far below the
        # full row.
        self._sub_rows = speculative_batch_rows(n_bins, 2)

    @property
    def rounds(self) -> int:
        return self.balls_emitted

    result_policy = "adaptive"

    def _result_label(self) -> str:
        return "adaptive-two-phase"

    def _result_kd(self) -> Tuple[int, int]:
        return 1, self.retry_probes

    def _result_extra(self) -> Dict[str, Any]:
        return {
            "cap": self.cap,
            "retries": self.retries,
            "retry_fraction": self.retries / max(self.planned_balls, 1),
            "average_probes": self.messages / max(self.planned_balls, 1),
        }

    def _refill(self) -> None:
        batch = min(self.planned_balls - self._balls_drawn, _BALL_CHUNK)
        self._first = self.rng.integers(0, self.n_bins, size=batch)
        self._fallback = self.rng.integers(
            0, self.n_bins, size=(batch, self.retry_probes)
        )
        self._pos = 0
        self._balls_drawn += batch

    def step(self) -> List[int]:
        self._require_more()
        if self._first is None or self._pos >= len(self._first):
            self._refill()
        primary = int(self._first[self._pos])
        row = self._fallback[self._pos].tolist()
        self._pos += 1
        self.messages += 1
        best_bin, retried = two_phase_place(self.loads, primary, row, self.cap)
        if retried:
            self.retries += 1
            self.messages += self.retry_probes
        self.loads[best_bin] += 1
        self.balls_emitted += 1
        return [int(best_bin)]

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        if max_balls <= 0 or self.exhausted:
            return None
        if self._first is None or self._pos >= len(self._first):
            self._refill()
        take = min(max_balls, len(self._first) - self._pos)
        if self.kernel_mode == "compiled":
            from repro.core import compiled

            out, retried = compiled.two_phase(
                self.loads,
                self._first[self._pos : self._pos + take],
                self._fallback[self._pos : self._pos + take],
                self.cap,
            )
            retried_count = int(retried.sum())
            self.retries += retried_count
            self.messages += take + retried_count * self.retry_probes
            self._pos += take
            self.balls_emitted += take
            return out
        out = np.empty(take, dtype=np.int64)
        done = 0
        while done < take:
            stop = min(done + self._sub_rows, take)
            primary = self._first[self._pos + done : self._pos + stop]
            rows = self._fallback[self._pos + done : self._pos + stop]
            size = len(primary)
            committed = self.loads[primary] < self.cap
            retried = ~committed
            destinations = primary.copy()
            misses = np.flatnonzero(retried)
            if misses.size:
                miss_rows = rows[misses]
                columns = np.argmin(self.loads[miss_rows], axis=1)
                destinations[misses] = miss_rows[np.arange(misses.size), columns]
            # Reads: the primary probe, plus the fallback row for the balls
            # that (provisionally) retried; committed balls pad with their
            # destination (= the primary itself, so one `where` builds it).
            expanded = np.concatenate([destinations[:, None], rows], axis=1)
            reads = np.where(retried[:, None], expanded, destinations[:, None])
            suspect = prefix_conflicts(
                reads, destinations, self._scratch, expanded=expanded
            )
            for seg_start, seg_stop, suspect_index in clean_segments(suspect):
                self.loads[destinations[seg_start:seg_stop]] += 1
                if suspect_index >= 0:
                    best_bin, did_retry = two_phase_place(
                        self.loads,
                        int(primary[suspect_index]),
                        rows[suspect_index].tolist(),
                        self.cap,
                    )
                    self.loads[best_bin] += 1
                    retried[suspect_index] = did_retry
                    destinations[suspect_index] = best_bin
            retried_count = int(retried.sum())
            self.retries += retried_count
            self.messages += size + retried_count * self.retry_probes
            out[done:stop] = destinations
            done = stop
        self._pos += take
        self.balls_emitted += take
        return out
