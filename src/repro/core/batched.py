"""Shared batched-selection kernel for the vectorized engines.

Every fast path in :mod:`repro.core.kernels` faces the same problem: the
scalar reference processes place balls *sequentially* (each placement changes
the loads the next ball reads), while NumPy wants to evaluate many balls at
once.  Two primitives make batching exact:

``strict_select_rows``
    Row-wise strict (k, d)-choice selection where every row sees the *same*
    load snapshot (rows are independent by construction — stale epochs, or
    conflict-free batches).  Rows that sample a bin twice fall back to the
    scalar kernel :func:`~repro.core.policies.strict_select`, so the result
    is bit-for-bit what the scalar policy would produce.

``prefix_conflicts``
    The speculate-verify primitive for genuinely sequential processes.  The
    engine first computes every row's *provisional* outcome against the
    batch-start loads, then asks which rows might have read a bin written by
    an **earlier** row of the batch.  Rows marked clean are guaranteed to
    have the same outcome as in the sequential replay; the (rare) suspect
    rows are re-executed through the scalar kernel in row order.

    Soundness rests on two facts that hold for every engine in this
    repository: a row's destination bins are always a subset of its sampled
    bins, and placements only ever *add* load.  The detector therefore uses
    each clean row's provisional destinations and each suspect row's full
    sample set as its (conservative) write set, and iterates to a fixpoint.

    A useful corollary: the destinations of the clean rows of a batch are
    pairwise distinct (a later clean row reading an earlier clean row's
    destination would have been marked suspect), so clean placements can be
    applied with one fancy-indexed add — no ``np.add.at`` needed.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

from .policies import strict_select

__all__ = [
    "stable_tiebreak_ranks",
    "ball_order_kept",
    "strict_select_rows",
    "ConflictScratch",
    "prefix_conflicts",
    "clean_segments",
]


def ball_order_kept(keys: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """Sort each row's kept columns into *ball order* (ascending key).

    ``kept`` holds per-row column indices selected by ``argpartition`` (the
    k smallest keys, in arbitrary order); the scalar kernel hands
    destinations out sorted by ``(height, tiebreak)``.  Keys are unique
    within a row (they embed the distinct tie-break ranks mod d), so a
    stable sort of the kept keys reproduces the scalar lexsort order
    exactly.  Shared by every batch kernel that captures destinations for
    the streaming allocator.
    """
    kept_keys = np.take_along_axis(keys, kept, axis=1)
    order = np.argsort(kept_keys, axis=1, kind="stable")
    return np.take_along_axis(kept, order, axis=1)


def stable_tiebreak_ranks(tiebreaks: np.ndarray) -> np.ndarray:
    """Per-row ranks of the tie-break variates, ``kind="stable"``.

    The rank (an integer < d) replaces the float tie-break in composite sort
    keys: within a row the lexicographic order of ``(height, rank)`` equals
    the order of ``(height, tiebreak)``, and bit-equal tie-break doubles
    (astronomically rare, but possible at paper scale) resolve by sample
    index exactly as ``np.lexsort`` does in the scalar kernel.
    """
    batch, d = tiebreaks.shape
    order = np.argsort(tiebreaks, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(
        ranks, order, np.broadcast_to(np.arange(d), (batch, d)), axis=1
    )
    return ranks


def strict_select_rows(
    loads: np.ndarray,
    samples: np.ndarray,
    tiebreaks: np.ndarray,
    k: int,
    ordered: bool = False,
) -> np.ndarray:
    """Strict (k, d) selection of every row against one load snapshot.

    Rows are independent: each sees ``loads`` exactly as passed (no
    placements are applied here).  Returns the ``(B, k)`` destination bins;
    their order within a row is unspecified (callers apply them with
    ``bincount``-style adds, which are order-insensitive) unless
    ``ordered=True``, which sorts each row into *ball order* — the exact
    order the scalar :func:`~repro.core.policies.strict_select` kernel
    returns — for callers that hand destinations out one ball at a time
    (the streaming allocator).
    """
    batch, d = samples.shape
    destinations = np.empty((batch, k), dtype=np.int64)

    # Rows that sample some bin twice need the multiplicity-capped heights;
    # send them to the scalar kernel (a ~d^2/n fraction).
    row_sorted = np.sort(samples, axis=1)
    duplicated = (row_sorted[:, 1:] == row_sorted[:, :-1]).any(axis=1)
    clean = ~duplicated

    if clean.any():
        rows = samples[clean]
        heights = loads[rows] + 1
        ranks = stable_tiebreak_ranks(tiebreaks[clean])
        keys = heights * np.int64(d) + ranks
        kept = np.argpartition(keys, k - 1, axis=1)[:, :k]
        if ordered:
            kept = ball_order_kept(keys, kept)
        destinations[clean] = np.take_along_axis(rows, kept, axis=1)

    for index in np.flatnonzero(duplicated):
        destinations[index] = strict_select(
            loads, samples[index].tolist(), k, tiebreaks[index]
        )
    return destinations


class ConflictScratch:
    """Reusable first-writer-position buffer for :func:`prefix_conflicts`.

    Allocating (and clearing) an ``n_bins``-sized array per batch would cost
    O(n) per call; the scratch instead remembers which entries it touched and
    resets only those, so a batch costs O(batch * width).  The row-position
    arange is cached too, so steady-state batches allocate nothing fixed.
    """

    _SENTINEL = np.iinfo(np.int64).max

    def __init__(self, n_bins: int) -> None:
        self.positions = np.full(n_bins, self._SENTINEL, dtype=np.int64)
        self._arange = np.arange(0, dtype=np.int64)

    def row_positions(self, batch: int) -> np.ndarray:
        if len(self._arange) < batch:
            self._arange = np.arange(batch, dtype=np.int64)
        return self._arange[:batch]

    def reset(self, touched: np.ndarray) -> None:
        self.positions[touched] = self._SENTINEL


def prefix_conflicts(
    reads: np.ndarray,
    writes: np.ndarray,
    scratch: ConflictScratch,
    expanded: "np.ndarray | None" = None,
    forced: "np.ndarray | None" = None,
) -> np.ndarray:
    """Mark rows whose reads may see a bin written by an earlier row.

    Parameters
    ----------
    reads:
        ``(B, W)`` read sets — every bin row ``i`` examines *given its
        provisional outcome*.  Slots a row does not actually read should be
        padded with the row's own destination (a self-read can never mark a
        row suspect, and an earlier write to the destination marks it suspect
        through the real read that chose it).
    writes:
        ``(B,)`` or ``(B, k)`` provisional destinations computed against the
        batch-start loads.  They are each row's true writes *while the row is
        clean*.
    scratch:
        A :class:`ConflictScratch` sized to the bin count.
    expanded:
        ``(B, P)`` conservative read sets used to widen a *suspect* row's
        write set: once a row replays, it may examine (and land in) any of
        these bins.  Defaults to ``reads`` — pass the full sample rows
        whenever ``reads`` is a trimmed prefix.
    forced:
        Optional mask of rows that must replay regardless of conflicts
        (e.g. rows whose provisional outcome could not be computed, such as
        weighted rounds sampling a bin twice).  Forced rows participate in
        the fixpoint like any other suspect.

    Returns the boolean suspect mask.  Rows left unmarked provably read no
    bin that any earlier row writes, so their provisional outcome equals the
    sequential one (induction over row index).
    """
    batch = reads.shape[0]
    positions = scratch.row_positions(batch)
    write_positions = scratch.positions

    # First writer per bin: scatter in reverse row order, so the earliest
    # row's assignment lands last and wins.
    if writes.ndim == 1:
        write_positions[writes[::-1]] = positions[::-1]
    else:
        write_positions[writes[::-1].ravel()] = np.repeat(
            positions[::-1], writes.shape[1]
        )
    suspect = (write_positions[reads] < positions[:, None]).any(axis=1)
    if forced is not None:
        suspect |= forced

    widen = reads if expanded is None else expanded
    if suspect.any():
        # Fixpoint: a suspect row's replay may land anywhere in its widened
        # read set, so widen its write set and re-check until no new suspects
        # appear.  The mask only grows, so this terminates (usually in one
        # extra pass).
        while True:
            np.minimum.at(
                write_positions, widen[suspect], positions[suspect, None]
            )
            grown = (write_positions[reads] < positions[:, None]).any(axis=1)
            if forced is not None:
                grown |= forced
            if (grown == suspect).all():
                break
            suspect = grown
        scratch.reset(widen[suspect])
    scratch.reset(writes)
    return suspect


def clean_segments(suspect: np.ndarray) -> Iterator[Tuple[int, int, int]]:
    """Iterate ``(segment_start, segment_stop, suspect_index)`` in row order.

    Yields one triple per suspect row: the half-open range of clean rows
    preceding it, then its own index; a final triple with ``suspect_index ==
    -1`` covers the trailing clean rows.  Callers apply the clean segment
    vectorized, then replay the suspect row through the scalar kernel —
    which together reproduces the exact sequential application order.
    """
    previous = 0
    for index in np.flatnonzero(suspect):
        yield previous, int(index), int(index)
        previous = int(index) + 1
    yield previous, len(suspect), -1
