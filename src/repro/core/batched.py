"""Shared batched-selection kernel for the vectorized engines.

Every fast path in :mod:`repro.core.kernels` faces the same problem: the
scalar reference processes place balls *sequentially* (each placement changes
the loads the next ball reads), while NumPy wants to evaluate many balls at
once.  These primitives make batching exact:

``add_repeat_counts`` and ``strict_key_offsets``
    The strict rule as one int64 key per sampled slot.  Slot ``j`` of a
    round holding bin ``b`` has height ``loads[b] + m_j + 1``, where ``m_j``
    counts the earlier occurrences of ``b`` in the same round (the exact
    multiplicity rule of :func:`~repro.core.policies.strict_select`), and
    ties break by the slot's stable tie-break rank.  The key is
    ``loads[b] * d + offsets[j]``, so a batch kernel re-keys a round
    against new loads with one gather, one multiply and one add, and rounds
    that sample a bin twice need no special case.

``strict_select_rows``
    Row-wise strict (k, d)-choice selection where every row sees the *same*
    load snapshot (stale epochs).  Bit-for-bit what the scalar policy would
    produce, duplicated samples included.

``conflict_free_prefix``
    The speculate-and-truncate primitive: given every row's provisional
    destinations against the current loads, the length of the leading run
    of rows whose destinations no earlier row of the run writes (a
    first-writer scatter into a :class:`ConflictScratch`).  Those rows are
    exact; the caller applies them and re-speculates from the first
    conflicting row, so nothing is ever replayed through a scalar kernel.
    It serves the (k, d) family (``kd._select_rounds``) and the locality,
    hierarchical, threshold and weighted kernels
    (``base.speculate_balls``, ``weighted._weighted_rounds``): each picks a
    minimum over a fixed preference order of loads that only grow, so a
    row whose destinations nobody wrote keeps them.

``prefix_conflicts``
    The older speculate-verify primitive, kept for the three kernels that
    anchor the compiled-floor gate (one_plus_beta, always_go_left and
    two_phase_adaptive): moving them onto ``conflict_free_prefix`` would
    speed up their vectorized engines enough to push their
    compiled/vectorized ratios under the CI floor of 3x.  The engine first
    computes every row's *provisional* outcome against the batch-start
    loads, then asks which rows might have read a bin written by an
    **earlier** row of the batch.  Rows marked clean are guaranteed to
    have the same outcome as in the sequential replay; the (rare) suspect
    rows are re-executed through the scalar kernel in row order
    (:func:`clean_segments` walks them).

    Soundness rests on two facts: a row's destination bins are always a
    subset of its sampled bins, and placements only ever *add* load.  The
    detector therefore uses each clean row's provisional destinations and
    each suspect row's full sample set as its (conservative) write set,
    and iterates to a fixpoint.  The destinations of the clean rows of a
    batch are pairwise distinct, so clean placements can be applied with
    one fancy-indexed add — no ``np.add.at`` needed.
"""

from __future__ import annotations

from typing import Iterator, Tuple

import numpy as np

__all__ = [
    "stable_tiebreak_ranks",
    "ball_order_kept",
    "add_repeat_counts",
    "strict_key_offsets",
    "strict_select_rows",
    "ConflictScratch",
    "conflict_free_prefix",
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
    rows = np.arange(len(kept))[:, None]
    order = np.argsort(keys[rows, kept], axis=1, kind="stable")
    return kept[rows, order]


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
    ranks[np.arange(batch)[:, None], order] = np.arange(d)
    return ranks


def add_repeat_counts(target: np.ndarray, samples: np.ndarray, scale: int = 1) -> None:
    """Add ``scale * m`` to ``target`` slot by slot, in place.

    ``m`` counts the earlier slots of the same row holding the same bin:
    the strict rule's height is ``loads[b] + m + 1``.  Only rows that sample
    some bin twice (a ~``d^2 / 2n`` fraction) are touched or pay for the
    argsort.
    """
    row_sorted = np.sort(samples, axis=1)
    repeated = np.flatnonzero((row_sorted[:, 1:] == row_sorted[:, :-1]).any(axis=1))
    if not repeated.size:
        return
    rows = samples[repeated]
    batch, d = rows.shape
    order = np.argsort(rows, axis=1, kind="stable")
    ordered = np.take_along_axis(rows, order, axis=1)
    columns = np.broadcast_to(np.arange(d), (batch, d))
    run_start = np.where(
        np.concatenate(
            (np.ones((batch, 1), dtype=bool), ordered[:, 1:] != ordered[:, :-1]),
            axis=1,
        ),
        columns,
        0,
    )
    # The stable sort keeps equal bins in slot order, so a slot's offset in
    # its run of equal bins is its count of earlier occurrences.
    earlier = np.empty((batch, d), dtype=np.int64)
    np.put_along_axis(
        earlier, order, columns - np.maximum.accumulate(run_start, axis=1), axis=1
    )
    target[repeated] += scale * earlier


def strict_key_offsets(samples: np.ndarray, tiebreaks: np.ndarray) -> np.ndarray:
    """The load-independent part of every slot's strict-rule key.

    Returns ``m * d + rank`` per slot (``m`` as in
    :func:`add_repeat_counts`, ``rank`` the stable tie-break rank), so
    ``loads[samples] * d + offsets`` orders a row's slots exactly as
    :func:`~repro.core.policies.strict_select` does: ``rank < d``, and keys
    within a row are distinct.
    """
    offsets = stable_tiebreak_ranks(tiebreaks)
    add_repeat_counts(offsets, samples, scale=samples.shape[1])
    return offsets


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
    ``np.add.at``-style adds, which are order-insensitive) unless
    ``ordered=True``, which sorts each row into *ball order* — the exact
    order the scalar :func:`~repro.core.policies.strict_select` kernel
    returns — for callers that hand destinations out one ball at a time
    (the streaming allocator).

    One-ball rows need no tie-break ranks (a per-row argsort): the lowest
    height wins, then the smallest tie-break among the lowest, and
    ``argmin`` takes the first of bit-equal doubles exactly as the scalar
    lexsort does.
    """
    if k == 1:
        heights = loads[samples]
        add_repeat_counts(heights, samples)
        lowest = heights == heights.min(axis=1, keepdims=True)
        kept = np.where(lowest, tiebreaks, 2.0).argmin(axis=1)[:, None]
    else:
        keys = loads[samples] * np.int64(samples.shape[1])
        keys += strict_key_offsets(samples, tiebreaks)
        kept = np.argpartition(keys, k - 1, axis=1)[:, :k]
        if ordered:
            kept = ball_order_kept(keys, kept)
    return samples[np.arange(len(samples))[:, None], kept]


class ConflictScratch:
    """Reusable first-writer-position buffer for :func:`prefix_conflicts`
    and :func:`conflict_free_prefix`.

    Allocating (and clearing) an ``n_bins``-sized array per batch would cost
    O(n) per call; the scratch instead remembers which entries it touched and
    resets only those, so a batch costs O(batch * width).  The row-position
    arange is cached too, so steady-state batches allocate nothing fixed.
    Positions are row indices within one batch, so 32 bits hold them.
    """

    _SENTINEL = np.iinfo(np.int32).max

    def __init__(self, n_bins: int) -> None:
        self.positions = np.full(n_bins, self._SENTINEL, dtype=np.int32)
        self._arange = np.arange(0, dtype=np.int32)

    def row_positions(self, batch: int) -> np.ndarray:
        if len(self._arange) < batch:
            self._arange = np.arange(batch, dtype=np.int32)
        return self._arange[:batch]

    def reset(self, touched: np.ndarray) -> None:
        self.positions[touched] = self._SENTINEL


def conflict_free_prefix(destinations: np.ndarray, scratch: ConflictScratch) -> int:
    """How many leading rows keep no bin that an earlier row keeps.

    ``destinations`` holds each row's ``k`` provisional destinations, all
    computed against the same loads.  A row whose destinations no earlier
    row writes keeps them in the sequential replay: placements only raise
    loads, so the row's kept keys are unchanged and every other key can only
    grow (induction over row index).  The caller applies exactly these rows
    and re-speculates from the first conflicting one.  Row 0 never
    conflicts, so the result is at least 1 for a non-empty batch.
    """
    rows, k = destinations.shape
    flat = destinations.ravel()
    positions = np.repeat(scratch.row_positions(rows), k)
    # First writer per bin; a row keeping one bin twice is its own writer.
    np.minimum.at(scratch.positions, flat, positions)
    conflicts = scratch.positions[flat] < positions
    scratch.reset(flat)
    first = int(conflicts.argmax())
    return first // k if conflicts[first] else rows


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
