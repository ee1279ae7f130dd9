"""Allocation policies for the (k, d)-choice round.

A *policy* decides, given the current loads and the ``d`` sampled bins of a
round, which ``k`` balls land where.  Two policies from the paper are
implemented:

``StrictPolicy``
    The paper's (k, d)-choice rule (Section 1 and 1.1): a bin sampled ``m``
    times receives at most ``m`` balls.  Equivalently, place one ball in each
    of the ``d`` sampled bins sequentially and remove the ``d − k`` balls of
    maximal height (ties broken uniformly at random).

``GreedyPolicy``
    The relaxation sketched in Section 7 (future work): the multiplicity cap
    is dropped and the ``k`` balls are assigned greedily, one at a time, each
    to the currently least-loaded *distinct* sampled bin.  In the paper's
    (2, 3)-choice example with sampled loads ``{0, 2, 3}``, both balls go to
    the empty bin.

Both policies return the list of destination bins (with multiplicity); the
process applies the placements to its :class:`~repro.core.state.BinState`.
"""

from __future__ import annotations

import heapq
from typing import List, Protocol, Sequence

import numpy as np

__all__ = [
    "AllocationPolicy",
    "StrictPolicy",
    "GreedyPolicy",
    "get_policy",
    "strict_select",
    "capacity_select",
    "POLICIES",
]


def strict_select(
    loads: Sequence[int],
    samples: Sequence[int],
    k: int,
    tiebreak: np.ndarray,
) -> List[int]:
    """Strict (k, d)-choice selection with an explicit tie-break vector.

    This is the policy kernel shared by :class:`StrictPolicy` (which draws
    ``tiebreak`` from its generator) and the batch kernels in
    :mod:`repro.core.kernels` (which pre-draw tie-break blocks so that their
    random stream matches the scalar process draw for draw).
    """
    d = len(samples)
    # Place d virtual balls sequentially and record each ball's height.
    # ``extra[b]`` counts how many balls this round already went to bin b,
    # so the j-th ball landing in bin b has height loads[b] + extra[b] + 1.
    extra: dict[int, int] = {}
    heights = np.empty(d, dtype=np.int64)
    for j, bin_index in enumerate(samples):
        placed_before = extra.get(bin_index, 0)
        heights[j] = loads[bin_index] + placed_before + 1
        extra[bin_index] = placed_before + 1

    # Keep the k balls with the smallest heights; break ties uniformly at
    # random via the secondary sort key.
    order = np.lexsort((tiebreak, heights))
    kept = order[:k]
    return [samples[j] for j in kept]


def capacity_select(
    loads: Sequence[int],
    inv_capacity: np.ndarray,
    samples: Sequence[int],
    k: int,
    tiebreak: np.ndarray,
) -> List[int]:
    """:func:`strict_select` over *fractional fill* instead of raw height.

    The heterogeneous-bins extension (``hetero_bins`` workload): a bin of
    capacity ``c`` holding ``h`` balls is filled to ``h / c``, so the j-th
    virtual ball landing in bin ``b`` has fill
    ``(loads[b] + placed_before + 1) / capacity[b]`` and the strict rule
    keeps the ``k`` least-filled candidates.  With all capacities equal
    this reduces to :func:`strict_select` exactly (every fill is the raw
    height scaled by one constant).  Tie-breaking (equal fills, e.g.
    equal-capacity bins at equal load) stays uniform via the same
    secondary key.
    """
    d = len(samples)
    extra: dict[int, int] = {}
    fills = np.empty(d, dtype=np.float64)
    for j, bin_index in enumerate(samples):
        placed_before = extra.get(bin_index, 0)
        fills[j] = (loads[bin_index] + placed_before + 1) * inv_capacity[bin_index]
        extra[bin_index] = placed_before + 1

    order = np.lexsort((tiebreak, fills))
    kept = order[:k]
    return [samples[j] for j in kept]


class AllocationPolicy(Protocol):
    """Protocol implemented by every round-allocation policy."""

    name: str

    def select(
        self,
        loads: Sequence[int],
        samples: Sequence[int],
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        """Return the ``k`` destination bins for this round.

        Parameters
        ----------
        loads:
            Current (unsorted) load vector; must support ``loads[i]``.
        samples:
            The ``d`` sampled bin indices, with replacement, in sampling
            order.
        k:
            Number of balls to place this round.
        rng:
            Random generator used only for tie breaking.
        """
        ...


class StrictPolicy:
    """The paper's multiplicity-capped (k, d)-choice rule."""

    name = "strict"

    def select(
        self,
        loads: Sequence[int],
        samples: Sequence[int],
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        d = len(samples)
        if not 1 <= k <= d:
            raise ValueError(f"requires 1 <= k <= d, got k={k}, d={d}")
        if k == d:
            # Degenerate case: every sampled bin receives its ball; this is
            # the classical single-choice process run in batches of k.
            return list(samples)

        return strict_select(loads, samples, k, rng.random(d))


class GreedyPolicy:
    """Section 7 relaxation: greedy water-filling over the distinct samples.

    Each of the ``k`` balls goes to the least-loaded distinct sampled bin,
    taking into account the balls already placed this round.  A bin may
    therefore receive more balls than its sample multiplicity.
    """

    name = "greedy"

    def select(
        self,
        loads: Sequence[int],
        samples: Sequence[int],
        k: int,
        rng: np.random.Generator,
    ) -> List[int]:
        d = len(samples)
        if not 1 <= k <= d:
            raise ValueError(f"requires 1 <= k <= d, got k={k}, d={d}")

        distinct = list(dict.fromkeys(samples))  # preserves sampling order
        # Min-heap keyed by (current load within the round, random tiebreak).
        heap: List[tuple[int, float, int]] = [
            (loads[b], float(rng.random()), b) for b in distinct
        ]
        heapq.heapify(heap)

        destinations: List[int] = []
        for _ in range(k):
            load, _, bin_index = heapq.heappop(heap)
            destinations.append(bin_index)
            heapq.heappush(heap, (load + 1, float(rng.random()), bin_index))
        return destinations


POLICIES = {
    StrictPolicy.name: StrictPolicy,
    GreedyPolicy.name: GreedyPolicy,
}


def get_policy(name_or_policy: "str | AllocationPolicy") -> AllocationPolicy:
    """Resolve a policy name (or pass through a policy instance)."""
    if isinstance(name_or_policy, str):
        try:
            return POLICIES[name_or_policy]()
        except KeyError as exc:
            raise ValueError(
                f"unknown policy {name_or_policy!r}; choose from {sorted(POLICIES)}"
            ) from exc
    return name_or_policy
