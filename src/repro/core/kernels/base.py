"""Kernel-contract foundations shared by every scheme kernel.

A *kernel* is the single registration a scheme makes (see
:mod:`repro.core.kernels.table`): a draw-block spec, a per-unit apply and an
optional batched apply.  This module holds the pieces every kernel builds
on:

* :class:`OnlineStepper` — the per-unit apply surface.  A stepper owns the
  bin state and the generator and produces destination bins one *unit*
  (round, ball or epoch-portion) at a time.  Its contract:

  **RNG-block fidelity.**  Randomness is drawn in exactly the blocks
  (shape and order) the kernel's ``draw_blocks`` spec names, buffered, and
  consumed incrementally, whether units are placed by ``step()`` or by
  ``step_block``.  After a stepper has emitted its full planned stream, its
  loads, message/round accounting *and generator state* are bit-for-bit
  what every engine of the scheme produces for the same seed — the
  property the equivalence suites in ``tests/core`` and ``tests/online``
  lock down against the oracle loops of ``tests/oracles``.  This is why
  every stepper needs the planned stream length up front (``n_balls``,
  defaulting to ``n_bins``): the final chunk is sized by the number of
  rounds remaining, so an open-ended stream could not reproduce it.

  **Units.**  ``step()`` executes the next atomic unit and returns its
  destination bins in ball order; it is the scheme's definition, and
  :func:`~repro.core.kernels.table.drive`'s ``"scalar"`` mode is a loop
  of it.  ``step_block(max_balls)`` optionally executes many whole
  units at once through the vectorized kernels of
  :mod:`repro.core.batched` — bit-identical to repeated ``step()`` calls,
  only faster — returning a flat destination array, or ``None`` when no
  fast path applies (the caller falls back to ``step()``).

  **Snapshots.**  ``state_dict()`` captures the complete mutable state
  (loads, buffered RNG blocks, counters, the generator state itself) as a
  JSON-serializable dict; ``load_state()`` restores it, so a resumed
  stream continues bit-identically.

  **Results.**  ``result(engine)`` reports a finished stream as the
  :class:`~repro.core.types.AllocationResult` the batch engines return.
  Subclasses override only its scheme-specific parts: the label, the
  policy tag, ``(k, d)`` and the ``extra`` entries.

* :func:`run_to_completion` — drives a stepper to the end of its planned
  stream, block by block.  :func:`~repro.core.kernels.table.drive` builds
  every batch engine from it; because ``step_block`` consumes the same RNG
  blocks as ``step()``, the derived engine is seed-for-seed identical to
  the scalar one.

* :func:`speculate_balls`, the speculate-and-truncate loop of the one-ball
  batched applies (locality, hierarchical, threshold), and the window
  sizes: :func:`speculation_window` for every speculate-and-truncate
  kernel (these, weighted and the (k, d) family), and
  :func:`speculative_batch_rows` for the three speculate-verify kernels
  that anchor the compiled-floor gate (see :mod:`repro.core.batched`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..baselines import _CHUNK as _BALL_CHUNK
from ..batched import ConflictScratch, conflict_free_prefix
from ..types import AllocationResult

__all__ = [
    "StreamExhausted",
    "OnlineStepper",
    "run_to_completion",
    "speculate_balls",
    "speculation_window",
    "speculative_batch_rows",
    "normalize_capacities",
    "CALLABLE_THRESHOLD_REASON",
]

#: Why callable thresholds stay off the batched fast path.  The registry's
#: fast-path guard returns this same string, so engine auto-selection and
#: the kernel's own check cannot drift apart.
CALLABLE_THRESHOLD_REASON = (
    "the vectorized engine supports only integer (or default) thresholds, "
    "got a callable; use the scalar engine instead"
)


def _require_strict(policy: "str | object") -> None:
    policy_name = policy if isinstance(policy, str) else getattr(policy, "name", "?")
    if policy_name != "strict":
        raise ValueError(
            f"the vectorized engine implements only the strict policy, "
            f"got {policy_name!r}; use the scalar engine instead"
        )


#: Rounds whose samples one RNG block draws, for the round kernels that
#: draw ``(chunk, d)`` sample blocks (kd, weighted, stale's compiled epochs,
#: locality).  It bounds the sample-buffer memory; a full Table-1 run with
#: k = 1, d = 193 would otherwise materialize ~200k x 193 integers at once.
_DEFAULT_CHUNK_ROUNDS = 4096

#: Smallest speculation window (tiny or crowded tables still key a few rows
#: per step; the truncation keeps them exact).
_MIN_WINDOW = 8
#: Most slots one speculation window keys, which bounds its temporaries.
_WINDOW_SLOTS = 1 << 15


def speculation_window(n_bins: int, k: int, d: int) -> int:
    """Rows keyed per speculate-and-truncate step.

    Row ``i`` of a window keeps ``k`` bins after ``i * k`` provisional
    writes, so it conflicts with probability ~``i k^2 / n``, and the first
    conflict lands near row ``sqrt(2 n) / k``.  Rows past it are keyed in
    vain, so a wider window only adds work.  At most :data:`_WINDOW_SLOTS`
    slots (``d`` per row) are keyed at once.
    """
    return max(_MIN_WINDOW, min(int((2 * n_bins) ** 0.5) // k, _WINDOW_SLOTS // d))


def speculate_balls(
    loads: np.ndarray,
    count: int,
    window: int,
    scratch: ConflictScratch,
    choose: Callable[[int, int], np.ndarray],
    out: np.ndarray,
) -> None:
    """Place ``count`` one-ball rows exactly as ``count`` ``step()`` calls.

    The one-ball form of ``kd._select_rounds``: ``choose(start, stop)``
    returns the destinations of rows ``start:stop`` against the current
    ``loads`` (writing any per-row side output at ``[start:stop]`` too);
    the rows before the first one whose destination an earlier row of the
    window takes (:func:`~repro.core.batched.conflict_free_prefix`) are
    applied and written to ``out``, and the next window starts at that
    row, so its side output is recomputed.

    Exact for any rule whose choice is a minimum over a fixed preference
    order of the loads it reads: loads only grow, so a row whose
    destination no earlier row wrote still picks it (each caller checks
    its rule).  The applied destinations are pairwise distinct, so one
    fancy-indexed add places them.
    """
    start = 0
    while start < count:
        destinations = choose(start, min(start + window, count))
        taken = conflict_free_prefix(destinations[:, None], scratch)
        loads[destinations[:taken]] += 1
        out[start : start + taken] = destinations[:taken]
        start += taken


def speculative_batch_rows(n_bins: int, width: int, replays: int = 12) -> int:
    """Row count for the speculate-verify kernels (the floor anchors).

    A row of ``width`` read bins conflicts with one of the ~``B/2`` earlier
    writes with probability ~``B * width / (2 n)``, so a batch replays
    ~``B^2 width / (2 n)`` rows through the scalar kernel.  Solving for a
    target number of ``replays`` per batch (each costs a couple of
    microseconds, traded against the batch's fixed NumPy overhead) gives
    ``B = sqrt(2 * replays * n / width)``.
    """
    return max(32, min(_BALL_CHUNK, int((2 * replays * n_bins / width) ** 0.5)))


def normalize_capacities(
    capacities: "Optional[object]", n_bins: int
) -> Optional[np.ndarray]:
    """Validate a heterogeneous bin-capacity vector (``None`` passes through).

    Capacities are *parameters*, not state: steppers keep the validated
    array on the instance but reconstruct it from the spec on restore, so
    snapshots stay free of redundant per-bin floats.  Every capacity must
    be a finite positive number; the scale is arbitrary (only ratios
    matter for the fill comparison).
    """
    if capacities is None:
        return None
    array = np.asarray(capacities, dtype=np.float64)
    if array.shape != (n_bins,):
        raise ValueError(
            f"capacities must have one entry per bin ({n_bins}), got shape "
            f"{array.shape}"
        )
    if not np.all(np.isfinite(array)) or (array.size and float(array.min()) <= 0.0):
        raise ValueError(
            "every bin capacity must be a finite positive number"
        )
    return array


class StreamExhausted(RuntimeError):
    """Raised when a stepper is asked for more balls than its spec plans.

    The reference engines draw their final RNG chunk sized by the rounds
    remaining, so a stream cannot be extended past its planned ``n_balls``
    without diverging from the batch random stream; ask for a larger
    ``n_balls`` in the spec instead.
    """


def _rng_from_state(state: Dict[str, Any]) -> np.random.Generator:
    """Reconstruct a generator from a ``bit_generator.state`` dict."""
    name = state.get("bit_generator")
    bit_generator_cls = getattr(np.random, str(name), None)
    if bit_generator_cls is None:
        raise ValueError(f"unknown bit generator {name!r} in snapshot")
    bit_generator = bit_generator_cls()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


def _encode_array(array: Optional[np.ndarray]) -> Optional[Dict[str, Any]]:
    if array is None:
        return None
    return {
        "dtype": array.dtype.str,
        "shape": list(array.shape),
        "data": array.ravel().tolist(),
    }


def _decode_array(encoded: Optional[Dict[str, Any]]) -> Optional[np.ndarray]:
    if encoded is None:
        return None
    return np.asarray(encoded["data"], dtype=np.dtype(encoded["dtype"])).reshape(
        encoded["shape"]
    )


#: Sentinel a ``step_block`` returns instead of a destination array while a
#: kernel runs in drive mode (``_capture = False``): placement happened, but
#: nobody will read the per-ball order, so the kernel may skip building it.
_PLACED = np.empty(0, dtype=np.int64)


class OnlineStepper:
    """Base class: planned-stream bookkeeping and snapshot plumbing.

    Subclasses list their mutable attributes in ``_STATE_SCALARS`` (plain
    ints/floats/bools/None), ``_STATE_ARRAYS`` (numpy arrays or ``None``)
    and ``_STATE_LISTS`` (lists of ints); everything else — parameters,
    derived constants, scratch buffers — is reconstructed by ``__init__``.
    """

    _STATE_SCALARS: Tuple[str, ...] = ("messages", "rounds", "balls_emitted")
    _STATE_ARRAYS: Tuple[str, ...] = ("loads",)
    _STATE_LISTS: Tuple[str, ...] = ()

    #: How ``step_block`` applies placements: ``"vectorized"`` (the NumPy
    #: batch kernels) or ``"compiled"`` (the sequential C replay loops of
    #: :mod:`repro.core.compiled`), named as ``resolve_engine`` names the
    #: engines.  Both consume the identical RNG blocks and produce
    #: identical state — this is a *speed* mode, not state, so it is
    #: deliberately absent from ``state_dict`` and re-resolved from the
    #: spec/environment whenever a stepper is (re)constructed.
    kernel_mode: str = "vectorized"

    #: Balls per round as :meth:`result` reports it (the per-ball kernels
    #: keep one-ball rounds).
    k: int = 1

    #: The ``policy`` tag of :meth:`result`.
    result_policy: str = "strict"

    #: Whether ``step_block`` must return destinations in exact ball order.
    #: The streaming allocator always captures; :func:`run_to_completion`
    #: turns capture off so the derived batch engines skip the per-ball
    #: ordering work (the loads, counters and RNG stream are unaffected).
    _capture: bool = True

    n_bins: int
    planned_balls: int
    loads: np.ndarray
    rng: np.random.Generator
    messages: int
    rounds: int
    balls_emitted: int

    # ------------------------------------------------------------------
    # Stream protocol
    # ------------------------------------------------------------------
    @property
    def exhausted(self) -> bool:
        return self.balls_emitted >= self.planned_balls

    def _require_more(self) -> int:
        remaining = self.planned_balls - self.balls_emitted
        if remaining <= 0:
            raise StreamExhausted(
                f"the stream planned n_balls={self.planned_balls} and all of "
                f"them have been placed; build the allocator with a larger "
                f"n_balls to stream further"
            )
        return remaining

    def step(self) -> List[int]:
        """Execute the next unit; return its destinations in ball order."""
        raise NotImplementedError

    def step_block(self, max_balls: int) -> Optional[np.ndarray]:
        """Fast path: execute whole units totalling at most ``max_balls``.

        Returns the flat destination array (ball order), or ``None`` when no
        vectorized progress is possible (tail rounds, non-strict policies,
        ``max_balls`` below one unit) — callers then fall back to ``step``.
        """
        return None

    def set_kernel_mode(self, mode: str) -> None:
        """Select the block-apply engine (``"vectorized"`` or ``"compiled"``).

        ``"compiled"`` requires the C backend; raises
        :class:`~repro.core.compiled.CompiledUnavailable` with the guard
        reason when it cannot load — callers decide whether to degrade.
        """
        if mode not in ("vectorized", "compiled"):
            raise ValueError(
                f"kernel_mode must be 'vectorized' or 'compiled', got {mode!r}"
            )
        if mode == "compiled":
            from repro.core.compiled import load_backend

            load_backend()
        self.kernel_mode = mode

    def remove_ball(self, bin_index: int, ball_index: Optional[int] = None) -> None:
        """Take one ball out of ``bin_index`` (churn support)."""
        if not 0 <= bin_index < self.n_bins:
            raise ValueError(f"bin index {bin_index} out of range")
        if self.loads[bin_index] <= 0:
            raise ValueError(f"cannot remove from empty bin {bin_index}")
        self.loads[bin_index] -= 1

    # ------------------------------------------------------------------
    # Batch result
    # ------------------------------------------------------------------
    def result(self, engine: str) -> AllocationResult:
        """The stream's state as an :class:`AllocationResult`.

        ``engine`` is the ``extra["engine"]`` tag.  The result shares
        ``loads`` with the stepper rather than copying it.
        """
        k, d = self._result_kd()
        return AllocationResult(
            loads=self.loads,
            scheme=self._result_label(),
            n_bins=self.n_bins,
            n_balls=self.planned_balls,
            k=k,
            d=d,
            messages=self.messages,
            rounds=self.rounds,
            policy=self.result_policy,
            extra={**self._result_extra(), "engine": engine},
        )

    def _result_label(self) -> str:
        raise NotImplementedError

    def _result_kd(self) -> Tuple[int, int]:
        return self.k, self.d

    def _result_extra(self) -> Dict[str, Any]:
        return {}

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The complete mutable state, JSON-serializable."""
        state: Dict[str, Any] = {
            "rng": self.rng.bit_generator.state,
            "scalars": {name: getattr(self, name) for name in self._STATE_SCALARS},
            "arrays": {
                name: _encode_array(getattr(self, name))
                for name in self._STATE_ARRAYS
            },
            "lists": {
                name: list(getattr(self, name)) for name in self._STATE_LISTS
            },
        }
        state.update(self._extra_state())
        return state

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` capture (replaces the generator)."""
        self.rng = _rng_from_state(state["rng"])
        for name in self._STATE_SCALARS:
            setattr(self, name, state["scalars"][name])
        for name in self._STATE_ARRAYS:
            setattr(self, name, _decode_array(state["arrays"][name]))
        for name in self._STATE_LISTS:
            setattr(self, name, list(state["lists"][name]))
        self._load_extra_state(state)

    def _extra_state(self) -> Dict[str, Any]:
        return {}

    def _load_extra_state(self, state: Dict[str, Any]) -> None:
        pass


def run_to_completion(
    stepper: OnlineStepper, kernel_mode: Optional[str] = None
) -> OnlineStepper:
    """Drive a stepper to the end of its planned stream (in drive mode).

    ``step_block`` consumes the same RNG blocks as ``step()``, so driving
    the stepper to exhaustion yields loads, message/round counts and a
    final generator state bit-for-bit identical to the scalar engine's.  ``_capture`` is
    cleared for the duration so block kernels can skip per-ball destination
    ordering nobody will read.

    ``kernel_mode`` optionally selects the block-apply engine first
    (``"vectorized"`` or ``"compiled"``).
    """
    if kernel_mode is not None:
        stepper.set_kernel_mode(kernel_mode)
    stepper._capture = False
    try:
        while not stepper.exhausted:
            before = stepper.balls_emitted
            block = stepper.step_block(stepper.planned_balls - stepper.balls_emitted)
            if block is None or stepper.balls_emitted == before:
                stepper.step()
    finally:
        stepper._capture = True
    return stepper
