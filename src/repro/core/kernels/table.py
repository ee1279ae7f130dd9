"""The kernel table: one registration per scheme, engines derived from it.

Every allocation scheme registers a :class:`Kernel` here — its draw-block
spec (the exact RNG blocks the scheme consumes, in order), its per-unit
apply (an :class:`~repro.core.kernels.base.OnlineStepper` factory, whose
``step()`` is the scheme's one definition and whose ``step_block`` is the
batched apply; each kernel module's docstring names it) and its guards.
The engine surfaces are *derived* from that single registration:

* the **online** surface is the stepper factory itself;
* the **scalar**, **vectorized** and **compiled** surfaces are the modes of
  :func:`drive`: build the stepper, run it to the end of its planned
  stream, report ``stepper.result()``.  The scalar mode only calls
  ``step()``; the batch modes let ``step_block`` place whole blocks, which
  is bit-identical to the same ``step()`` calls, so every engine is
  seed-for-seed identical to every other (the equivalence suites in
  ``tests/core`` and ``tests/online`` check each against the hand-written
  oracle loops in ``tests/oracles``).

A few schemes keep a hand-written scalar runner (``Kernel.scalar``); each
entry says why.

:attr:`Kernel.engines` holds the derived callables.  The registry
(:mod:`repro.api.schemes`) registers ``engines["scalar"]`` as the scheme's
runner, passes ``kernel=KERNELS[name]`` and holds that record:
``SchemeInfo.vectorized``, ``.compiled`` and ``.online`` read it, so there
is no copy to drift.  ``repro schemes --check`` verifies that every kernel
here is registered with its record.

The guards' two capability levels, which keep auto-selection honest, are
described on :class:`Kernel`.
"""

from __future__ import annotations

import functools
import inspect
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from ..baselines import run_batch_random, run_single_choice
from ..serialization import run_serialized_kd_choice
from ..types import AllocationResult
from .adaptive import ThresholdAdaptiveStepper, TwoPhaseAdaptiveStepper
from .balls import AlwaysGoLeftStepper, OnePlusBetaStepper
from .base import (
    CALLABLE_THRESHOLD_REASON,
    OnlineStepper,
    _require_strict,
    run_to_completion,
)
from .churn import run_churn_allocation_vectorized
from .kd import DChoiceStepper, KDChoiceStepper
from .serialized import SerializedKDChoiceStepper
from .single import SingleChoiceStepper
from .stale import StaleKDChoiceStepper
from .topology import HierarchicalGoLeftStepper, LocalityTwoChoiceStepper
from .weighted import WeightedKDChoiceStepper

__all__ = ["Kernel", "KERNELS", "EXEMPT_SCHEMES", "drive"]

#: Why the serialized scheme's batch engine is opt-in only.
SERIALIZED_FASTPATH_REASON = (
    "the serialized process is defined ball-at-a-time, so its batch engine "
    "drives the per-round kernel with no speedup (and omits the per-ball "
    "'placements' record); engine='auto' keeps the scalar reference"
)

#: Why the greedy relaxation's batch engine is opt-in only.
GREEDY_FASTPATH_REASON = (
    "the greedy policy re-reads the loads after every placement, so its "
    "batch engine drives the per-round kernel with no speedup; "
    "engine='auto' keeps the scalar reference"
)


# ----------------------------------------------------------------------
# Every derived engine is drive(kernel, engine, ...)
# ----------------------------------------------------------------------
def drive(kernel: "Kernel", engine: str, **kwargs: Any) -> AllocationResult:
    """Run ``kernel``'s stepper to the end of its planned stream.

    ``kwargs`` are the stepper factory's keyword arguments.  ``engine``
    tags the result and selects how units are placed: ``"scalar"`` calls
    ``step()`` one unit at a time and accepts every policy the stepper
    accepts; ``"vectorized"`` and ``"compiled"`` let ``step_block`` place
    whole blocks, which draws the same RNG blocks, so loads, messages,
    rounds and the final generator state match the scalar engine seed for
    seed.  The batch modes run the strict policy only; other policies
    raise ``ValueError``.
    """
    if engine == "scalar":
        stepper = kernel.stepper(**kwargs)
        while not stepper.exhausted:
            stepper.step()
    else:
        _require_strict(kwargs.get("policy", "strict"))
        stepper = run_to_completion(kernel.stepper(**kwargs), engine)
    return stepper.result(engine)


# ----------------------------------------------------------------------
# Stepper factories that fix or rename a parameter of a shared kernel
# ----------------------------------------------------------------------
def greedy_kd_choice_stepper(
    n_bins: int,
    k: int,
    d: int,
    n_balls: Optional[int] = None,
    seed: "int | Any" = None,
    rng: Optional[Any] = None,
) -> KDChoiceStepper:
    """Stream (k, d)-choice under the greedy water-filling relaxation."""
    return KDChoiceStepper(
        n_bins=n_bins, k=k, d=d, n_balls=n_balls, policy="greedy", seed=seed, rng=rng
    )


def two_choice_stepper(
    n_bins: int,
    n_balls: Optional[int] = None,
    seed: "int | Any" = None,
    rng: Optional[Any] = None,
    capacities: Optional[Any] = None,
) -> DChoiceStepper:
    """Stream Greedy[2]."""
    return DChoiceStepper(
        n_bins=n_bins, d=2, n_balls=n_balls, seed=seed, rng=rng,
        capacities=capacities,
    )


def batch_random_stepper(
    n_bins: int,
    k: int,
    n_balls: Optional[int] = None,
    seed: "int | Any" = None,
    rng: Optional[Any] = None,
) -> SingleChoiceStepper:
    """Stream SA(k, k): uniform bins, rounds of ``k`` balls."""
    return SingleChoiceStepper(
        n_bins=n_bins, n_balls=n_balls, seed=seed, rng=rng, round_size=k
    )


def _threshold_fastpath_guard(params: Mapping[str, Any]) -> Optional[str]:
    if callable(params.get("threshold")):
        return CALLABLE_THRESHOLD_REASON
    return None


def _serialized_fastpath_guard(params: Mapping[str, Any]) -> Optional[str]:
    return SERIALIZED_FASTPATH_REASON


def _greedy_fastpath_guard(params: Mapping[str, Any]) -> Optional[str]:
    return GREEDY_FASTPATH_REASON


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Kernel:
    """A scheme's single engine registration.

    The scheme registry holds this record as ``SchemeInfo.kernel`` and reads
    every engine surface from it; nothing is copied.

    ``draw_blocks`` documents the exact RNG blocks the kernel consumes per
    unit/chunk/epoch — the contract that makes the stepper's ``step()`` and
    its batched apply bit-identical.

    ``stepper`` is the scheme's definition: its ``step()`` places one unit,
    and the factory is the streaming allocator's (``SchemeInfo.online``).
    Its keyword signature is the scheme's parameter list (the registry
    introspects it).  ``None`` means the scheme does not stream.

    ``scalar`` is a hand-written scalar runner used instead of
    :func:`drive`'s ``"scalar"`` mode; each entry that sets one says why.
    Left ``None``, the scalar engine of a scheme with a stepper is
    ``drive``'s ``"scalar"`` mode.

    ``vectorized`` is a batch engine used instead of :func:`drive`: churn's
    stepperless batch core, a substrate's fast event core, or a scalar
    runner that is already batched.  Left ``None``, the vectorized engine
    is ``drive``'s ``"vectorized"`` mode.

    The guards are predicates ``(params) -> reason-or-None`` at two
    capability levels:

    * ``vectorized_guard`` (hard): the batch engine cannot run those
      parameters at all (e.g. a failure scenario only the reference
      simulator implements), so forcing ``engine="vectorized"`` raises;
    * ``fastpath_guard`` (soft): the batch engine runs them but brings no
      speedup (it drives the per-unit kernel), so ``engine="auto"`` stays
      on the scalar engine; forcing ``engine="vectorized"`` is honoured.

    ``compiled`` marks schemes whose stepper has C block kernels; their
    compiled engine is ``drive``'s ``"compiled"`` mode, and
    ``engine="auto"`` prefers it over the vectorized engine wherever the C
    backend builds.  The C kernels run any parameters the stepper accepts,
    so the compiled engine has only the soft level:
    ``compiled_fastpath_guard`` names parameters where it works but
    degenerates to the per-unit drive path, so ``auto`` skips it.
    Whether the C backend itself is buildable in the current environment
    is a separate, per-process question answered by
    :func:`repro.core.compiled.backend_unavailable_reason`.
    """

    name: str
    unit: str
    draw_blocks: Tuple[str, ...]
    stepper: Optional[Callable[..., OnlineStepper]]
    scalar: Optional[Callable[..., AllocationResult]] = None
    vectorized: Optional[Callable[..., AllocationResult]] = None
    vectorized_guard: Optional[Callable[[Mapping[str, Any]], Optional[str]]] = None
    fastpath_guard: Optional[Callable[[Mapping[str, Any]], Optional[str]]] = None
    compiled: bool = False
    compiled_fastpath_guard: Optional[
        Callable[[Mapping[str, Any]], Optional[str]]
    ] = None

    @functools.cached_property
    def engines(self) -> Dict[str, Callable[..., AllocationResult]]:
        """The engines by registry name (``"scalar"``, ``"vectorized"``,
        ``"compiled"``).

        Computed once, so the registry and the parity lint see the same
        callable objects.  A derived scalar engine carries the stepper
        factory's signature, which is what the registry introspects.
        """
        engines: Dict[str, Callable[..., AllocationResult]] = {}
        if self.scalar is not None:
            engines["scalar"] = self.scalar
        elif self.stepper is not None:
            scalar = functools.partial(drive, self, "scalar")
            scalar.__signature__ = inspect.signature(self.stepper).replace(
                return_annotation=AllocationResult
            )
            engines["scalar"] = scalar
        if self.vectorized is not None:
            engines["vectorized"] = self.vectorized
        elif self.stepper is not None:
            engines["vectorized"] = functools.partial(drive, self, "vectorized")
        if self.compiled:
            engines["compiled"] = functools.partial(drive, self, "compiled")
        return engines

    def with_engines(self, engines: Mapping[str, Callable[..., AllocationResult]]) -> "Kernel":
        """A copy of this record whose batch engines are ``engines``, by
        name, over the derived ones (how instrumentation wraps them)."""
        copy = replace(self)
        copy.__dict__["engines"] = {**self.engines, **engines}
        return copy


#: Schemes outside this table: their engines are bespoke substrate
#: simulators (event cores), not ball-stream kernels, and their stepperless
#: records live next to their runners in :mod:`repro.api.schemes` (``core``
#: does not import the substrates).  The registry parity lint (``repro
#: schemes --check``) requires every other scheme to be registered with its
#: entry here.
EXEMPT_SCHEMES = frozenset({"cluster_scheduling", "storage_placement"})


KERNELS: Dict[str, Kernel] = {
    "kd_choice": Kernel(
        name="kd_choice",
        unit="round (k balls)",
        draw_blocks=(
            "samples int(chunk, d) per <=chunk_rounds rounds",
            "ties float(chunk, d) [strict, k < d]",
            "tail: samples int(d), ties float(d)",
        ),
        stepper=KDChoiceStepper,
        compiled=True,
    ),
    "serialized_kd_choice": Kernel(
        name="serialized_kd_choice",
        unit="round (k balls, serialized by sigma)",
        draw_blocks=(
            "per round: samples int(d)",
            "ties float(d) [k < d]",
            "sigma draws [random sigma: permutation(k)]",
        ),
        stepper=SerializedKDChoiceStepper,
        # The runner's result carries the per-ball extra["placements"]
        # record, and SerializedKDChoice (loads_at_time, height_of_ball)
        # serves the analysis; the stepper keeps neither.
        scalar=run_serialized_kd_choice,
        fastpath_guard=_serialized_fastpath_guard,
    ),
    "weighted_kd_choice": Kernel(
        name="weighted_kd_choice",
        unit="round (k weighted balls)",
        draw_blocks=(
            "weights float(n_balls) up front (make_weights)",
            "samples int(chunk, d) + ties float(chunk, d) per <=4096 rounds",
            "tail: samples int(d), ties float(d)",
        ),
        stepper=WeightedKDChoiceStepper,
        compiled=True,
    ),
    "stale_kd_choice": Kernel(
        name="stale_kd_choice",
        unit="round (k balls, epoch-snapshot probes)",
        draw_blocks=(
            "per epoch: samples int(epoch_rounds, d)",
            "ties float(epoch_rounds, d) [strict, k < d]",
            "partial k == d tail: ties float(d)",
        ),
        stepper=StaleKDChoiceStepper,
        compiled=True,
    ),
    "greedy_kd_choice": Kernel(
        name="greedy_kd_choice",
        unit="round (k balls)",
        draw_blocks=(
            "samples int(chunk, d) per <=chunk_rounds rounds",
            "greedy heap ties per round",
            "tail: samples int(d) + policy draws",
        ),
        stepper=greedy_kd_choice_stepper,
        fastpath_guard=_greedy_fastpath_guard,
    ),
    "churn_kd_choice": Kernel(
        name="churn_kd_choice",
        unit="round (k arrivals + departures); batch-only",
        draw_blocks=(
            "warmup int(warmup_balls)",
            "per round: samples int(d), ties float(d) [k < d], "
            "one int per departure",
        ),
        # Departures are global events, not a per-item stream, so there is
        # no stepper; the scheme's hand-written runner (registered in
        # repro.api.schemes) is its scalar engine.
        stepper=None,
        vectorized=run_churn_allocation_vectorized,
    ),
    "single_choice": Kernel(
        name="single_choice",
        unit="ball",
        draw_blocks=("destinations int(n_balls) up front",),
        stepper=SingleChoiceStepper,
        # One bincount: the runner is already its own vectorized engine.
        scalar=run_single_choice,
        vectorized=run_single_choice,
    ),
    "d_choice": Kernel(
        name="d_choice",
        unit="ball (a 1-ball round)",
        draw_blocks=("the kd_choice blocks with k = 1",),
        stepper=DChoiceStepper,
        compiled=True,
    ),
    "two_choice": Kernel(
        name="two_choice",
        unit="ball (a 1-ball round)",
        draw_blocks=("the kd_choice blocks with k = 1, d = 2",),
        stepper=two_choice_stepper,
        compiled=True,
    ),
    "one_plus_beta": Kernel(
        name="one_plus_beta",
        unit="ball",
        draw_blocks=(
            "per <=8192 balls: coins float(batch), first int(batch), "
            "second int(batch)",
        ),
        stepper=OnePlusBetaStepper,
        compiled=True,
    ),
    "always_go_left": Kernel(
        name="always_go_left",
        unit="ball",
        draw_blocks=("per <=8192 balls: uniforms float(batch, d)",),
        stepper=AlwaysGoLeftStepper,
        compiled=True,
    ),
    "batch_random": Kernel(
        name="batch_random",
        unit="ball (rounds of k for accounting)",
        draw_blocks=("destinations int(n_balls) up front",),
        stepper=batch_random_stepper,
        # One bincount: the runner is already its own vectorized engine.
        scalar=run_batch_random,
        vectorized=run_batch_random,
    ),
    "threshold_adaptive": Kernel(
        name="threshold_adaptive",
        unit="ball",
        draw_blocks=("per <=8192 balls: probes int(batch, max_probes)",),
        stepper=ThresholdAdaptiveStepper,
        fastpath_guard=_threshold_fastpath_guard,
        compiled=True,
        compiled_fastpath_guard=_threshold_fastpath_guard,
    ),
    "two_phase_adaptive": Kernel(
        name="two_phase_adaptive",
        unit="ball",
        draw_blocks=(
            "per <=8192 balls: primary int(batch), "
            "fallback int(batch, retry_probes)",
        ),
        stepper=TwoPhaseAdaptiveStepper,
        compiled=True,
    ),
    "hierarchical_always_go_left": Kernel(
        name="hierarchical_always_go_left",
        unit="ball",
        draw_blocks=(
            "per <=8192 balls: uniforms float(batch, n_racks) scaled into "
            "the topology's rack ranges",
        ),
        stepper=HierarchicalGoLeftStepper,
    ),
    "locality_two_choice": Kernel(
        name="locality_two_choice",
        unit="ball (a 1-ball round)",
        draw_blocks=(
            "samples int(chunk, d) per <=chunk_rounds rounds",
            "ties float(d) per ball (the Bresenham remap draws nothing)",
        ),
        stepper=LocalityTwoChoiceStepper,
    ),
}
