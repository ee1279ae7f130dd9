"""Per-scheme kernel contract: draw blocks, per-unit apply, batched apply.

Each scheme makes exactly one registration in :data:`~repro.core.kernels.table.KERNELS`;
the online stepper, the batch engines (the modes of
:func:`~repro.core.kernels.table.drive`) and the guards all live in that
record, and the scheme registry holds the record itself.  See :mod:`repro.core.kernels.base` for the contract and
:mod:`repro.core.kernels.table` for the table and ``drive``.  Reach the
engines through the registry: ``get_scheme(name).vectorized`` and
``.compiled``.
"""

from .adaptive import ThresholdAdaptiveStepper, TwoPhaseAdaptiveStepper
from .balls import AlwaysGoLeftStepper, OnePlusBetaStepper
from .base import (
    CALLABLE_THRESHOLD_REASON,
    OnlineStepper,
    StreamExhausted,
    run_to_completion,
    speculative_batch_rows,
)
from .kd import DChoiceStepper, KDChoiceStepper
from .serialized import SerializedKDChoiceStepper
from .single import SingleChoiceStepper
from .stale import StaleKDChoiceStepper
from .table import EXEMPT_SCHEMES, KERNELS, Kernel, drive
from .topology import HierarchicalGoLeftStepper, LocalityTwoChoiceStepper
from .weighted import WeightedKDChoiceStepper

__all__ = [
    "Kernel",
    "KERNELS",
    "EXEMPT_SCHEMES",
    "drive",
    "OnlineStepper",
    "StreamExhausted",
    "run_to_completion",
    "speculative_batch_rows",
    "CALLABLE_THRESHOLD_REASON",
    "KDChoiceStepper",
    "DChoiceStepper",
    "SerializedKDChoiceStepper",
    "SingleChoiceStepper",
    "WeightedKDChoiceStepper",
    "StaleKDChoiceStepper",
    "OnePlusBetaStepper",
    "AlwaysGoLeftStepper",
    "HierarchicalGoLeftStepper",
    "LocalityTwoChoiceStepper",
    "ThresholdAdaptiveStepper",
    "TwoPhaseAdaptiveStepper",
]
