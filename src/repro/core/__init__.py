"""Core allocation processes: the (k, d)-choice process and its comparators.

Each kernel-backed ball-stream scheme is defined once, by its stepper in
:mod:`repro.core.kernels`; run schemes through :func:`repro.api.simulate`.
This subpackage exports the state, policy and result types, the runners
that stay hand-written (serialized, churn, single choice, batched random)
and the metrics.
"""

from .baselines import run_batch_random, run_single_choice
from .dynamic import (
    ChurnResult,
    ChurnSnapshot,
    DynamicKDChoiceProcess,
    run_churn_kd_choice,
)
from .policies import GreedyPolicy, StrictPolicy, get_policy, strict_select
from .serialization import BallPlacement, SerializedKDChoice, run_serialized_kd_choice
from .state import BinState
from .types import AllocationResult, ProcessParams
from .weighted import make_weights
from . import metrics

__all__ = [
    "AllocationResult",
    "ProcessParams",
    "BinState",
    "strict_select",
    "SerializedKDChoice",
    "run_serialized_kd_choice",
    "BallPlacement",
    "StrictPolicy",
    "GreedyPolicy",
    "get_policy",
    "run_single_choice",
    "run_batch_random",
    "make_weights",
    "DynamicKDChoiceProcess",
    "ChurnResult",
    "ChurnSnapshot",
    "run_churn_kd_choice",
    "metrics",
]
