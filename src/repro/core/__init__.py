"""Core allocation processes: the (k, d)-choice process and its comparators.

The public surface of this subpackage is re-exported at the top level of
:mod:`repro`; importing from either place is equivalent.
"""

from .adaptive import run_threshold_adaptive, run_two_phase_adaptive
from .baselines import (
    run_always_go_left,
    run_batch_random,
    run_d_choice,
    run_one_plus_beta,
    run_single_choice,
)
from .dynamic import (
    ChurnResult,
    ChurnSnapshot,
    DynamicKDChoiceProcess,
    run_churn_kd_choice,
)
from .policies import GreedyPolicy, StrictPolicy, get_policy, strict_select
from .process import KDChoiceProcess, run_kd_choice
from .serialization import BallPlacement, SerializedKDChoice, run_serialized_kd_choice
from .stale import StaleKDChoiceProcess, run_stale_kd_choice
from .state import BinState
from .types import AllocationResult, ProcessParams
from .weighted import WeightedKDChoiceProcess, make_weights, run_weighted_kd_choice
from . import metrics

__all__ = [
    "AllocationResult",
    "ProcessParams",
    "BinState",
    "KDChoiceProcess",
    "run_kd_choice",
    "strict_select",
    "SerializedKDChoice",
    "run_serialized_kd_choice",
    "BallPlacement",
    "StrictPolicy",
    "GreedyPolicy",
    "get_policy",
    "run_single_choice",
    "run_d_choice",
    "run_one_plus_beta",
    "run_always_go_left",
    "run_batch_random",
    "run_threshold_adaptive",
    "run_two_phase_adaptive",
    "WeightedKDChoiceProcess",
    "run_weighted_kd_choice",
    "make_weights",
    "StaleKDChoiceProcess",
    "run_stale_kd_choice",
    "DynamicKDChoiceProcess",
    "ChurnResult",
    "ChurnSnapshot",
    "run_churn_kd_choice",
    "metrics",
]
