"""Hand-written scalar runners: the independent references of the tests.

The library defines each kernel-backed ball-stream scheme once, as its
kernel stepper (:mod:`repro.core.kernels`); the scalar engine is that
stepper's ``step()`` loop.  The loops here define the same schemes as
plain per-round or per-ball Python, one per scheme, so the equivalence
harnesses compare every engine (scalar included) with code that does not
share the stepper's bookkeeping.  They import nothing from
:mod:`repro.core.kernels`.

:data:`ORACLES` maps each scheme name to its oracle runner, which takes the
registered scalar engine's keyword arguments (less ``capacities``, which
only the kernels model).
"""

from .adaptive import run_threshold_adaptive, run_two_phase_adaptive
from .baselines import run_always_go_left, run_d_choice, run_one_plus_beta, run_two_choice
from .process import KDChoiceProcess, run_greedy_kd_choice, run_kd_choice
from .stale import StaleKDChoiceProcess, run_stale_kd_choice
from .topology import run_hierarchical_go_left, run_locality_two_choice
from .weighted import WeightedKDChoiceProcess, run_weighted_kd_choice

__all__ = [
    "ORACLES",
    "KDChoiceProcess",
    "StaleKDChoiceProcess",
    "WeightedKDChoiceProcess",
    "run_always_go_left",
    "run_d_choice",
    "run_greedy_kd_choice",
    "run_hierarchical_go_left",
    "run_kd_choice",
    "run_locality_two_choice",
    "run_one_plus_beta",
    "run_stale_kd_choice",
    "run_threshold_adaptive",
    "run_two_choice",
    "run_two_phase_adaptive",
    "run_weighted_kd_choice",
]

ORACLES = {
    "kd_choice": run_kd_choice,
    "greedy_kd_choice": run_greedy_kd_choice,
    "d_choice": run_d_choice,
    "two_choice": run_two_choice,
    "weighted_kd_choice": run_weighted_kd_choice,
    "stale_kd_choice": run_stale_kd_choice,
    "one_plus_beta": run_one_plus_beta,
    "always_go_left": run_always_go_left,
    "threshold_adaptive": run_threshold_adaptive,
    "two_phase_adaptive": run_two_phase_adaptive,
    "hierarchical_always_go_left": run_hierarchical_go_left,
    "locality_two_choice": run_locality_two_choice,
}
