"""repro — a reproduction of "A Generalization of Multiple Choice
Balls-into-Bins: Tight Bounds" (Gahyun Park, PODC 2011 / arXiv:1201.3310).

The package implements the (k, d)-choice allocation process, the classic
balls-into-bins baselines and adaptive comparators, the theoretical bounds of
the paper, and two application substrates (a Sparrow-style cluster scheduler
and a distributed-storage placement simulator), plus experiment recipes that
regenerate every table and figure in the paper's evaluation.

Canonical entry point
---------------------
Workloads are expressed declaratively through :mod:`repro.api`: build a
:class:`~repro.api.SchemeSpec` naming any registered scheme and execute it
with :func:`repro.api.simulate` (one run) or :func:`repro.api.simulate_many`
(seed-tree fan-out over trials):

>>> from repro.api import SchemeSpec, simulate
>>> spec = SchemeSpec(scheme="kd_choice",
...                   params={"n_bins": 4096, "k": 4, "d": 8}, seed=7)
>>> simulate(spec).max_load <= 4
True

``repro.api.available_schemes()`` lists every registered workload, and
constructing a spec with ``SchemeSpec(..., engine="vectorized")`` selects
the batch fast path (seed-for-seed identical to the scalar engine).

The historical top-level ``run_*`` shims (deprecated since the spec API
landed) are gone.  Each kernel-backed scheme is defined once, by its
stepper in :mod:`repro.core.kernels`; its scalar engine steps that stepper
one unit at a time, so there is no separate reference implementation in
the package.
"""

import importlib

from .core import (
    AllocationResult,
    BallPlacement,
    BinState,
    ChurnResult,
    DynamicKDChoiceProcess,
    GreedyPolicy,
    ProcessParams,
    SerializedKDChoice,
    StrictPolicy,
    get_policy,
    metrics,
)
from .api import (
    SchemeSpec,
    available_schemes,
    describe_scheme,
    register_scheme,
    simulate,
    simulate_many,
)
from . import api

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # unified spec API
    "SchemeSpec",
    "simulate",
    "simulate_many",
    "available_schemes",
    "describe_scheme",
    "register_scheme",
    # core re-exports
    "AllocationResult",
    "ProcessParams",
    "BinState",
    "SerializedKDChoice",
    "BallPlacement",
    "StrictPolicy",
    "GreedyPolicy",
    "get_policy",
    "DynamicKDChoiceProcess",
    "ChurnResult",
    "metrics",
    # subpackages
    "api",
    "analysis",
    "simulation",
    "experiments",
    "cluster",
    "storage",
]


def __getattr__(name: str):
    # Subpackages load on first access (PEP 562), so a process that needs
    # only the allocator (``repro serve``) does not load them.
    if name in ("analysis", "cluster", "experiments", "simulation", "storage"):
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
