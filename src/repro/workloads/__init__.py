"""One workload contract, every surface derived.

See :mod:`repro.workloads.records` for the contract and
:mod:`repro.workloads.library` for the scenario registrations.
"""

from .records import (
    Event,
    WORKLOADS,
    Workload,
    WorkloadError,
    available_workloads,
    bind_spec_params,
    generate_events,
    get_workload,
    register_workload,
    substrate_arrivals,
    workload_branches,
    workloads_dump,
)
from . import library  # noqa: F401  (registers the scenario library)

__all__ = [
    "Event",
    "WORKLOADS",
    "Workload",
    "WorkloadError",
    "available_workloads",
    "bind_spec_params",
    "generate_events",
    "get_workload",
    "register_workload",
    "substrate_arrivals",
    "workload_branches",
    "workloads_dump",
]
