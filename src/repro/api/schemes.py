"""Registrations: every workload in the repository as a named scheme.

Importing this module (which :mod:`repro.api` does eagerly) populates the
:data:`~repro.api.registry.REGISTRY` with

* the paper's (k, d)-choice process and its serialized, weighted, stale and
  dynamic variants,
* the classic baselines (single choice, Greedy[d], (1+β)-choice,
  Always-Go-Left, batched random) and the adaptive comparators,
* application substrates (cluster scheduling, distributed storage) adapted
  to return the common :class:`~repro.core.types.AllocationResult`.

Every runner takes keyword parameters plus ``seed``/``rng`` and returns an
``AllocationResult``, so one :class:`~repro.api.spec.SchemeSpec` shape
describes all of them.  A kernel-table scheme's runner is its kernel's
scalar engine (``KERNELS[name].engines["scalar"]``), whose parameters are
its stepper factory's.
"""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from ..core.dynamic import allocation_from_churn, run_churn_kd_choice
from ..core.kernels import KERNELS, Kernel
from ..core.types import AllocationResult
from .registry import register_scheme

__all__: list = []


def _register_kernel(name: str, **options: Any) -> None:
    """Register a kernel-table scheme: its runner is its scalar engine."""
    kernel = KERNELS[name]
    register_scheme(name, kernel=kernel, **options)(kernel.engines["scalar"])


# ----------------------------------------------------------------------
# The paper's process family
# ----------------------------------------------------------------------
# Every ball-stream scheme passes kernel=KERNELS[name]: the registry holds
# that record of repro.core.kernels.table and reads its engines, online
# stepper and engine guards from it.  Only churn registers a runner of its
# own (it has no stepper); the substrate simulators at the bottom of this
# module declare their own stepperless records, next to their runners
# (core/ does not import the substrates).
_register_kernel(
    "kd_choice",
    summary="The paper's (k, d)-choice process (k balls per round, d probes).",
    aliases=("kd",),
    tags=("paper", "process"),
)

_register_kernel(
    "serialized_kd_choice",
    summary="Ball-at-a-time serialization A_sigma of (k, d)-choice (Definition 1).",
    tags=("paper", "process"),
)

_register_kernel(
    "weighted_kd_choice",
    summary="(k, d)-choice with weighted balls (constant/exponential/Pareto).",
    tags=("extension", "process"),
)

_register_kernel(
    "stale_kd_choice",
    summary="(k, d)-choice probing stale load snapshots (parallel epochs).",
    tags=("extension", "process"),
)

_register_kernel(
    "greedy_kd_choice",
    summary="(k, d)-choice with the Section 7 greedy (uncapped) policy.",
    tags=("extension", "process"),
)


@register_scheme(
    "churn_kd_choice",
    summary="Dynamic insert/delete (k, d)-choice; loads are the steady state.",
    tags=("extension", "process"),
    kernel=KERNELS["churn_kd_choice"],
)
def _run_churn_kd_choice(
    n_bins: int,
    k: int,
    d: int,
    rounds: int,
    departures_per_round: Optional[int] = None,
    policy: str = "strict",
    seed: "int | np.random.SeedSequence | None" = None,
    rng: Optional[np.random.Generator] = None,
) -> AllocationResult:
    """Run the churn process and report its final configuration.

    The full :class:`~repro.core.dynamic.ChurnResult` (snapshots, steady-state
    statistics) rides along in ``extra["churn_result"]``.
    """
    churn = run_churn_kd_choice(
        n_bins=n_bins,
        k=k,
        d=d,
        rounds=rounds,
        departures_per_round=departures_per_round,
        policy=policy,
        seed=seed,
        rng=rng,
    )
    return allocation_from_churn(churn, n_bins, k, d, policy)


# ----------------------------------------------------------------------
# Classic baselines and adaptive comparators
# ----------------------------------------------------------------------
# Single choice (and its batched twin) is one bincount: the kernel's scalar
# runner doubles as its own vectorized engine, so engine="vectorized" is
# accepted and trivially scalar-identical.
_register_kernel(
    "single_choice",
    summary="Classic single-choice: every ball to one uniform bin.",
    aliases=("one_choice",),
    tags=("baseline",),
)

_register_kernel(
    "d_choice",
    summary="Azar et al.'s Greedy[d]: d probes, join the least loaded.",
    aliases=("greedy_d",),
    tags=("baseline",),
)

_register_kernel(
    "two_choice",
    summary="Greedy[2], the classic two-choice process.",
    tags=("baseline",),
)

_register_kernel(
    "one_plus_beta",
    summary="Peres-Talwar-Wieder (1+beta)-choice mixture process.",
    tags=("baseline",),
)

_register_kernel(
    "always_go_left",
    summary="Voecking's asymmetric Always-Go-Left d-choice scheme.",
    tags=("baseline",),
)

_register_kernel(
    "batch_random",
    summary="SA(k, k): k balls per round, each to a uniform bin.",
    tags=("baseline",),
)

_register_kernel(
    "threshold_adaptive",
    summary="Czumaj-Stemann adaptive threshold probing.",
    tags=("adaptive",),
)

_register_kernel(
    "two_phase_adaptive",
    summary="Simplified Lenzen-Wattenhofer two-phase adaptive scheme.",
    tags=("adaptive",),
)


# ----------------------------------------------------------------------
# Topology-aware variants (rack/zone hierarchies, repro.topology)
# ----------------------------------------------------------------------
_register_kernel(
    "hierarchical_always_go_left",
    summary="Always-Go-Left over a topology's racks (go-left per level).",
    aliases=("hgl",),
    tags=("extension", "topology"),
)

_register_kernel(
    "locality_two_choice",
    summary="Greedy[d] with zone-biased probes and threshold cross-zone spill.",
    aliases=("l2c",),
    tags=("extension", "topology"),
)


# ----------------------------------------------------------------------
# Application substrates (Section 1.3), adapted to AllocationResult
# ----------------------------------------------------------------------
# Substrate metric sets: module-level report-backed functions, so trials
# pickle across process pools and their float values cache losslessly.
def _report_of(result: AllocationResult):
    return result.extra["report"]


def _metric_max_load(result: AllocationResult) -> float:
    return float(result.max_load)


def _metric_gap(result: AllocationResult) -> float:
    return float(result.gap)


def _metric_messages(result: AllocationResult) -> float:
    return float(result.messages)


def _metric_mean_response(result: AllocationResult) -> float:
    return float(_report_of(result).mean_response)


def _metric_p95_response(result: AllocationResult) -> float:
    return float(_report_of(result).p95_response)


def _metric_p99_response(result: AllocationResult) -> float:
    return float(_report_of(result).p99_response)


def _metric_mean_task_wait(result: AllocationResult) -> float:
    return float(_report_of(result).mean_task_wait)


def _metric_utilization(result: AllocationResult) -> float:
    return float(_report_of(result).mean_utilization)


def _metric_messages_per_task(result: AllocationResult) -> float:
    return float(_report_of(result).messages_per_task)


CLUSTER_METRICS = {
    "max_load": _metric_max_load,
    "gap": _metric_gap,
    "messages": _metric_messages,
    "mean_response": _metric_mean_response,
    "p95_response": _metric_p95_response,
    "p99_response": _metric_p99_response,
    "mean_task_wait": _metric_mean_task_wait,
    "utilization": _metric_utilization,
    "messages_per_task": _metric_messages_per_task,
}


def _metric_load_stddev(result: AllocationResult) -> float:
    return float(_report_of(result).load_stddev)


def _metric_messages_per_file(result: AllocationResult) -> float:
    return float(_report_of(result).messages_per_file)


def _metric_mean_lookup_cost(result: AllocationResult) -> float:
    return float(_report_of(result).mean_lookup_cost)


def _metric_max_bytes(result: AllocationResult) -> float:
    return float(_report_of(result).max_bytes)


def _metric_availability(result: AllocationResult) -> float:
    return float(result.extra.get("availability", 1.0))


STORAGE_METRICS = {
    "max_load": _metric_max_load,
    "gap": _metric_gap,
    "messages": _metric_messages,
    "load_stddev": _metric_load_stddev,
    "messages_per_file": _metric_messages_per_file,
    "mean_lookup_cost": _metric_mean_lookup_cost,
    "max_bytes": _metric_max_bytes,
    "availability": _metric_availability,
}


def _cluster_allocation_result(
    report, loads: np.ndarray, n_workers: int, n_jobs: int,
    tasks_per_job: int, probe_ratio: float,
) -> AllocationResult:
    return AllocationResult(
        loads=loads,
        scheme=f"cluster-batch-sampling[ratio={probe_ratio:g}]",
        n_bins=n_workers,
        n_balls=int(loads.sum()),
        k=tasks_per_job,
        d=int(np.ceil(probe_ratio * tasks_per_job)),
        messages=report.messages,
        rounds=n_jobs,
        policy="strict",
        extra={"report": report},
    )


def _cluster_speeds(n_workers: int, speed_spread: float, seed: "int | None"):
    from ..simulation.workloads import worker_speeds

    if speed_spread == 0.0:
        return None
    return worker_speeds(
        n_workers, spread=speed_spread, seed=None if seed is None else seed + 2
    )


def _run_cluster_scheduling_fast(
    n_workers: int,
    n_jobs: int = 200,
    tasks_per_job: int = 4,
    probe_ratio: float = 2.0,
    arrival_rate: float = 8.0,
    mean_task_duration: float = 1.0,
    duration_distribution: str = "exponential",
    duration_shape: float = 2.5,
    arrival_process: str = "poisson",
    burstiness: float = 4.0,
    switch_prob: float = 0.1,
    speed_spread: float = 0.0,
    seed: "int | None" = None,
) -> AllocationResult:
    """Fast-event-core engine of ``cluster_scheduling`` (seed-identical)."""
    from ..cluster.schedulers import BatchSamplingScheduler
    from ..cluster.simulator import simulate_cluster_fast
    from ..simulation.workloads import job_trace_arrays

    trace = job_trace_arrays(
        n_jobs=n_jobs,
        arrival_rate=arrival_rate,
        tasks_per_job=tasks_per_job,
        mean_task_duration=mean_task_duration,
        duration_distribution=duration_distribution,
        duration_shape=duration_shape,
        arrival_process=arrival_process,
        burstiness=burstiness,
        switch_prob=switch_prob,
        seed=seed,
    )
    loads = np.zeros(n_workers, dtype=np.int64)
    report = simulate_cluster_fast(
        n_workers=n_workers,
        scheduler=BatchSamplingScheduler(probe_ratio=probe_ratio),
        trace=trace,
        seed=None if seed is None else seed + 1,
        speeds=_cluster_speeds(n_workers, speed_spread, seed),
        placement_counts=loads,
    )
    return _cluster_allocation_result(
        report, loads, n_workers, n_jobs, tasks_per_job, probe_ratio
    )


@register_scheme(
    "cluster_scheduling",
    summary="Sparrow-style cluster: batch (k, d)-choice task placement.",
    tags=("application",),
    kernel=Kernel(
        name="cluster_scheduling",
        unit="job (tasks_per_job tasks, batch-sampled probes)",
        draw_blocks=(
            "job trace from seed",
            "scheduler probes from seed + 1",
            "worker speeds from seed + 2 [speed_spread > 0]",
        ),
        stepper=None,  # an event simulation, not a per-item stream
        vectorized=_run_cluster_scheduling_fast,
    ),
    metrics=CLUSTER_METRICS,
)
def _run_cluster_scheduling(
    n_workers: int,
    n_jobs: int = 200,
    tasks_per_job: int = 4,
    probe_ratio: float = 2.0,
    arrival_rate: float = 8.0,
    mean_task_duration: float = 1.0,
    duration_distribution: str = "exponential",
    duration_shape: float = 2.5,
    arrival_process: str = "poisson",
    burstiness: float = 4.0,
    switch_prob: float = 0.1,
    speed_spread: float = 0.0,
    seed: "int | None" = None,
) -> AllocationResult:
    """Run the batch-sampling scheduler; loads are tasks per worker.

    The scenario library rides in through the trace parameters:
    ``duration_distribution`` ("exponential", "uniform", "constant",
    heavy-tailed "pareto"/"lognormal"), ``arrival_process``
    ("poisson"/"mmpp" bursty arrivals) and ``speed_spread`` (worker
    heterogeneity).  The detailed
    :class:`~repro.cluster.metrics.ClusterReport` (response-time
    percentiles, utilization) is attached as ``extra["report"]`` and backs
    the scheme's default metric set.
    """
    from ..cluster.schedulers import BatchSamplingScheduler
    from ..cluster.simulator import ClusterSimulator
    from ..simulation.workloads import poisson_job_trace

    trace = poisson_job_trace(
        n_jobs=n_jobs,
        arrival_rate=arrival_rate,
        tasks_per_job=tasks_per_job,
        mean_task_duration=mean_task_duration,
        duration_distribution=duration_distribution,
        duration_shape=duration_shape,
        arrival_process=arrival_process,
        burstiness=burstiness,
        switch_prob=switch_prob,
        seed=seed,
    )
    simulator = ClusterSimulator(
        n_workers=n_workers,
        scheduler=BatchSamplingScheduler(probe_ratio=probe_ratio),
        seed=None if seed is None else seed + 1,
        speeds=_cluster_speeds(n_workers, speed_spread, seed),
    )
    report = simulator.run(trace)
    loads = np.asarray(
        [worker.tasks_completed for worker in simulator.workers], dtype=np.int64
    )
    return _cluster_allocation_result(
        report, loads, n_workers, n_jobs, tasks_per_job, probe_ratio
    )


def _storage_allocation_result(
    report, loads: np.ndarray, n_servers: int, n_files: int,
    replicas: int, extra_probes: int, messages: int, extra: dict,
) -> AllocationResult:
    return AllocationResult(
        loads=loads,
        scheme=f"storage-(k,k+{extra_probes})-choice",
        n_bins=n_servers,
        n_balls=int(loads.sum()),
        k=replicas,
        d=replicas + extra_probes,
        messages=messages,
        rounds=n_files,
        policy="strict",
        extra=extra,
    )


def _storage_placement_guard(params) -> Optional[str]:
    """Failure/rebuild scenarios mutate server liveness mid-run."""
    if params.get("fail_fraction", 0.0):
        return (
            "the fast storage core places populations on an all-alive "
            "cluster; failure/rebuild scenarios (fail_fraction > 0) run on "
            "the reference StorageSystem"
        )
    return None


def _run_storage_placement_fast(
    n_servers: int,
    n_files: int = 1024,
    replicas: int = 3,
    extra_probes: int = 1,
    mode: str = "replication",
    size_distribution: str = "constant",
    mean_size: float = 1.0,
    popularity_exponent: float = 0.0,
    fail_fraction: float = 0.0,
    rebuild: bool = False,
    seed: "int | None" = None,
) -> AllocationResult:
    """Fast storage-core engine of ``storage_placement`` (seed-identical)."""
    from ..storage.placement import KDChoicePlacement
    from ..storage.system import simulate_storage_fast
    from ..simulation.workloads import file_sizes

    if fail_fraction:
        raise ValueError(_storage_placement_guard({"fail_fraction": fail_fraction}))
    sizes = file_sizes(
        n_files, size_distribution=size_distribution, mean_size=mean_size,
        seed=seed,
    )
    loads, report = simulate_storage_fast(
        n_servers=n_servers,
        sizes=sizes,
        replicas=replicas,
        placement=KDChoicePlacement(extra_probes=extra_probes),
        mode=mode,
        seed=None if seed is None else seed + 1,
    )
    return _storage_allocation_result(
        report, loads, n_servers, n_files, replicas, extra_probes,
        report.placement_messages, {"report": report},
    )


@register_scheme(
    "storage_placement",
    summary="Distributed storage: (k, k+1)-choice replica placement.",
    tags=("application",),
    kernel=Kernel(
        name="storage_placement",
        unit="file (replicas copies, replicas + extra_probes probes)",
        draw_blocks=(
            "file sizes from seed",
            "placement probes from seed + 1",
        ),
        stepper=None,  # an event simulation, not a per-item stream
        vectorized=_run_storage_placement_fast,
        vectorized_guard=_storage_placement_guard,
    ),
    metrics=STORAGE_METRICS,
)
def _run_storage_placement(
    n_servers: int,
    n_files: int = 1024,
    replicas: int = 3,
    extra_probes: int = 1,
    mode: str = "replication",
    size_distribution: str = "constant",
    mean_size: float = 1.0,
    popularity_exponent: float = 0.0,
    fail_fraction: float = 0.0,
    rebuild: bool = False,
    seed: "int | None" = None,
) -> AllocationResult:
    """Place a file population; loads are replicas per server.

    ``size_distribution``/``popularity_exponent`` select skewed populations;
    ``fail_fraction`` fails that fraction of servers after placement and
    measures availability, and ``rebuild`` re-replicates the lost copies
    through the same placement policy (both run on the reference
    :class:`~repro.storage.system.StorageSystem`).  The
    :class:`~repro.storage.system.StorageReport` rides along in
    ``extra["report"]`` and backs the scheme's default metric set.
    """
    from ..storage.placement import KDChoicePlacement
    from ..storage.system import StorageSystem
    from ..storage.failures import availability, fail_random_servers, re_replicate
    from ..simulation.workloads import file_population

    population = file_population(
        n_files=n_files, replicas=replicas,
        size_distribution=size_distribution, mean_size=mean_size,
        popularity_exponent=popularity_exponent, seed=seed,
    )
    system = StorageSystem(
        n_servers=n_servers,
        placement=KDChoicePlacement(extra_probes=extra_probes),
        mode=mode,
        seed=None if seed is None else seed + 1,
    )
    system.store_population(population)
    extra: dict = {}
    if fail_fraction:
        if not 0.0 < fail_fraction < 1.0:
            raise ValueError(
                f"fail_fraction must be in (0, 1), got {fail_fraction}"
            )
        failed = fail_random_servers(
            system, count=int(fail_fraction * n_servers), rng=system.rng
        )
        failure_report = availability(system)
        extra["availability_report"] = failure_report
        extra["availability"] = failure_report.availability
        extra["failed_servers"] = failed
        if rebuild:
            extra["repaired_replicas"] = re_replicate(system)
    report = system.report()
    extra["report"] = report
    loads = np.asarray(system.load_vector(), dtype=np.int64)
    return _storage_allocation_result(
        report, loads, n_servers, n_files, replicas, extra_probes,
        system.placement_messages, extra,
    )
