"""Spec execution: ``simulate`` / ``simulate_many``.

:func:`simulate` is the canonical entry point of the library: it resolves a
:class:`~repro.api.spec.SchemeSpec` against the scheme registry, validates
the parameters against the runner's signature, picks an execution engine
(the scalar engine, or the compiled or vectorized fast path) and returns
the familiar :class:`~repro.core.types.AllocationResult`.

:func:`simulate_many` fans a batch of specs out over repeated trials with a
*shared* :class:`~repro.simulation.rng.SeedTree`, so a whole experiment is
reproducible from one root seed, and returns one
:class:`~repro.simulation.runner.ExperimentOutcome` per spec — the same
aggregation type the historical ``ExperimentRunner`` produces, so existing
statistics/table code applies unchanged.

Both trial entry points accept ``n_jobs`` (fan trials out over a process
pool, see :mod:`repro.api.executor`) and ``cache`` (memoize per-trial
metrics on disk, see :mod:`repro.api.cache`).  Trial seeds are pre-derived
from the seed tree *before* any execution, so parallel and cached runs are
byte-identical to the serial reference.
"""

from __future__ import annotations

import os
from os import PathLike
from typing import Dict, Iterable, List, Mapping, Optional

from ..core.types import AllocationResult
from ..simulation.rng import SeedTree
from ..simulation.runner import (
    ExperimentOutcome,
    MetricFunction,
    TrialOutcome,
)
from .cache import ResultStore, as_result_store
from .executor import resolve_executor, resolve_metric_set
from .registry import (
    SchemeInfo,
    compiled_fastpath_reason,
    compiled_unsupported_reason,
    get_scheme,
    vectorized_fastpath_reason,
    vectorized_unsupported_reason,
)
from .spec import SchemeSpec, SchemeSpecError

__all__ = [
    "simulate",
    "simulate_trials",
    "simulate_many",
    "resolve_engine",
    "build_runner_kwargs",
]


def resolve_engine(spec: SchemeSpec, info: Optional[SchemeInfo] = None) -> str:
    """Decide which engine a spec runs on ("scalar", "vectorized" or
    "compiled").

    The one engine rule: ``simulate``, the online allocator (and so trace
    replay) and the serve pool all take their engine from here.  The
    engines are seed-for-seed identical, so ``engine="auto"`` is purely a
    performance decision: the compiled engine wherever its fast path
    applies (scheme coverage, parameters, and a C backend that builds
    here), else the vectorized engine inside its fast-path envelope, else
    the scalar engine.  ``REPRO_KERNEL=scalar`` pins ``auto`` to the
    scalar engine.

    A forced engine is honoured whenever it can run the spec at all and
    raises :class:`~repro.api.spec.SchemeSpecError` with the guard's reason
    otherwise (normally already at spec construction; this re-check covers
    specs built before the scheme was registered, and a forced
    ``"compiled"`` also probes the backend).
    """
    info = info if info is not None else get_scheme(spec.scheme)
    if spec.engine == "scalar":
        return "scalar"
    if spec.engine == "vectorized":
        reason = vectorized_unsupported_reason(info, spec.policy, spec.params)
        if reason is not None:
            raise SchemeSpecError(reason)
        return "vectorized"
    if spec.engine == "compiled":
        reason = compiled_unsupported_reason(
            info, spec.policy, spec.params, probe_backend=True
        )
        if reason is not None:
            raise SchemeSpecError(reason)
        return "compiled"
    # auto
    if os.environ.get("REPRO_KERNEL", "").strip().lower() == "scalar":
        return "scalar"
    if compiled_fastpath_reason(info, spec.policy, spec.params) is None:
        return "compiled"
    reason = vectorized_fastpath_reason(info, spec.policy, spec.params)
    return "scalar" if reason is not None else "vectorized"


def build_runner_kwargs(
    spec: SchemeSpec,
    info: SchemeInfo,
    seed: "int | None",
) -> Dict[str, object]:
    """Validate spec params against the runner signature and add randomness.

    Shared by every execution surface that turns a spec into a runner call:
    the batch engines here, and the streaming allocator
    (:class:`repro.online.OnlineAllocator`), whose stepper factories take
    the same keywords (a kernel's scalar engine has its stepper's
    signature).
    """
    kwargs: Dict[str, object] = dict(spec.params)
    accepted = set(info.parameters)
    unknown = set(kwargs) - accepted
    if unknown:
        raise SchemeSpecError(
            f"scheme {info.name!r} does not accept parameter(s) "
            f"{sorted(unknown)}; accepted: {sorted(accepted)}"
        )
    reserved = {"seed", "rng", "policy"} & set(kwargs)
    if reserved:
        raise SchemeSpecError(
            f"pass {sorted(reserved)} through the SchemeSpec fields, "
            f"not through params"
        )
    missing = [
        name
        for name in info.required
        if name not in kwargs and name not in ("seed", "rng", "policy")
    ]
    if missing:
        raise SchemeSpecError(
            f"scheme {info.name!r} is missing required parameter(s) {missing}"
        )
    if spec.policy is not None:
        if not info.accepts_policy:
            raise SchemeSpecError(
                f"scheme {info.name!r} does not accept a policy "
                f"(got policy={spec.policy!r})"
            )
        kwargs["policy"] = spec.policy
    if spec.rng is not None:
        if not info.accepts_rng:
            raise SchemeSpecError(f"scheme {info.name!r} does not accept an rng")
        kwargs["rng"] = spec.rng
    elif "seed" in info.parameters:
        kwargs["seed"] = seed
    return kwargs


def _execute(spec: SchemeSpec, seed: "int | None") -> AllocationResult:
    info = get_scheme(spec.scheme)
    engine = resolve_engine(spec, info)
    if engine == "compiled":
        runner = info.compiled
    elif engine == "vectorized":
        runner = info.vectorized
    else:
        runner = info.runner
    kwargs = build_runner_kwargs(spec, info, seed)
    result = runner(**kwargs)
    if not isinstance(result, AllocationResult):
        raise TypeError(
            f"scheme {info.name!r} returned {type(result).__name__}, "
            f"expected AllocationResult"
        )
    return result


def simulate(spec: SchemeSpec) -> AllocationResult:
    """Execute one spec once and return its :class:`AllocationResult`.

    This is the canonical front door of the library.  Every engine is
    reached through the registry: ``get_scheme(name).runner`` (the scalar
    engine; for a kernel-table scheme, its stepper's ``step()`` loop),
    ``.vectorized`` and ``.compiled``.

    Examples
    --------
    >>> from repro.api import SchemeSpec, simulate
    >>> result = simulate(SchemeSpec(scheme="kd_choice",
    ...                              params={"n_bins": 512, "k": 2, "d": 4},
    ...                              seed=0))
    >>> result.total_balls_check()
    True
    """
    return _execute(spec, spec.seed)


def simulate_trials(
    spec: SchemeSpec,
    trials: Optional[int] = None,
    seed_tree: Optional[SeedTree] = None,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    n_jobs: Optional[int] = None,
    cache: "ResultStore | str | PathLike[str] | None" = None,
) -> ExperimentOutcome:
    """Run one spec ``trials`` times with independent derived seeds.

    ``seed_tree`` defaults to a fresh tree rooted at ``spec.seed``; pass a
    shared tree to interleave several specs in one reproducible experiment
    (that is exactly what :func:`simulate_many` does).

    ``n_jobs`` selects the execution backend (``None``/1 serial, >= 2 a
    process pool, -1 one worker per CPU); ``cache`` (a
    :class:`~repro.api.cache.ResultStore` or a directory path) memoizes
    per-trial metrics on disk.  Every trial seed is derived from the tree
    before anything executes, so neither knob changes the results — cached
    and parallel runs are identical to the serial reference.
    """
    n_trials = spec.trials if trials is None else trials
    if n_trials < 1:
        raise SchemeSpecError(f"trials must be at least 1, got {n_trials}")
    if spec.rng is not None:
        # A bound generator would make every trial share one stream while the
        # recorded per-trial seeds claim otherwise; insist on seed-based specs
        # so the outcome's provenance is honest.
        raise SchemeSpecError(
            "specs with a bound rng cannot be fanned out over trials; "
            "use the seed field instead"
        )
    tree = seed_tree if seed_tree is not None else SeedTree(spec.seed)
    executor = resolve_executor(n_jobs)
    store = as_result_store(cache)
    # Pre-derive every seed up front: the derivation order (and therefore the
    # seed of trial i) must not depend on the backend or on cache hits.
    seeds = tree.integer_seeds(n_trials)

    # The scheme's default metric set (not the library default) names the
    # cache entries, so substrate trials cache their rich report metrics.
    metric_names = sorted(resolve_metric_set(spec, metrics))
    results: Dict[int, TrialOutcome] = {}
    pending: List[int] = []
    if store is not None:
        engine = resolve_engine(spec)
        for index, trial_seed in enumerate(seeds):
            hit = store.load(spec, trial_seed, engine, metric_names)
            if hit is not None:
                results[index] = hit
            else:
                pending.append(index)
    else:
        pending = list(range(n_trials))

    computed = executor.run(spec, [seeds[index] for index in pending], metrics)
    for index, trial in zip(pending, computed):
        results[index] = trial
        if store is not None:
            store.store(spec, seeds[index], engine, trial)

    outcome = ExperimentOutcome(label=spec.display_label)
    outcome.trials.extend(results[index] for index in range(n_trials))
    return outcome


def simulate_many(
    specs: Iterable[SchemeSpec],
    trials: Optional[int] = None,
    seed: "int | None" = 0,
    metrics: Optional[Mapping[str, MetricFunction]] = None,
    n_jobs: Optional[int] = None,
    cache: "ResultStore | str | PathLike[str] | None" = None,
) -> List[ExperimentOutcome]:
    """Execute a batch of specs, fanning each out over repeated trials.

    All trial seeds derive from one shared :class:`SeedTree` rooted at
    ``seed``, in spec order — rerunning the same batch with the same root
    seed reproduces every trial of every spec exactly.

    Parameters
    ----------
    specs:
        The specs to run, in order.
    trials:
        Override for every spec's own ``trials`` field.
    seed:
        Root seed of the shared tree.
    metrics:
        Metric functions applied to each result (default: max load, gap,
        messages).
    n_jobs:
        Trial-execution parallelism (see :func:`simulate_trials`); results
        are identical for every value.
    cache:
        Optional :class:`~repro.api.cache.ResultStore` (or directory path)
        shared by every spec in the batch.
    """
    tree = SeedTree(seed)
    store = as_result_store(cache)
    return [
        simulate_trials(
            spec,
            trials=trials,
            seed_tree=tree,
            metrics=metrics,
            n_jobs=n_jobs,
            cache=store,
        )
        for spec in specs
    ]
