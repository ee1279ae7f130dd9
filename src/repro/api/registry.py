"""The scheme registry: a single discoverable catalogue of every workload.

Every allocation process, baseline, comparator and application substrate in
the repository registers itself here under a short name via the
:func:`register_scheme` decorator.  Downstream layers (sweeps, experiment
recipes, the CLI, remote executors) then express work as
:class:`~repro.api.spec.SchemeSpec` objects instead of hand-wiring lambdas
around fourteen differently-shaped ``run_*`` functions.

The registry stores, per scheme:

* the runner (the scalar engine) and its introspected keyword signature
  (used to validate spec params before execution).  For a kernel-table
  scheme the runner is its kernel's ``engines["scalar"]``, the
  ``"scalar"`` mode of :func:`~repro.core.kernels.table.drive`, whose
  signature is the stepper factory's; a few schemes register a
  hand-written runner (each kernel entry, or the substrate, says why),
* the scheme's engine record, a :class:`~repro.core.kernels.table.Kernel`
  (``register(..., kernel=KERNELS[name])``): :attr:`SchemeInfo.vectorized`,
  :attr:`~SchemeInfo.compiled` and :attr:`~SchemeInfo.online` read its
  batch engines and stepper factory, and the ``*_reason`` functions read
  its guards.  The record is held, not copied, so the registry cannot drift
  from it.  The batch engines are the ``"vectorized"`` and ``"compiled"``
  modes of ``drive``; a scheme without a record runs on its runner only,
* a one-line summary (the first docstring line by default) for
  :func:`describe_scheme` / the ``python -m repro schemes`` listing.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "SchemeInfo",
    "SchemeRegistry",
    "register_scheme",
    "available_schemes",
    "describe_scheme",
    "get_scheme",
    "registry_dump",
    "vectorized_unsupported_reason",
    "vectorized_fastpath_reason",
    "compiled_unsupported_reason",
    "compiled_fastpath_reason",
    "online_unsupported_reason",
    "REGISTRY",
]

Runner = Callable[..., Any]


@dataclass(frozen=True)
class SchemeInfo:
    """Registration record of one scheme."""

    name: str
    runner: Runner
    summary: str
    parameters: Tuple[str, ...]
    defaults: Mapping[str, Any]
    required: Tuple[str, ...]
    aliases: Tuple[str, ...] = ()
    tags: Tuple[str, ...] = ()
    #: Optional scheme-specific default metric set for trial fan-outs
    #: (``metrics=None`` paths).  Must map names to module-level functions of
    #: the :class:`~repro.core.types.AllocationResult` returning floats, so
    #: trials stay picklable and cacheable.  ``None`` selects the library
    #: default (max load, gap, messages).
    metrics: Optional[Mapping[str, Callable[[Any], float]]] = None
    #: The scheme's :class:`~repro.core.kernels.table.Kernel`: its batch
    #: engines, stepper factory and guards.  ``None`` for a scalar-only
    #: scheme.
    kernel: Optional[Any] = None

    @property
    def vectorized(self) -> Optional[Runner]:
        """The vectorized batch engine (the runner's keywords), or ``None``."""
        return self.kernel.engines.get("vectorized") if self.kernel else None

    @property
    def compiled(self) -> Optional[Runner]:
        """The compiled (C-backend) batch engine, or ``None``."""
        return self.kernel.engines.get("compiled") if self.kernel else None

    @property
    def online(self) -> Optional[Runner]:
        """The stepper factory of the streaming allocator, or ``None``."""
        return self.kernel.stepper if self.kernel else None

    @property
    def accepts_policy(self) -> bool:
        return "policy" in self.parameters

    @property
    def accepts_rng(self) -> bool:
        return "rng" in self.parameters

    def describe(self) -> Dict[str, Any]:
        """Human/machine-readable description of the scheme.

        ``kernel_derived`` is true when the scheme's record is its entry in
        the shared kernel table (the substrates carry records of their own).
        """
        kernel_derived = False
        if self.kernel is not None:
            from ..core.kernels import KERNELS

            kernel_derived = KERNELS.get(self.name) is self.kernel
        return {
            "name": self.name,
            "summary": self.summary,
            "parameters": {
                name: (self.defaults[name] if name in self.defaults else "<required>")
                for name in self.parameters
            },
            "required": list(self.required),
            "aliases": list(self.aliases),
            "tags": list(self.tags),
            "engines": (
                ["scalar"]
                + (["vectorized"] if self.vectorized else [])
                + (["compiled"] if self.compiled else [])
            ),
            "online": self.online is not None,
            "metrics": sorted(self.metrics) if self.metrics else None,
            "kernel_derived": kernel_derived,
        }


_dataclass_init = SchemeInfo.__init__


def _init_with_engine_swaps(
    self: SchemeInfo,
    *args: Any,
    vectorized: Optional[Runner] = None,
    compiled: Optional[Runner] = None,
    **fields: Any,
) -> None:
    """``SchemeInfo``'s constructor: the dataclass fields, plus engine swaps.

    ``dataclasses.replace(info, vectorized=f, compiled=g)`` yields a record
    holding a copy of ``info.kernel`` with ``f`` and ``g`` as its batch
    engines (how instrumentation times a scheme's engines); the shared
    record is left alone.  The engines are not fields, so ``replace`` never
    passes them back in unasked.
    """
    _dataclass_init(self, *args, **fields)
    swapped = {
        mode: engine
        for mode, engine in (("vectorized", vectorized), ("compiled", compiled))
        if engine is not None
    }
    if swapped:
        object.__setattr__(self, "kernel", self.kernel.with_engines(swapped))


SchemeInfo.__init__ = _init_with_engine_swaps  # type: ignore[method-assign]


def _introspect(runner: Runner) -> Tuple[Tuple[str, ...], Dict[str, Any], Tuple[str, ...]]:
    """Extract (parameter names, defaults, required names) from a runner."""
    names: List[str] = []
    defaults: Dict[str, Any] = {}
    required: List[str] = []
    for parameter in inspect.signature(runner).parameters.values():
        if parameter.kind in (parameter.VAR_POSITIONAL, parameter.VAR_KEYWORD):
            continue
        names.append(parameter.name)
        if parameter.default is not parameter.empty:
            defaults[parameter.name] = parameter.default
        else:
            required.append(parameter.name)
    return tuple(names), defaults, tuple(required)


class SchemeRegistry:
    """Mutable mapping from scheme name (and aliases) to :class:`SchemeInfo`."""

    def __init__(self) -> None:
        self._schemes: Dict[str, SchemeInfo] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(
        self,
        name: str,
        *,
        summary: Optional[str] = None,
        aliases: Tuple[str, ...] = (),
        tags: Tuple[str, ...] = (),
        kernel: Optional[Any] = None,
        metrics: Optional[Mapping[str, Callable[[Any], float]]] = None,
    ) -> Callable[[Runner], Runner]:
        """Decorator registering ``runner`` under ``name``.

        Usage::

            kernel = KERNELS["kd_choice"]
            register_scheme("kd_choice", aliases=("kd",),
                            kernel=kernel)(kernel.engines["scalar"])

        ``kernel`` (a :class:`repro.core.kernels.table.Kernel`) is the
        scheme's one engine record: its vectorized and compiled engines,
        stepper factory and guards are read from it, never copied.  Without
        one the scheme runs on its runner only.  The parameters come from
        ``inspect.signature(runner)``; a kernel's derived scalar engine
        carries its stepper factory's signature.  The name and every
        alias are checked before anything is inserted, so a rejected
        registration leaves the registry unchanged.
        """
        if not isinstance(name, str) or not name:
            raise ValueError(f"scheme name must be a non-empty string, got {name!r}")
        aliases = tuple(aliases)

        def decorator(runner: Runner) -> Runner:
            if name in self:
                raise ValueError(f"scheme {name!r} is already registered")
            for index, alias in enumerate(aliases):
                if alias in self or alias in (name,) + aliases[:index]:
                    raise ValueError(f"scheme alias {alias!r} is already registered")
            doc = (inspect.getdoc(runner) or "").strip()
            first_line = doc.splitlines()[0] if doc else ""
            parameters, defaults, required = _introspect(runner)
            self._schemes[name] = SchemeInfo(
                name=name,
                runner=runner,
                summary=summary if summary is not None else first_line,
                parameters=parameters,
                defaults=defaults,
                required=required,
                aliases=aliases,
                tags=tuple(tags),
                metrics=dict(metrics) if metrics is not None else None,
                kernel=kernel,
            )
            for alias in aliases:
                self._aliases[alias] = name
            return runner

        return decorator

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> SchemeInfo:
        """Resolve a scheme name or alias to its registration record."""
        canonical = self._aliases.get(name, name)
        try:
            return self._schemes[canonical]
        except KeyError:
            known = ", ".join(sorted(self._schemes))
            raise KeyError(
                f"unknown scheme {name!r}; available schemes: {known}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemes or name in self._aliases

    def names(self) -> List[str]:
        """Canonical scheme names, sorted."""
        return sorted(self._schemes)

    def describe(self, name: str) -> Dict[str, Any]:
        return self.get(name).describe()


#: The process-wide registry; populated by :mod:`repro.api.schemes` on import.
REGISTRY = SchemeRegistry()

register_scheme = REGISTRY.register


def available_schemes() -> List[str]:
    """Sorted canonical names of every registered scheme."""
    return REGISTRY.names()


def describe_scheme(name: str) -> Dict[str, Any]:
    """Summary, parameters (with defaults) and engines of one scheme."""
    return REGISTRY.describe(name)


def get_scheme(name: str) -> SchemeInfo:
    """The raw :class:`SchemeInfo` record for ``name`` (or an alias)."""
    return REGISTRY.get(name)


def _json_safe(value: Any) -> Any:
    """Map a default value to something ``json.dumps`` accepts verbatim.

    Scheme defaults are almost always plain scalars; the fallback covers
    anything exotic (a callable threshold, say) with its ``repr`` so the
    dump stays loadable rather than crashing the CLI.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    if isinstance(value, Mapping):
        return {str(key): _json_safe(item) for key, item in value.items()}
    return repr(value)


def registry_dump() -> Dict[str, Any]:
    """Machine-readable dump of the whole registry.

    Backs ``python -m repro schemes --json``: one JSON-safe record per
    scheme with its parameters, engines, and — the part the plain listing
    omits — whether the vectorized engine and the online stepper support
    the scheme *at its default parameters*, with the human-readable reason
    when they do not.  Parameter-dependent guards are evaluated against the
    defaults, so a scheme whose fast path only drops out in exotic corners
    still reports as supported here.
    """
    schemes: List[Dict[str, Any]] = []
    for name in REGISTRY.names():
        info = REGISTRY.get(name)
        entry = info.describe()
        entry["parameters"] = {
            key: _json_safe(value) for key, value in entry["parameters"].items()
        }
        entry["vectorized"] = info.vectorized is not None
        entry["vectorized_unsupported_reason"] = vectorized_unsupported_reason(
            info, None, info.defaults
        )
        entry["vectorized_fastpath_reason"] = vectorized_fastpath_reason(
            info, None, info.defaults
        )
        entry["compiled"] = info.compiled is not None
        # probe_backend=False keeps the dump a property of the *registry*,
        # not of this machine: whether the C backend builds here is surfaced
        # by ``repro schemes --check`` instead, so the golden dump stays
        # valid in compiler-less environments.
        entry["compiled_unsupported_reason"] = compiled_unsupported_reason(
            info, None, info.defaults, probe_backend=False
        )
        entry["compiled_fastpath_reason"] = compiled_fastpath_reason(
            info, None, info.defaults, probe_backend=False
        )
        entry["online"] = info.online is not None
        entry["online_unsupported_reason"] = online_unsupported_reason(
            info, None, info.defaults
        )
        schemes.append(entry)
    return {
        "format": "repro-scheme-registry",
        "version": 1,
        "count": len(schemes),
        "schemes": schemes,
    }


def vectorized_unsupported_reason(
    info: SchemeInfo,
    policy: Optional[str],
    params: Mapping[str, Any],
) -> Optional[str]:
    """Why ``engine="vectorized"`` cannot run this configuration, or ``None``.

    The single source of truth for engine/scheme compatibility: it backs
    both the construction-time validation in
    :class:`~repro.api.spec.SchemeSpec` and the run-time resolution in
    :func:`~repro.api.engine.resolve_engine` (so ``engine="auto"`` falls
    back to the scalar engine exactly when a forced ``"vectorized"``
    would have been rejected).
    """
    if info.vectorized is None:
        return (
            f"scheme {info.name!r} has no vectorized engine; "
            f"available engines: scalar"
        )
    if policy not in (None, "strict"):
        return (
            f"the vectorized engine supports only the strict policy, "
            f"got policy={policy!r}"
        )
    if info.kernel.vectorized_guard is not None:
        return info.kernel.vectorized_guard(params)
    return None


def vectorized_fastpath_reason(
    info: SchemeInfo,
    policy: Optional[str],
    params: Mapping[str, Any],
) -> Optional[str]:
    """Why ``engine="auto"`` should *prefer the scalar engine*, or ``None``.

    A superset of :func:`vectorized_unsupported_reason`: any configuration
    the vectorized engine cannot run at all is also not a fast path, and on
    top of that the kernel's ``fastpath_guard`` can mark regions
    where the batch engine merely drives the per-unit kernel with no
    speedup (the serialized and greedy schemes, callable thresholds).
    ``engine="auto"`` resolution uses this reason; forcing
    ``engine="vectorized"`` only checks the hard reason.
    """
    hard = vectorized_unsupported_reason(info, policy, params)
    if hard is not None:
        return hard
    if info.kernel.fastpath_guard is not None:
        return info.kernel.fastpath_guard(params)
    return None


def compiled_unsupported_reason(
    info: SchemeInfo,
    policy: Optional[str],
    params: Mapping[str, Any],
    probe_backend: bool = True,
) -> Optional[str]:
    """Why ``engine="compiled"`` cannot run this configuration, or ``None``.

    Mirrors :func:`vectorized_unsupported_reason` (same policy restriction —
    the compiled engines derive from the same steppers) plus, when
    ``probe_backend`` is true, whether the C backend can actually
    build/load in this environment.  Construction-time
    spec validation passes ``probe_backend=False`` so a spec's validity is a
    structural property, not a property of the machine it was built on;
    run-time engine resolution probes.
    """
    if info.compiled is None:
        return (
            f"scheme {info.name!r} has no compiled engine; "
            f"available engines: "
            + ("scalar, vectorized" if info.vectorized else "scalar")
        )
    if policy not in (None, "strict"):
        return (
            f"the compiled engine supports only the strict policy, "
            f"got policy={policy!r}"
        )
    if probe_backend:
        from repro.core.compiled import backend_unavailable_reason

        reason = backend_unavailable_reason()
        if reason is not None:
            return f"compiled backend unavailable: {reason}"
    return None


def compiled_fastpath_reason(
    info: SchemeInfo,
    policy: Optional[str],
    params: Mapping[str, Any],
    probe_backend: bool = True,
) -> Optional[str]:
    """Why ``engine="auto"`` should *skip the compiled engine*, or ``None``.

    A superset of :func:`compiled_unsupported_reason`, mirroring
    :func:`vectorized_fastpath_reason`: where a forced compiled engine is
    honoured but degenerates to the per-unit drive path (callable
    thresholds), ``auto`` falls back to its vectorized/scalar choice.
    """
    hard = compiled_unsupported_reason(info, policy, params, probe_backend)
    if hard is not None:
        return hard
    if info.kernel.compiled_fastpath_guard is not None:
        return info.kernel.compiled_fastpath_guard(params)
    return None


def online_unsupported_reason(
    info: SchemeInfo,
    policy: Optional[str],
    params: Mapping[str, Any],
) -> Optional[str]:
    """Why this configuration cannot run as an online allocator, or ``None``.

    The single source of truth for online/scheme compatibility, mirroring
    :func:`vectorized_unsupported_reason`: it backs both the construction-time
    validation in :class:`~repro.online.allocator.OnlineAllocator` and the
    registry dichotomy tests.  A kernel's scalar engine is its stepper's
    ``step()`` loop, so any policy the scalar engine accepts is accepted
    here; the scheme either provides a stepper factory or names why it
    cannot stream.
    """
    if info.online is None:
        return (
            f"scheme {info.name!r} has no online allocator; schemes stream "
            f"only when per-item placement is well defined (see "
            f"repro.online)"
        )
    return None
