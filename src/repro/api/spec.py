"""Declarative simulation specs: one dataclass describes any workload.

A :class:`SchemeSpec` is the unit of work of the unified API: it names a
registered scheme, carries its parameters, and fixes the policy, randomness,
trial count and execution engine.  Specs are immutable and hashable-free
plain data, so sweeps, experiment recipes, CLIs and distributed front ends
can build, store and ship them without touching any process class.

Examples
--------
>>> from repro.api import SchemeSpec, simulate
>>> spec = SchemeSpec(scheme="kd_choice",
...                   params={"n_bins": 1024, "k": 4, "d": 8}, seed=7)
>>> simulate(spec).total_balls_check()
True
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Dict, Mapping, Optional

import numpy as np

__all__ = ["ENGINES", "SchemeSpecError", "SchemeSpec"]

#: Recognized execution engines.  "auto" lets the engine pick the fastest
#: implementation that is exactly equivalent to the scalar engine;
#: "scalar" forces the per-unit engine (a kernel stepper's ``step()`` loop,
#: or a scheme's hand-written runner); "vectorized" forces the
#: batch engine (and errors on schemes that do not provide one);
#: "compiled" forces the C-backend engine (and errors on schemes without
#: one, or when the backend cannot build in this environment).
ENGINES = ("auto", "scalar", "vectorized", "compiled")


class SchemeSpecError(ValueError):
    """Raised when a spec is malformed or incompatible with its scheme."""


@dataclass(frozen=True)
class SchemeSpec:
    """Declarative description of one simulation configuration.

    Attributes
    ----------
    scheme:
        Name of a registered scheme (see
        :func:`repro.api.available_schemes`).
    params:
        Keyword parameters forwarded to the scheme runner (problem size,
        ``k``/``d``, scheme-specific knobs...).  Validated against the
        runner's signature at execution time.
    policy:
        Allocation policy name, for schemes that accept one ("strict",
        "greedy").  ``None`` keeps the scheme's default.
    seed:
        Root integer seed for the run; ``None`` means nondeterministic.
    rng:
        Alternatively an existing generator (takes precedence over ``seed``;
        excluded from equality comparisons).
    trials:
        Number of independent trials when the spec is executed through
        :func:`repro.api.simulate_many`.
    engine:
        One of :data:`ENGINES`.
    label:
        Optional display label for result tables; defaults to an
        auto-generated one.
    """

    scheme: str
    params: Mapping[str, Any] = field(default_factory=dict)
    policy: Optional[str] = None
    seed: "int | np.random.SeedSequence | None" = None
    rng: Optional[np.random.Generator] = field(default=None, compare=False)
    trials: int = 1
    engine: str = "auto"
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.scheme, str) or not self.scheme:
            raise SchemeSpecError(
                f"scheme must be a non-empty string, got {self.scheme!r}"
            )
        if not isinstance(self.params, Mapping):
            raise SchemeSpecError(
                f"params must be a mapping of keyword arguments, "
                f"got {type(self.params).__name__}"
            )
        for key in self.params:
            if not isinstance(key, str):
                raise SchemeSpecError(f"parameter names must be strings, got {key!r}")
        # Freeze the mapping so a spec cannot drift after construction.
        object.__setattr__(self, "params", MappingProxyType(dict(self.params)))
        if self.policy is not None and not isinstance(self.policy, str):
            raise SchemeSpecError(f"policy must be a string or None, got {self.policy!r}")
        if not isinstance(self.trials, int) or isinstance(self.trials, bool):
            raise SchemeSpecError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise SchemeSpecError(f"trials must be at least 1, got {self.trials}")
        if self.engine not in ENGINES:
            raise SchemeSpecError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.rng is not None and not isinstance(self.rng, np.random.Generator):
            raise SchemeSpecError(
                f"rng must be a numpy Generator or None, got {type(self.rng).__name__}"
            )
        if self.engine == "vectorized":
            # Engine/scheme compatibility is known statically, so surface it
            # at construction rather than at run time.  Unknown scheme names
            # are left for execution (where they raise with the full
            # candidate list); the registry import is deferred because
            # repro.api.registry builds on this module.
            from .registry import REGISTRY, get_scheme, vectorized_unsupported_reason

            if self.scheme in REGISTRY:
                reason = vectorized_unsupported_reason(
                    get_scheme(self.scheme), self.policy, self.params
                )
                if reason is not None:
                    raise SchemeSpecError(reason)
        if self.engine == "compiled":
            # Same static check for the compiled engine, minus the backend
            # probe (probe_backend=False): a spec's validity is a structural
            # property — whether the C backend builds on *this* machine is a
            # run-time question answered by resolve_engine.
            from .registry import REGISTRY, compiled_unsupported_reason, get_scheme

            if self.scheme in REGISTRY:
                reason = compiled_unsupported_reason(
                    get_scheme(self.scheme),
                    self.policy,
                    self.params,
                    probe_backend=False,
                )
                if reason is not None:
                    raise SchemeSpecError(reason)

    def __hash__(self) -> int:
        # The generated frozen-dataclass hash would choke on the params
        # mapping (and on unhashable parameter values such as weight arrays);
        # hash a normalized tuple so specs can key caches and sets.
        def hashable(value: Any) -> Any:
            try:
                hash(value)
            except TypeError:
                return repr(value)
            return value

        params_key = tuple(
            (name, hashable(value)) for name, value in sorted(self.params.items())
        )
        return hash(
            (
                self.scheme,
                params_key,
                self.policy,
                hashable(self.seed),
                self.trials,
                self.engine,
                self.label,
            )
        )

    # ------------------------------------------------------------------
    # Pickling (process-pool fan-out)
    # ------------------------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        # The frozen params mapping is a MappingProxyType, which pickle
        # rejects; ship a plain dict and re-freeze on the other side.
        state = dict(self.__dict__)
        state["params"] = dict(state["params"])
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            if key == "params":
                value = MappingProxyType(dict(value))
            object.__setattr__(self, key, value)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Content hash of the *work* this spec describes.

        Two specs share a key exactly when they run the same scheme with the
        same parameters and policy — the fields that determine an execution's
        output given a trial seed.  ``seed``, ``trials``, ``label`` and
        ``engine`` are deliberately excluded: trial count and label are
        presentation, while the seed and the *resolved* engine are keyed
        separately by :meth:`~repro.api.cache.ResultStore.entry_key` (so
        ``engine="auto"`` shares entries with the engine it resolves to).
        Scheme aliases resolve to the canonical name, so ``"kd"`` and
        ``"kd_choice"`` address the same entries.
        """

        def canonical(value: Any) -> Any:
            if value is None or isinstance(value, (str, int, float, bool)):
                return value
            if isinstance(value, np.ndarray):
                digest = hashlib.sha256(np.ascontiguousarray(value).tobytes())
                return ["__ndarray__", list(value.shape), value.dtype.str,
                        digest.hexdigest()]
            if isinstance(value, Mapping):
                return {str(k): canonical(v) for k, v in sorted(value.items())}
            if isinstance(value, (list, tuple)):
                return [canonical(v) for v in value]
            return repr(value)

        scheme = self.scheme
        try:  # resolve aliases to the canonical scheme name
            from .registry import get_scheme

            scheme = get_scheme(self.scheme).name
        except KeyError:
            pass
        payload = json.dumps(
            {
                "scheme": scheme,
                "params": canonical(self.params),
                "policy": self.policy,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Derived views and functional updates
    # ------------------------------------------------------------------
    @property
    def display_label(self) -> str:
        """The spec's label, auto-generated from scheme and params if unset."""
        if self.label is not None:
            return self.label
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.scheme}({rendered})" if rendered else self.scheme

    def with_seed(self, seed: "int | np.random.SeedSequence | None") -> "SchemeSpec":
        """A copy of this spec with a different seed (and no bound rng)."""
        return replace(self, seed=seed, rng=None, params=dict(self.params))

    def with_params(self, **updates: Any) -> "SchemeSpec":
        """A copy of this spec with parameters merged over the existing ones."""
        merged: Dict[str, Any] = dict(self.params)
        merged.update(updates)
        return replace(self, params=merged)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (for JSON logs and provenance records)."""
        return {
            "scheme": self.scheme,
            "params": dict(self.params),
            "policy": self.policy,
            "seed": self.seed if isinstance(self.seed, (int, type(None))) else repr(self.seed),
            "trials": self.trials,
            "engine": self.engine,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SchemeSpec":
        """Inverse of :meth:`to_dict` (snapshot and manifest documents)."""
        return cls(
            scheme=data["scheme"],
            params=data["params"],
            policy=data.get("policy"),
            seed=data.get("seed"),
            trials=data.get("trials", 1),
            engine=data.get("engine", "auto"),
            label=data.get("label"),
        )
