"""Registry/kernel parity lint.

The kernel contract (:mod:`repro.core.kernels`) makes one registration per
scheme the single source of truth for its engine surfaces.  This module
checks, mechanically, that the scheme registry never drifts away from the
kernel table:

* every kernel in :data:`~repro.core.kernels.table.KERNELS` is
  registered with that very record (``info.kernel is KERNELS[name]``); the
  registry reads engines, stepper and guards from the record it holds, so
  registration is all there is to check — plus, where the record derives
  a scalar engine, that the registered runner is that engine (so no
  scheme carries a second scalar definition);
* every registered scheme is either in ``KERNELS`` or explicitly listed in
  :data:`~repro.core.kernels.table.EXEMPT_SCHEMES` (the bespoke substrate
  simulators, which carry records of their own).

The workload registry (:mod:`repro.workloads`) gets the same treatment:

* every consuming surface (``repro.online.trace``,
  ``repro.simulation.workloads``, ``repro.serve.loadgen``) must carry the
  registry's own function objects, not re-implementations;
* every registered workload must be reachable from the CLI's shared
  ``--workload`` flag group (``simulate``/``stream``/``loadgen``/
  ``cluster``);
* every scenario's event stream must be deterministic in its seed.

The topology registry (:mod:`repro.topology`) is linted the same way:

* every scheme tagged ``topology`` must be kernel-backed (its engines are
  derived, never hand-wired);
* every named layout must bind, JSON-round-trip exactly, and dump
  byte-identically on a double run;
* the shared ``--topology`` flag must be present on every CLI surface that
  reaches the topology-aware schemes (``simulate``/``stream``/``serve``/
  ``loadgen``).

Exposed to users as ``python -m repro schemes --check`` and locked down by
``tests/api/test_registry_parity.py``; CI runs both.
"""

from __future__ import annotations

import importlib
from typing import List

__all__ = ["lint_registry"]

def _kernel_surface_violations() -> List[str]:
    from ..core.kernels import EXEMPT_SCHEMES, KERNELS
    from .registry import REGISTRY

    problems: List[str] = []
    registered = set(REGISTRY.names())

    for name, kernel in sorted(KERNELS.items()):
        if name not in registered:
            problems.append(
                f"kernel {name!r} (core/kernels/table.py) has no registered "
                f"scheme; register it in api/schemes.py with kernel=KERNELS[{name!r}]"
            )
            continue
        info = REGISTRY.get(name)
        if info.kernel is not kernel:
            problems.append(
                f"scheme {name!r} (api/schemes.py) is not kernel-backed "
                f"(its record is not KERNELS[{name!r}]); register it with "
                f"kernel=KERNELS[{name!r}]"
            )
        elif "scalar" in kernel.engines and info.runner is not kernel.engines["scalar"]:
            problems.append(
                f"scheme {name!r} (api/schemes.py) registers a runner of its "
                f"own; register KERNELS[{name!r}].engines['scalar'] instead"
            )

    for name in sorted(registered):
        if name in KERNELS:
            continue
        if name not in EXEMPT_SCHEMES:
            problems.append(
                f"scheme {name!r} (api/schemes.py) is not in KERNELS and not in "
                f"EXEMPT_SCHEMES (core/kernels/table.py); add a kernel "
                f"registration or list it as exempt"
            )
    return problems


#: Surfaces that must carry the workload registry's own function objects
#: (module, attribute): a wrapper or re-implementation here would be a
#: second stream derivation that can silently drift from the registry.
_WORKLOAD_SURFACES = (
    ("repro.online.trace", "generate_events"),
    ("repro.simulation.workloads", "workload_events"),
    ("repro.serve.loadgen", "generate_events"),
)

#: CLI subcommands that must expose the shared ``--workload`` flag group.
_WORKLOAD_COMMANDS = ("simulate", "stream", "loadgen", "cluster")


def _workload_surface_violations() -> List[str]:
    problems: List[str] = []
    for module_name, attribute in _WORKLOAD_SURFACES:
        module = importlib.import_module(module_name)
        surface = getattr(module, attribute, None)
        if surface is None:
            problems.append(
                f"workload surface {module_name}.{attribute} is missing; "
                f"it must re-export the registry function from "
                f"repro.workloads.records"
            )
            continue
        owner = getattr(surface, "__module__", None)
        if owner != "repro.workloads.records":
            problems.append(
                f"workload surface {module_name}.{attribute} is not the "
                f"registry's function (defined in {owner}); re-export it "
                f"from repro.workloads.records instead of wrapping it"
            )
    return problems


def _workload_cli_violations() -> List[str]:
    import argparse

    from repro.cli import build_parser
    from repro.workloads import available_workloads

    problems: List[str] = []
    registered = available_workloads()
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for command in _WORKLOAD_COMMANDS:
        subparser = subparsers.choices.get(command)
        if subparser is None:
            problems.append(
                f"CLI subcommand {command!r} is missing; the shared "
                f"--workload flag group (cli.py) expects it"
            )
            continue
        flag = next(
            (
                action for action in subparser._actions
                if "--workload" in action.option_strings
            ),
            None,
        )
        if flag is None:
            problems.append(
                f"repro {command} has no --workload flag; attach "
                f"_add_workload_flags in cli.py so every registered "
                f"workload stays CLI-reachable"
            )
        elif list(flag.choices or ()) != registered:
            problems.append(
                f"repro {command} --workload choices {sorted(flag.choices or ())} "
                f"drifted from the registry {sorted(registered)}; the flag "
                f"must offer exactly available_workloads()"
            )
    return problems


def _workload_registry_violations() -> List[str]:
    from repro.workloads import WORKLOADS, generate_events

    problems: List[str] = []

    # Every scenario's stream must be deterministic in (params, seed).
    for workload in WORKLOADS.values():
        try:
            first = generate_events(workload.name, 8, seed=0)
            second = generate_events(workload.name, 8, seed=0)
        except Exception as exc:  # pragma: no cover - registration bug
            problems.append(
                f"workload {workload.name!r} failed to generate a tiny "
                f"stream: {exc}"
            )
            continue
        if first != second:
            problems.append(
                f"workload {workload.name!r} is not deterministic: two "
                f"seed-0 streams differ; derive all randomness from "
                f"workload_branches(seed, ...)"
            )
    return problems


#: CLI subcommands that must expose the shared ``--topology`` flag.
_TOPOLOGY_COMMANDS = ("simulate", "stream", "serve", "loadgen")


def _topology_registry_violations() -> List[str]:
    import json

    from repro.topology import (
        TOPOLOGY_LAYOUTS,
        Topology,
        TopologyError,
        topology_registry_dump,
    )

    from ..core.kernels import KERNELS
    from .registry import REGISTRY

    problems: List[str] = []

    # Topology-aware schemes ride the same kernel contract as everything
    # else: a record of their own would escape the equivalence pins.
    for name in REGISTRY.names():
        info = REGISTRY.get(name)
        if "topology" not in (info.tags or ()):
            continue
        if name not in KERNELS or info.kernel is not KERNELS[name]:
            problems.append(
                f"topology scheme {name!r} (api/schemes.py) is not "
                f"kernel-backed; register it with kernel=KERNELS[{name!r}]"
            )

    # Every named layout must bind and survive an exact JSON round-trip.
    for name, layout in sorted(TOPOLOGY_LAYOUTS.items()):
        if name != layout.name:
            problems.append(
                f"topology layout registered as {name!r} carries "
                f"name={layout.name!r}; the registry key must match"
            )
        try:
            topology = layout.bind(64)
        except TopologyError as exc:
            problems.append(
                f"topology layout {name!r} fails to bind 64 bins: {exc}"
            )
            continue
        if Topology.from_dict(topology.to_dict()) != topology:
            problems.append(
                f"topology layout {name!r} does not JSON-round-trip "
                f"(from_dict(to_dict()) differs); fix "
                f"repro/topology/records.py"
            )
        first = json.dumps(topology.to_dict(), sort_keys=True)
        second = json.dumps(layout.bind(64).to_dict(), sort_keys=True)
        if first != second:
            problems.append(
                f"topology layout {name!r} dumps differently on a double "
                f"run; to_dict() must be deterministic"
            )

    if json.dumps(topology_registry_dump(), sort_keys=True) != json.dumps(
        topology_registry_dump(), sort_keys=True
    ):
        problems.append(
            "topology_registry_dump() is not deterministic across calls"
        )
    return problems


def _topology_cli_violations() -> List[str]:
    import argparse

    from repro.cli import build_parser

    problems: List[str] = []
    parser = build_parser()
    subparsers = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    if "topology" not in subparsers.choices:
        problems.append(
            "CLI subcommand 'topology' is missing; the layout registry "
            "must stay inspectable (cli.py)"
        )
    for command in _TOPOLOGY_COMMANDS:
        subparser = subparsers.choices.get(command)
        if subparser is None:
            problems.append(
                f"CLI subcommand {command!r} is missing; the shared "
                f"--topology flag (cli.py) expects it"
            )
            continue
        flag = next(
            (
                action for action in subparser._actions
                if "--topology" in action.option_strings
            ),
            None,
        )
        if flag is None:
            problems.append(
                f"repro {command} has no --topology flag; attach "
                f"_add_topology_flag in cli.py so every named layout stays "
                f"CLI-reachable"
            )
    return problems


def lint_registry() -> List[str]:
    """Return every registry/kernel parity violation (empty when clean).

    Each violation is one human-readable sentence naming the offending
    scheme or module and the file to fix.  ``python -m repro schemes
    --check`` prints these and exits nonzero when any exist.
    """
    import repro.api.schemes  # noqa: F401  (populate the registry)

    return (
        _kernel_surface_violations()
        + _workload_surface_violations()
        + _workload_cli_violations()
        + _workload_registry_violations()
        + _topology_registry_violations()
        + _topology_cli_violations()
    )
