"""The import surface: ``__all__`` is exact, the shims are gone."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

#: The historical top-level shims removed after their deprecation cycle.
_REMOVED_SHIMS = (
    "run_always_go_left",
    "run_batch_random",
    "run_churn_kd_choice",
    "run_d_choice",
    "run_kd_choice",
    "run_kd_choice_vectorized",
    "run_one_plus_beta",
    "run_serialized_kd_choice",
    "run_single_choice",
    "run_stale_kd_choice",
    "run_threshold_adaptive",
    "run_two_phase_adaptive",
    "run_weighted_kd_choice",
)


def test_all_names_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.__all__ names missing {name!r}"


def test_all_has_no_duplicates():
    assert len(repro.__all__) == len(set(repro.__all__))


@pytest.mark.parametrize("name", _REMOVED_SHIMS)
def test_shims_are_gone(name):
    assert not hasattr(repro, name), f"repro.{name} should have been removed"
    assert name not in repro.__all__


#: Modules that only re-exported the per-scheme batch engines and steppers,
#: and the runner modules whose contents moved to the test oracles.
_REMOVED_SHIM_MODULES = (
    "repro.core.vectorized",
    "repro.online.steppers",
    "repro.core.process",
    "repro.core.stale",
)


@pytest.mark.parametrize("module", _REMOVED_SHIM_MODULES)
def test_shim_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


#: The second spelling of the ``uniform`` workload, retired in favour of
#: ``generate_events(workload, items, params, seed)``.
_REMOVED_WORKLOAD_NAMES = (
    ("repro.workloads", "resolve_legacy"),
    ("repro.workloads", "LEGACY_WORKLOAD_DEFAULTS"),
    ("repro.workloads", "generate_workload_events"),
    ("repro.workloads.records", "resolve_legacy"),
    ("repro.workloads.records", "LEGACY_WORKLOAD_DEFAULTS"),
    ("repro.workloads.records", "generate_workload_events"),
    ("repro.online", "generate_workload_events"),
    ("repro.online.trace", "generate_workload_events"),
    ("repro.serve.loadgen", "build_loadgen_events"),
)


@pytest.mark.parametrize(
    "module,name", _REMOVED_WORKLOAD_NAMES,
    ids=[f"{module}.{name}" for module, name in _REMOVED_WORKLOAD_NAMES],
)
def test_legacy_workload_names_are_gone(module, name):
    imported = importlib.import_module(module)
    assert not hasattr(imported, name), f"{module}.{name} should be gone"
    assert name not in getattr(imported, "__all__", ())


@pytest.mark.parametrize("package", ["repro.core", "repro.core.kernels"])
def test_packages_export_no_per_scheme_batch_runners(package):
    # The batch engines are reached through the registry
    # (get_scheme(name).vectorized / .compiled), not by name.
    module = importlib.import_module(package)
    exported = set(module.__all__) | set(vars(module))
    runners = sorted(
        name
        for name in exported
        if name.startswith("run_")
        and (name.endswith("_vectorized") or name.endswith("_compiled"))
    )
    assert runners == []


#: The hand-written scalar runners of the kernel-table schemes, moved to the
#: test oracles (``tests/oracles``): each scheme's scalar engine is its
#: stepper's ``step()`` loop, reached through the registry.
_MOVED_SCALAR_RUNNERS = tuple(
    ("repro.core", name)
    for name in (
        "KDChoiceProcess",
        "StaleKDChoiceProcess",
        "WeightedKDChoiceProcess",
        "run_always_go_left",
        "run_d_choice",
        "run_kd_choice",
        "run_one_plus_beta",
        "run_stale_kd_choice",
        "run_threshold_adaptive",
        "run_two_phase_adaptive",
        "run_weighted_kd_choice",
    )
) + (
    ("repro", "KDChoiceProcess"),
    ("repro", "StaleKDChoiceProcess"),
    ("repro", "WeightedKDChoiceProcess"),
    ("repro.core.adaptive", "run_threshold_adaptive"),
    ("repro.core.baselines", "run_d_choice"),
    ("repro.core.weighted", "run_weighted_kd_choice"),
    ("repro.topology", "run_hierarchical_go_left"),
    ("repro.topology", "run_locality_two_choice"),
)


@pytest.mark.parametrize(
    "module,name", _MOVED_SCALAR_RUNNERS,
    ids=[f"{module}.{name}" for module, name in _MOVED_SCALAR_RUNNERS],
)
def test_moved_scalar_runners_are_gone(module, name):
    imported = importlib.import_module(module)
    assert not hasattr(imported, name), f"{module}.{name} should be gone"
    assert name not in getattr(imported, "__all__", ())


def test_spec_api_is_the_front_door():
    from repro.api import SchemeSpec, simulate

    result = simulate(
        SchemeSpec(scheme="kd_choice", params={"n_bins": 128, "k": 2, "d": 4}, seed=0)
    )
    assert result.total_balls_check()


def test_serve_entry_path_loads_no_experiment_or_substrate_package():
    # `repro serve` runs through repro.cli; the subpackages and the recipe
    # imports load on first use, so its start-up does not pay for the
    # recipes or the substrate simulators.
    source_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (source_root, env.get("PYTHONPATH")))
    )
    probe = (
        "import sys, repro.cli, repro.serve; "
        "print(sorted(m for m in ('repro.experiments', 'repro.cluster', "
        "'repro.storage') if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, check=True,
    )
    assert completed.stdout.strip() == "[]"


def test_version_is_a_string():
    assert isinstance(repro.__version__, str) and repro.__version__
