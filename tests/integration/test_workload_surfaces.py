"""Cross-surface workload equivalence harness.

The workload contract (:mod:`repro.workloads`) promises that one
``(workload, params, seed)`` triple yields the byte-identical event stream
on every consuming surface:

* the registry itself (``generate_events``),
* the names the online trace module and the loadgen derive their streams
  from (``repro.online.trace.generate_events``,
  ``repro.serve.loadgen.generate_events``),
* the simulation-side re-export (``repro.simulation.workloads.workload_events``),
* and the trace a ``repro stream --workload ...`` run records to disk.

This module is that promise as a test, plus the PR-8 byte-compatibility
lock: an inlined copy of the pre-registry event generator must keep
matching the ``uniform`` scenario for every parameter combination it had.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.online import trace
from repro.serve.loadgen import generate_events as loadgen_events
from repro.simulation import workloads as simulation_workloads
from repro.workloads import available_workloads, generate_events

#: One representative non-default parameterization per registered scenario.
SCENARIOS = [
    ("uniform", {"arrival_process": "mmpp", "arrival_rate": 500.0,
                 "churn": 0.15}),
    ("zipf_items", {"exponent": 1.2, "universe": 64}),
    ("adversarial_burst", {"burst": 16, "attack": 0.5}),
    ("diurnal", {"period": 30.0, "amplitude": 0.6, "churn": 0.1}),
    ("hetero_bins", {"spread": 4.0, "churn": 0.1}),
    ("multi_tenant", {"tenants": 3, "churn": 0.2}),
    ("topology_aware", {"zones": 2, "racks_per_zone": 2, "churn": 0.1}),
]

ITEMS = 400


def test_scenario_table_covers_the_whole_registry():
    """A new registration must be added to SCENARIOS to merge."""
    assert sorted(name for name, _ in SCENARIOS) == sorted(available_workloads())


class TestEverySurfaceDerivesTheSameStream:
    @pytest.mark.parametrize("name,params", SCENARIOS,
                             ids=[name for name, _ in SCENARIOS])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_registry_trace_loadgen_and_simulation_agree(
        self, name, params, seed
    ):
        reference = generate_events(name, ITEMS, params, seed)
        assert len([e for e in reference if e["op"] == "place"]) == ITEMS

        streamed = trace.generate_events(name, ITEMS, params, seed)
        loadgen_stream = loadgen_events(name, ITEMS, params, seed)
        simulated = simulation_workloads.workload_events(
            name, ITEMS, params, seed
        )
        assert streamed == reference
        assert loadgen_stream == reference
        assert simulated == reference

    @pytest.mark.parametrize("name,params", SCENARIOS,
                             ids=[name for name, _ in SCENARIOS])
    def test_recorded_stream_trace_carries_the_registry_events(
        self, name, params, tmp_path
    ):
        """``repro stream --workload ... --record`` writes the registry
        stream verbatim (events round-trip through canonical JSON)."""
        reference = generate_events(name, ITEMS, params, seed=7)
        path = tmp_path / "trace.jsonl"
        # topology_aware's binder injects a topology= param, which only the
        # topology-aware schemes accept.
        scheme = "locality_two_choice" if name == "topology_aware" else "two_choice"
        trace.stream_workload(
            SchemeSpec(scheme=scheme,
                       params={"n_bins": 64, "n_balls": ITEMS}, seed=1),
            items=ITEMS,
            workload_seed=7,
            workload=name,
            workload_params=params,
            record=path,
        )
        header, recorded = trace.read_trace(path)
        assert recorded == json.loads(json.dumps(reference))
        if name == "hetero_bins":
            assert "capacities" in header.params

    def test_streams_differ_across_seeds_and_params(self):
        # Determinism must not collapse into constancy: the seed and the
        # parameters both have to reach the stream.
        base = generate_events("zipf_items", ITEMS, {"universe": 64}, seed=0)
        assert generate_events("zipf_items", ITEMS, {"universe": 64}, 1) != base
        assert generate_events(
            "zipf_items", ITEMS, {"universe": 64, "exponent": 2.5}, 0
        ) != base


# ----------------------------------------------------------------------
# PR-8 byte-compatibility lock
# ----------------------------------------------------------------------
def _legacy_reference(
    items: int,
    arrival_process: str = "none",
    arrival_rate: float = 1000.0,
    burstiness: float = 4.0,
    switch_prob: float = 0.1,
    churn: float = 0.0,
    seed: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """The pre-registry ``generate_workload_events``, inlined verbatim.

    Frozen here as the byte-compatibility oracle: recorded traces and
    seeded runs from before the workload registry must replay unchanged,
    so the `uniform` entry's derivation may never drift from this.
    """
    if items < 0:
        raise ValueError(f"items must be non-negative, got {items}")
    if not 0.0 <= churn <= 1.0:
        raise ValueError(f"churn must lie in [0, 1], got {churn}")
    times: Optional[np.ndarray] = None
    if arrival_process != "none":
        from repro.simulation.workloads import sample_arrival_times

        times = sample_arrival_times(
            items,
            arrival_rate=arrival_rate,
            arrival_process=arrival_process,
            burstiness=burstiness,
            switch_prob=switch_prob,
            seed=seed,
        )
    rng = np.random.default_rng(seed)
    if times is not None:
        rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    events: List[Dict[str, Any]] = []
    live: List[int] = []
    for index in range(items):
        event: Dict[str, Any] = {"op": "place", "item": index}
        if times is not None:
            event["t"] = float(times[index])
        events.append(event)
        live.append(index)
        if churn > 0.0 and live and float(rng.random()) < churn:
            victim_position = int(rng.integers(0, len(live)))
            victim = live[victim_position]
            live[victim_position] = live[-1]
            live.pop()
            removal: Dict[str, Any] = {"op": "remove", "item": victim}
            if times is not None:
                removal["t"] = float(times[index])
            events.append(removal)
    return events


class TestUniformMatchesThePreRegistryGenerator:
    LEGACY_CASES = [
        {},
        {"churn": 0.3},
        {"arrival_process": "poisson", "arrival_rate": 250.0},
        {"arrival_process": "mmpp", "arrival_rate": 500.0,
         "burstiness": 6.0, "switch_prob": 0.2, "churn": 0.15},
    ]

    @pytest.mark.parametrize("kwargs", LEGACY_CASES,
                             ids=["plain", "churn", "poisson", "mmpp"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_uniform_matches_the_pre_registry_implementation(
        self, kwargs, seed
    ):
        expected = _legacy_reference(ITEMS, seed=seed, **kwargs)
        assert generate_events("uniform", ITEMS, kwargs, seed) == expected

    def test_unseeded_plain_stream_is_the_identity_sequence(self):
        events = generate_events("uniform", 10)
        assert events == [{"op": "place", "item": i} for i in range(10)]
