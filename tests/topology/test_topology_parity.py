"""Flat-topology parity anchors and stepper state round-trips.

The acceptance contract for the topology subsystem: under a flat /
zero-cost topology the topology-aware schemes reproduce the paper's flat
schemes bit for bit, and the online steppers snapshot/restore exactly.
"""

from __future__ import annotations

import json

import pytest

from oracles import ORACLES, run_hierarchical_go_left, run_locality_two_choice
from repro.api import SchemeSpec, simulate
from repro.core.kernels import (
    HierarchicalGoLeftStepper,
    LocalityTwoChoiceStepper,
)
from repro.topology import Topology

SEED = 1234
N_BINS = 256


class TestFlatParity:
    @pytest.mark.parametrize("bias", [0.0, 0.37, 1.0])
    def test_locality_flat_matches_two_choice_bit_for_bit(self, bias):
        """Under Topology.flat the zone remap is the identity for any bias."""
        flat = simulate(
            SchemeSpec(scheme="two_choice", params={"n_bins": N_BINS}, seed=SEED)
        )
        local = run_locality_two_choice(
            N_BINS, bias=bias, topology=Topology.flat(N_BINS), seed=SEED
        )
        assert (local.loads == flat.loads).all()
        assert local.extra["cross_probe_fraction"] == 0.0
        assert local.extra["probe_cost"] == 0.0

    def test_zero_bias_draw_stream_is_threshold_independent(self):
        """bias=0 never remaps a slot, so the probe draws (and hence the
        relation counters) are identical whatever the spill threshold."""
        runs = [
            run_locality_two_choice(
                N_BINS, bias=0.0, threshold=t, topology="quad_rack", seed=SEED
            )
            for t in (0, 3)
        ]
        for relation in ("rack", "zone", "cross"):
            key = f"{relation}_probes"
            assert runs[0].extra[key] == runs[1].extra[key]

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_hierarchical_grid_matches_always_go_left(self, d):
        """A d-rack grid draws always_go_left's exact probe ranges."""
        flat = simulate(
            SchemeSpec(
                scheme="always_go_left", params={"n_bins": N_BINS, "d": d},
                seed=SEED,
            )
        )
        hier = run_hierarchical_go_left(N_BINS, d=d, seed=SEED)
        assert (hier.loads == flat.loads).all()
        explicit = run_hierarchical_go_left(
            N_BINS, topology=Topology.grid(N_BINS, zones=d), seed=SEED
        )
        assert (explicit.loads == flat.loads).all()

    @pytest.mark.parametrize(
        "scheme,params",
        [
            ("hierarchical_always_go_left", {"n_bins": 128, "topology": "wide"}),
            (
                "locality_two_choice",
                {
                    "n_bins": 128, "bias": 0.6, "threshold": 1,
                    "topology": "dual_zone",
                },
            ),
        ],
    )
    def test_engines_agree_through_the_api(self, scheme, params):
        oracle = ORACLES[scheme](**params, seed=7)
        for engine in ("scalar", "vectorized"):
            result = simulate(
                SchemeSpec(scheme=scheme, params=params, seed=7, engine=engine)
            )
            assert result.extra["topology"] == params["topology"]
            assert (result.loads == oracle.loads).all(), engine


class TestCostAccounting:
    def test_cost_knobs_never_touch_the_stream(self):
        cheap = run_locality_two_choice(
            64, bias=0.5, topology="dual_zone", seed=3
        )
        expensive = run_locality_two_choice(
            64, bias=0.5, seed=3,
            topology=Topology.grid(
                64, zones=2,
                probe_costs={"rack": 0.0, "zone": 5.0, "cross": 50.0},
                transfer_costs={"rack": 1.0, "zone": 10.0, "cross": 100.0},
            ),
        )
        assert (cheap.loads == expensive.loads).all()
        assert cheap.extra["cross_probes"] == expensive.extra["cross_probes"]
        assert expensive.extra["probe_cost"] > cheap.extra["probe_cost"]

    def test_full_bias_keeps_every_probe_in_zone(self):
        result = run_locality_two_choice(
            64, bias=1.0, topology="dual_zone", seed=5
        )
        assert result.extra["cross_probes"] == 0
        assert result.extra["cross_places"] == 0
        assert result.extra["cross_probe_fraction"] == 0.0

    def test_counters_tally_every_probe_and_place(self):
        result = run_locality_two_choice(
            96, bias=0.4, topology="quad_rack", seed=9, n_balls=500
        )
        probes = sum(
            result.extra[f"{r}_probes"] for r in ("rack", "zone", "cross")
        )
        places = sum(
            result.extra[f"{r}_places"] for r in ("rack", "zone", "cross")
        )
        assert probes == 500 * 2  # d probes per ball
        assert places == 500


class TestStepperState:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: HierarchicalGoLeftStepper(
                96, topology="quad_rack", n_balls=400, seed=11
            ),
            lambda: LocalityTwoChoiceStepper(
                96, bias=0.5, threshold=1, topology="dual_zone",
                n_balls=400, seed=11,
            ),
        ],
        ids=["hierarchical", "locality"],
    )
    def test_snapshot_mid_stream_resumes_identically(self, factory):
        reference = factory()
        for _ in range(150):
            reference.step()
        # Through JSON: the exact manifest/snapshot path.
        state = json.loads(json.dumps(reference.state_dict()))
        resumed = factory()
        resumed.load_state(state)
        while reference.balls_emitted < reference.planned_balls:
            assert reference.step() == resumed.step()
        assert (reference.loads == resumed.loads).all()
        assert reference.zone_counters == resumed.zone_counters
        assert reference.messages == resumed.messages

    def test_stepper_matches_scalar_reference(self):
        stepper = LocalityTwoChoiceStepper(
            128, bias=0.25, topology="dual_zone", n_balls=300, seed=2
        )
        while stepper.balls_emitted < stepper.planned_balls:
            stepper.step()
        reference = run_locality_two_choice(
            128, bias=0.25, topology="dual_zone", n_balls=300, seed=2
        )
        assert (stepper.loads == reference.loads).all()
        counters = stepper.zone_counters
        for name, value in counters.items():
            assert reference.extra[name] == value
