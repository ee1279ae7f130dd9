"""The scalar engine against the hand-written oracles, field for field.

For every kernel-table scheme whose scalar engine is its stepper's
``step()`` loop, ``get_scheme(name).runner`` must return the same
:class:`~repro.core.types.AllocationResult` as the scheme's oracle in
``tests/oracles`` (every field, ``extra`` included, apart from the
``extra["engine"]`` tag), leave a caller's generator in the same final
state, and reject each bad parameter with the same ``ValueError`` text.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import ORACLES
from repro.api import get_scheme
from repro.core.kernels import KERNELS
from repro.topology import Topology


def _same_value(left, right) -> bool:
    if isinstance(left, np.ndarray) or isinstance(right, np.ndarray):
        return (
            isinstance(left, np.ndarray)
            and isinstance(right, np.ndarray)
            and left.dtype == right.dtype
            and np.array_equal(left, right)
        )
    if isinstance(left, dict) and isinstance(right, dict):
        return left.keys() == right.keys() and all(
            _same_value(left[key], right[key]) for key in left
        )
    return type(left) is type(right) and left == right


def assert_same_result(engine, oracle) -> None:
    """Every field equal; the engine's only extra entry is its tag."""
    assert engine.extra.get("engine") == "scalar"
    engine_extra = {key: value for key, value in engine.extra.items() if key != "engine"}
    assert _same_value(engine_extra, oracle.extra)
    assert engine.loads.dtype == oracle.loads.dtype
    assert np.array_equal(engine.loads, oracle.loads)
    for field in ("scheme", "n_bins", "n_balls", "k", "d", "messages", "rounds", "policy"):
        assert getattr(engine, field) == getattr(oracle, field), field


def _half_plus_one(average: float) -> int:
    return int(average) + 1


#: (scheme, params) cases; every one runs with ``rng=`` and with ``seed=``.
CASES = [
    ("kd_choice", {"n_bins": 512, "k": 4, "d": 9}),
    ("kd_choice", {"n_bins": 512, "k": 3, "d": 3}),
    ("kd_choice", {"n_bins": 512, "k": 4, "d": 9, "n_balls": 1001}),
    ("kd_choice", {"n_bins": 512, "k": 3, "d": 3, "n_balls": 1000}),
    ("kd_choice", {"n_bins": 512, "k": 4, "d": 9, "n_balls": 0}),
    ("kd_choice", {"n_bins": 512, "k": 4, "d": 9, "n_balls": 700, "chunk_rounds": 7}),
    ("kd_choice", {"n_bins": 256, "k": 2, "d": 5, "n_balls": 2048}),
    ("kd_choice", {"n_bins": 512, "k": 4, "d": 9, "policy": "greedy"}),
    ("kd_choice", {"n_bins": 512, "k": 5, "d": 5, "n_balls": 999, "policy": "greedy"}),
    ("greedy_kd_choice", {"n_bins": 512, "k": 4, "d": 9}),
    ("greedy_kd_choice", {"n_bins": 512, "k": 3, "d": 3, "n_balls": 1001}),
    ("d_choice", {"n_bins": 512, "d": 3}),
    ("d_choice", {"n_bins": 512, "d": 1, "n_balls": 0}),
    ("d_choice", {"n_bins": 256, "d": 4, "n_balls": 9000}),
    ("two_choice", {"n_bins": 512}),
    ("two_choice", {"n_bins": 512, "n_balls": 777}),
    ("weighted_kd_choice", {"n_bins": 512, "k": 4, "d": 9}),
    ("weighted_kd_choice", {"n_bins": 512, "k": 3, "d": 3, "weights": "constant"}),
    ("weighted_kd_choice", {"n_bins": 512, "k": 4, "d": 8, "weights": "pareto", "n_balls": 1001}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "weights": [1.0, 2.5, 0.5] * 11, "n_balls": 33}),
    ("weighted_kd_choice", {"n_bins": 512, "k": 4, "d": 9, "n_balls": 0, "mean_weight": 2.0}),
    ("stale_kd_choice", {"n_bins": 512, "k": 4, "d": 9}),
    ("stale_kd_choice", {"n_bins": 512, "k": 4, "d": 9, "stale_rounds": 8, "n_balls": 1001}),
    ("stale_kd_choice", {"n_bins": 512, "k": 3, "d": 3, "stale_rounds": 5, "n_balls": 1000}),
    ("stale_kd_choice", {"n_bins": 512, "k": 4, "d": 9, "stale_rounds": 8, "policy": "greedy"}),
    ("stale_kd_choice", {"n_bins": 512, "k": 3, "d": 3, "stale_rounds": 4, "n_balls": 998, "policy": "greedy"}),
    ("stale_kd_choice", {"n_bins": 512, "k": 4, "d": 9, "stale_rounds": 8, "n_balls": 0}),
    ("one_plus_beta", {"n_bins": 512, "beta": 0.5}),
    ("one_plus_beta", {"n_bins": 512, "beta": 0.0, "n_balls": 100}),
    ("one_plus_beta", {"n_bins": 256, "beta": 1.0, "n_balls": 9000}),
    ("always_go_left", {"n_bins": 512, "d": 2}),
    ("always_go_left", {"n_bins": 500, "d": 7, "n_balls": 9000}),
    ("always_go_left", {"n_bins": 512, "d": 4, "n_balls": 0}),
    ("threshold_adaptive", {"n_bins": 512}),
    ("threshold_adaptive", {"n_bins": 512, "threshold": 2, "max_probes": 3, "n_balls": 2000}),
    ("threshold_adaptive", {"n_bins": 256, "threshold": _half_plus_one, "n_balls": 9000}),
    ("two_phase_adaptive", {"n_bins": 512}),
    ("two_phase_adaptive", {"n_bins": 256, "cap": 1, "retry_probes": 2, "n_balls": 9000}),
    ("hierarchical_always_go_left", {"n_bins": 512}),
    ("hierarchical_always_go_left", {"n_bins": 512, "d": 3, "n_balls": 9000}),
    ("hierarchical_always_go_left", {"n_bins": 512, "topology": "quad_rack"}),
    ("hierarchical_always_go_left", {"n_bins": 600, "topology": Topology.grid(600, zones=2, racks_per_zone=3), "n_balls": 1001}),
    ("locality_two_choice", {"n_bins": 512}),
    ("locality_two_choice", {"n_bins": 512, "bias": 0.5, "threshold": 1, "topology": "dual_zone"}),
    ("locality_two_choice", {"n_bins": 600, "d": 3, "bias": 0.8, "topology": Topology.grid(600, zones=3, racks_per_zone=2), "chunk_rounds": 5, "n_balls": 1001}),
    ("locality_two_choice", {"n_bins": 512, "bias": 1.0, "threshold": 2, "topology": "wide", "n_balls": 0}),
]


def _case_id(case) -> str:
    name, params = case
    shown = ",".join(
        f"{key}={value if isinstance(value, (int, float, str)) else type(value).__name__}"
        for key, value in params.items()
        if key != "n_bins"
    )
    return f"{name}[{shown}]"


def test_oracles_cover_every_derived_scalar_engine():
    derived = {
        name
        for name, kernel in KERNELS.items()
        if kernel.stepper is not None and kernel.scalar is None
    }
    assert derived == set(ORACLES)
    assert {name for name, _ in CASES} == derived
    for name in derived:
        assert get_scheme(name).runner is KERNELS[name].engines["scalar"]


@pytest.mark.parametrize("case", CASES, ids=[_case_id(case) for case in CASES])
def test_scalar_engine_matches_oracle_with_rng(case):
    name, params = case
    engine_rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    engine = get_scheme(name).runner(**params, rng=engine_rng)
    oracle = ORACLES[name](**params, rng=oracle_rng)
    assert_same_result(engine, oracle)
    assert engine_rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("case", CASES, ids=[_case_id(case) for case in CASES])
def test_scalar_engine_matches_oracle_with_seed(case):
    name, params = case
    assert_same_result(
        get_scheme(name).runner(**params, seed=11), ORACLES[name](**params, seed=11)
    )


#: (scheme, params) that every engine must reject with the oracle's text.
BAD_CASES = [
    ("kd_choice", {"n_bins": 64, "k": 0, "d": 2}),
    ("kd_choice", {"n_bins": 64, "k": 5, "d": 4}),
    ("kd_choice", {"n_bins": 4, "k": 2, "d": 5}),
    ("kd_choice", {"n_bins": 0, "k": 1, "d": 1}),
    ("kd_choice", {"n_bins": 64, "k": 2, "d": 4, "chunk_rounds": 0}),
    ("kd_choice", {"n_bins": 64, "k": 2, "d": 4, "policy": "nope"}),
    ("greedy_kd_choice", {"n_bins": 64, "k": 5, "d": 4}),
    ("d_choice", {"n_bins": 64, "d": 0}),
    ("d_choice", {"n_bins": 2, "d": 3}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "weights": "bogus"}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "weights": [1.0, 2.0]}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "weights": "pareto", "n_balls": 8, "mean_weight": -1.0}),
    ("weighted_kd_choice", {"n_bins": 64, "k": 0, "d": 4}),
    ("stale_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "stale_rounds": 0}),
    ("stale_kd_choice", {"n_bins": 64, "k": 5, "d": 4}),
    ("stale_kd_choice", {"n_bins": 64, "k": 2, "d": 4, "policy": "nope"}),
    ("one_plus_beta", {"n_bins": 64, "beta": 1.5}),
    ("one_plus_beta", {"n_bins": 0, "beta": 0.5}),
    ("always_go_left", {"n_bins": 64, "d": 0}),
    ("always_go_left", {"n_bins": 3, "d": 4}),
    ("threshold_adaptive", {"n_bins": 0}),
    ("threshold_adaptive", {"n_bins": 64, "max_probes": 0}),
    ("two_phase_adaptive", {"n_bins": 0}),
    ("two_phase_adaptive", {"n_bins": 64, "retry_probes": 0}),
    ("hierarchical_always_go_left", {"n_bins": 0}),
    ("hierarchical_always_go_left", {"n_bins": 512, "d": 3, "topology": "quad_rack"}),
    ("hierarchical_always_go_left", {"n_bins": 512, "n_balls": -1}),
    ("locality_two_choice", {"n_bins": 0}),
    ("locality_two_choice", {"n_bins": 64, "d": 0}),
    ("locality_two_choice", {"n_bins": 2, "d": 3}),
    ("locality_two_choice", {"n_bins": 64, "bias": 1.5}),
    ("locality_two_choice", {"n_bins": 64, "threshold": -1}),
    ("locality_two_choice", {"n_bins": 64, "chunk_rounds": 0}),
    ("locality_two_choice", {"n_bins": 64, "n_balls": -1}),
]


@pytest.mark.parametrize("case", BAD_CASES, ids=[_case_id(case) for case in BAD_CASES])
def test_scalar_engine_rejects_bad_parameters_like_oracle(case):
    name, params = case
    with pytest.raises(ValueError) as oracle_error:
        ORACLES[name](**params, seed=0)
    with pytest.raises(ValueError) as engine_error:
        get_scheme(name).runner(**params, seed=0)
    assert str(engine_error.value) == str(oracle_error.value)


def test_stale_stepper_reports_its_policy():
    """A non-strict stale stream is tagged with its policy, not "strict"."""
    stepper = KERNELS["stale_kd_choice"].stepper(
        n_bins=1 << 10, k=4, d=9, stale_rounds=8, policy="greedy", seed=3
    )
    while not stepper.exhausted:
        stepper.step()
    assert stepper.result("scalar").policy == "greedy"
