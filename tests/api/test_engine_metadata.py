"""Batch-engine result metadata stays fixed.

Every kernel-backed scheme's vectorized (and, where the C backend builds,
compiled) engine reports a scheme label, ``k``, ``d``, policy tag, round
count and set of ``extra`` keys.  The table below pins them at one small
seed, as the engines reported them before they were folded into the one
generic ``drive`` function, so a label moved into a stepper's ``result()``
cannot drift unnoticed.
"""

from __future__ import annotations

import pytest

from repro.api import available_schemes, get_scheme
from repro.core.compiled import backend_unavailable_reason
from repro.core.kernels import EXEMPT_SCHEMES

#: Per-scheme parameters besides ``seed``.
PARAMS = {
    "kd_choice": {"n_bins": 64, "k": 2, "d": 3},
    "serialized_kd_choice": {"n_bins": 64, "k": 2, "d": 3},
    "weighted_kd_choice": {"n_bins": 64, "k": 2, "d": 3},
    "stale_kd_choice": {"n_bins": 64, "k": 2, "d": 3, "stale_rounds": 4},
    "greedy_kd_choice": {"n_bins": 64, "k": 2, "d": 3},
    "churn_kd_choice": {"n_bins": 64, "k": 2, "d": 3, "rounds": 8},
    "single_choice": {"n_bins": 64},
    "d_choice": {"n_bins": 64, "d": 3},
    "two_choice": {"n_bins": 64},
    "one_plus_beta": {"n_bins": 64, "beta": 0.5},
    "always_go_left": {"n_bins": 64, "d": 3},
    "batch_random": {"n_bins": 64, "k": 4},
    "threshold_adaptive": {"n_bins": 64},
    "two_phase_adaptive": {"n_bins": 64},
    "hierarchical_always_go_left": {"n_bins": 64},
    "locality_two_choice": {"n_bins": 64},
}
SEED = 3

_KD = ("engine", "expected_messages")
_ZONES = (
    "cross_place_fraction", "cross_places", "cross_probe_fraction",
    "cross_probes", "engine", "probe_cost", "rack_places", "rack_probes",
    "topology", "transfer_cost", "zone_places", "zone_probes",
)
_WEIGHTED = (
    "engine", "max_weighted_load", "total_weight", "weighted_gap",
    "weighted_loads",
)
_THRESHOLD = ("average_probes", "engine", "max_probes", "probe_histogram")
_TWO_PHASE = ("average_probes", "cap", "engine", "retries", "retry_fraction")

#: (scheme, engine) -> (scheme label, k, d, policy, rounds, sorted extra keys).
EXPECTED = {
    ("always_go_left", "vectorized"): ("always-go-left[3]", 1, 3, "asymmetric", 64, ("engine",)),
    ("always_go_left", "compiled"): ("always-go-left[3]", 1, 3, "asymmetric", 64, ("engine",)),
    ("batch_random", "vectorized"): ("batch-random[k=4]", 4, 4, "uniform", 16, ()),
    ("churn_kd_choice", "vectorized"): (
        "churn-(2,3)-choice", 2, 3, "strict", 8,
        ("churn_result", "departures_per_round", "steady_state_gap"),
    ),
    ("d_choice", "vectorized"): ("greedy[3]", 1, 3, "strict", 64, _KD),
    ("d_choice", "compiled"): ("greedy[3]", 1, 3, "strict", 64, _KD),
    ("greedy_kd_choice", "vectorized"): ("(2,3)-choice", 2, 3, "greedy", 32, _KD),
    ("hierarchical_always_go_left", "vectorized"): (
        "hierarchical-go-left[grid-4x1]", 1, 4, "hierarchical", 64, _ZONES,
    ),
    ("kd_choice", "vectorized"): ("(2,3)-choice", 2, 3, "strict", 32, _KD),
    ("kd_choice", "compiled"): ("(2,3)-choice", 2, 3, "strict", 32, _KD),
    ("locality_two_choice", "vectorized"): (
        "locality-two-choice[flat]", 1, 2, "locality", 64,
        tuple(sorted(_ZONES + ("bias", "threshold"))),
    ),
    ("one_plus_beta", "vectorized"): ("(1+0.5)-choice", 1, 2, "mixed", 64, ("beta", "engine")),
    ("one_plus_beta", "compiled"): ("(1+0.5)-choice", 1, 2, "mixed", 64, ("beta", "engine")),
    ("serialized_kd_choice", "vectorized"): (
        "serialized-(2,3)-choice[identity]", 2, 3, "strict", 32, ("engine",),
    ),
    ("single_choice", "vectorized"): ("single-choice", 1, 1, "uniform", 64, ()),
    ("stale_kd_choice", "vectorized"): (
        "stale-(2,3)-choice[epoch=4 rounds]", 2, 3, "strict", 32,
        ("engine", "stale_rounds"),
    ),
    ("stale_kd_choice", "compiled"): (
        "stale-(2,3)-choice[epoch=4 rounds]", 2, 3, "strict", 32,
        ("engine", "stale_rounds"),
    ),
    ("threshold_adaptive", "vectorized"): ("adaptive-threshold", 1, 6, "adaptive", 64, _THRESHOLD),
    ("threshold_adaptive", "compiled"): ("adaptive-threshold", 1, 6, "adaptive", 64, _THRESHOLD),
    ("two_choice", "vectorized"): ("greedy[2]", 1, 2, "strict", 64, _KD),
    ("two_choice", "compiled"): ("greedy[2]", 1, 2, "strict", 64, _KD),
    ("two_phase_adaptive", "vectorized"): ("adaptive-two-phase", 1, 4, "adaptive", 64, _TWO_PHASE),
    ("two_phase_adaptive", "compiled"): ("adaptive-two-phase", 1, 4, "adaptive", 64, _TWO_PHASE),
    ("weighted_kd_choice", "vectorized"): (
        "weighted-(2,3)-choice[exponential]", 2, 3, "weighted-strict", 32, _WEIGHTED,
    ),
    ("weighted_kd_choice", "compiled"): (
        "weighted-(2,3)-choice[exponential]", 2, 3, "weighted-strict", 32, _WEIGHTED,
    ),
}

_COMPILED_REASON = backend_unavailable_reason()


def test_table_covers_every_batch_engine():
    engines = {
        (name, engine)
        for name in available_schemes()
        if name not in EXEMPT_SCHEMES
        for engine in ("vectorized", "compiled")
        if getattr(get_scheme(name), engine) is not None
    }
    assert engines == set(EXPECTED)


@pytest.mark.parametrize(
    "scheme,engine", sorted(EXPECTED), ids=[f"{s}-{e}" for s, e in sorted(EXPECTED)]
)
def test_engine_metadata_is_pinned(scheme, engine):
    if engine == "compiled" and _COMPILED_REASON is not None:
        pytest.skip(f"compiled backend unavailable: {_COMPILED_REASON}")
    result = getattr(get_scheme(scheme), engine)(seed=SEED, **PARAMS[scheme])
    got = (
        result.scheme,
        result.k,
        result.d,
        result.policy,
        result.rounds,
        tuple(sorted(result.extra)),
    )
    assert got == EXPECTED[(scheme, engine)]
    if "engine" in result.extra:
        assert result.extra["engine"] == engine
