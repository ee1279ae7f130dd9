"""One engine rule for the online surfaces.

``OnlineAllocator``, trace replay and the shard pool take their engine from
:func:`repro.api.engine.resolve_engine`, the rule ``simulate`` uses.  Two
consequences are pinned here:

* ``REPRO_KERNEL=scalar`` pins online ingestion to the per-unit loop, as it
  pins ``simulate``;
* the engine is a speed choice, not state, so a snapshot taken while the
  compiled engine runs restores bit-identically where the backend cannot
  load and finishes its stream on the vectorized engine.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.core.compiled import backend_unavailable_reason
from repro.core.kernels.kd import KDChoiceStepper
from repro.online import OnlineAllocator, run_events
from repro.workloads import generate_events

KD_PARAMS = {"n_bins": 64, "k": 4, "d": 8, "n_balls": 800}


@pytest.fixture
def step_block_calls(monkeypatch):
    """Count ``KDChoiceStepper.step_block`` calls (the batch ingestion path)."""
    calls = []
    real = KDChoiceStepper.step_block

    def spy(self, max_balls):
        calls.append(max_balls)
        return real(self, max_balls)

    monkeypatch.setattr(KDChoiceStepper, "step_block", spy)
    return calls


def _spec(engine="auto", **params):
    return SchemeSpec(
        scheme="kd_choice", params=dict(KD_PARAMS, **params), seed=11,
        engine=engine,
    )


def _fill(allocator):
    for size in (1, 3, 7, 61, 128, 600):
        allocator.place_batch(size)
    return allocator


class TestScalarPin:
    def test_unpinned_auto_allocator_batches(self, step_block_calls):
        _fill(OnlineAllocator(_spec()))
        assert step_block_calls

    def test_pinned_auto_allocator_never_batches(
        self, monkeypatch, step_block_calls
    ):
        reference = _fill(OnlineAllocator(_spec(engine="scalar")))
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        pinned = _fill(OnlineAllocator(_spec()))
        assert step_block_calls == []
        assert pinned.snapshot()["stepper"] == reference.snapshot()["stepper"]

    def test_pinned_churn_replay_never_batches(
        self, monkeypatch, step_block_calls, tmp_path
    ):
        events = generate_events("uniform", 800, {"churn": 0.3}, seed=4)
        assert any(event["op"] == "remove" for event in events)

        def final_stepper(engine, directory):
            run_events(
                _spec(engine=engine), events,
                snapshot_every=len(events), snapshot_dir=directory,
            )
            (path,) = directory.iterdir()
            return json.loads(path.read_text())["stepper"]

        reference = final_stepper("scalar", tmp_path / "scalar")
        monkeypatch.setenv("REPRO_KERNEL", "scalar")
        pinned = final_stepper("auto", tmp_path / "pinned")
        assert step_block_calls == []
        assert pinned == reference


_COMPILED_REASON = backend_unavailable_reason()


@pytest.mark.skipif(
    _COMPILED_REASON is not None,
    reason=f"compiled backend unavailable: {_COMPILED_REASON}",
)
class TestRestoreWithoutBackend:
    @pytest.mark.parametrize("scheme,params,cut", [
        ("kd_choice", {"n_bins": 96, "k": 3, "d": 7, "n_balls": 1200}, 500),
        # 10 whole epochs of 14 balls, then 3 rounds into the 11th.
        ("stale_kd_choice",
         {"n_bins": 96, "k": 2, "d": 5, "stale_rounds": 7, "n_balls": 900},
         146),
        ("weighted_kd_choice",
         {"n_bins": 96, "k": 3, "d": 6, "weights": "pareto", "n_balls": 800},
         301),
    ])
    def test_compiled_snapshot_finishes_on_a_host_without_backend(
        self, scheme, params, cut, monkeypatch
    ):
        def allocator():
            return OnlineAllocator(SchemeSpec(scheme=scheme, params=params,
                                              seed=31))

        unbroken = allocator()
        assert unbroken.stepper.kernel_mode == "compiled"
        unbroken.place_batch(params["n_balls"])

        first = allocator()
        first.place_batch(cut)
        snapshot = json.loads(json.dumps(first.snapshot()))
        if scheme == "stale_kd_choice":
            assert snapshot["stepper"]["scalars"]["_epoch_pos"] > 0

        monkeypatch.setenv("REPRO_COMPILED_DISABLE", "1")
        resumed = OnlineAllocator.restore(snapshot)
        assert resumed.stepper.kernel_mode == "vectorized"
        resumed.place_batch(params["n_balls"] - cut)
        assert np.array_equal(resumed.loads, unbroken.loads)
        assert resumed.snapshot()["stepper"] == unbroken.snapshot()["stepper"]
