"""Copy-free stale epochs: the snapshot aliases ``loads`` until a removal.

Placements are deferred to the end of an epoch, so the epoch-start
snapshot is ``loads`` itself; ``remove_ball`` detaches it before the first
committed-ball decrement.  The streams here are checked against an
independent plain-Python reference of the scalar rule (a ``list(loads)``
snapshot per epoch) with the stepper's removal semantics.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.core.compiled import backend_unavailable_reason
from repro.core.kernels.stale import StaleKDChoiceStepper
from repro.core.policies import strict_select
from repro.online import OnlineAllocator


class _StaleReference:
    """Stale strict (k, d)-choice with churn, one round per ``step()``."""

    def __init__(self, n_bins, k, d, stale_rounds, n_balls, seed):
        self.n_bins, self.k, self.d = n_bins, k, d
        self.stale_rounds, self.n_balls = stale_rounds, n_balls
        self.rng = np.random.default_rng(seed)
        self.loads = [0] * n_bins
        self.emitted = 0
        self.rows = None
        self.pos = 0

    def step(self):
        if self.rows is None:
            rounds = min(self.stale_rounds, -(-(self.n_balls - self.emitted) // self.k))
            self.rows = self.rng.integers(0, self.n_bins, size=(rounds, self.d))
            self.ties = self.rng.random((rounds, self.d)) if self.k < self.d else None
            self.snapshot = list(self.loads)
            self.pos = 0
            self.pending = []
        batch = min(self.k, self.n_balls - self.emitted)
        row = self.rows[self.pos].tolist()
        if batch == self.d:
            destinations = row
        elif self.ties is not None:
            destinations = strict_select(self.snapshot, row, batch, self.ties[self.pos])
        else:
            destinations = strict_select(self.snapshot, row, batch, self.rng.random(self.d))
        self.pending.extend(destinations)
        self.pos += 1
        self.emitted += batch
        if self.pos == len(self.rows):
            for bin_index in self.pending:
                self.loads[bin_index] += 1
            self.rows = None
        return [int(b) for b in destinations]

    def remove(self, bin_index):
        if self.loads[bin_index] > 0:
            self.loads[bin_index] -= 1
        else:
            self.pending.remove(bin_index)


PARAMS = {"n_bins": 24, "k": 3, "d": 7, "stale_rounds": 6, "n_balls": 900}


def _pair(seed, params=PARAMS):
    return (
        StaleKDChoiceStepper(seed=seed, **params),
        _StaleReference(seed=seed, **params),
    )


def test_epoch_snapshot_is_loads_until_a_committed_removal():
    stepper, reference = _pair(5)
    for _ in range(2 * PARAMS["stale_rounds"] + 2):  # two epochs, then mid-epoch
        assert stepper.step() == reference.step()
        assert stepper._snapshot is None or stepper._snapshot is stepper.loads
    epoch_start = stepper.loads.copy()
    committed = int(np.flatnonzero(epoch_start)[0])
    stepper.remove_ball(committed)
    reference.remove(committed)
    assert stepper._snapshot is not stepper.loads
    assert np.array_equal(stepper._snapshot, epoch_start)
    assert stepper.loads[committed] == epoch_start[committed] - 1
    # A second removal in the same epoch does not copy again.
    detached = stepper._snapshot
    stepper.remove_ball(committed if stepper.loads[committed] else int(np.flatnonzero(stepper.loads)[0]))
    assert stepper._snapshot is detached
    # The next epoch aliases again.
    while stepper._epoch_rows is not None:
        stepper.step()
    stepper.step()
    assert stepper._snapshot is stepper.loads


@pytest.mark.parametrize("kernel_mode", ["vectorized", "compiled"])
@pytest.mark.parametrize("seed", range(12))
def test_rounds_after_a_removal_probe_the_epoch_start_loads(seed, kernel_mode):
    stepper, reference = _pair(seed)
    if kernel_mode == "compiled":
        if backend_unavailable_reason() is not None:
            pytest.skip("compiled backend unavailable")
        stepper.set_kernel_mode("compiled")
    script = np.random.default_rng(1000 + seed)
    while not stepper.exhausted:
        # Mid-epoch removals of committed balls (and now and then a pending
        # one) between blocks of rounds.
        if stepper._epoch_rows is not None and script.random() < 0.5:
            if script.random() < 0.8 and stepper.loads.any():
                bin_index = int(script.choice(np.flatnonzero(stepper.loads)))
            elif stepper._epoch_pending:
                bin_index = int(script.choice(stepper._epoch_pending))
            else:
                bin_index = None
            if bin_index is not None:
                stepper.remove_ball(bin_index)
                reference.remove(bin_index)
        block = stepper.step_block(int(script.integers(1, 4)) * PARAMS["k"])
        if block is None:
            expected = reference.step()
            assert stepper.step() == expected
        else:
            expected = []
            while len(expected) < len(block):
                expected.extend(reference.step())
            assert block.tolist() == expected
    assert stepper.loads.tolist() == reference.loads


@pytest.mark.parametrize("remove_first", [False, True])
def test_mid_epoch_snapshot_restore_resumes_bit_identically(remove_first):
    spec = SchemeSpec(scheme="stale_kd_choice", params=PARAMS, seed=8)

    def run(restore_at):
        allocator = OnlineAllocator(spec, track_items=True)
        allocator.place_batch(2 * PARAMS["k"] * PARAMS["stale_rounds"] + 4)
        if remove_first:
            committed = next(
                item for item, bin_index in allocator.items().items()
                if allocator.loads[bin_index] > 0
            )
            allocator.remove(committed)
        if restore_at:
            allocator = OnlineAllocator.restore(json.loads(json.dumps(allocator.snapshot())))
        destinations = list(allocator.place_batch(50))
        destinations += [allocator.place() for _ in range(7)]
        destinations += list(allocator.place_batch(allocator.remaining))
        return allocator, destinations

    unbroken, expected = run(restore_at=False)
    resumed, got = run(restore_at=True)
    assert got == expected
    assert np.array_equal(resumed.loads, unbroken.loads)
    assert resumed.snapshot()["stepper"] == unbroken.snapshot()["stepper"]


# ---------------------------------------------------------------------------
# Compiled mode against vectorized mode.  In compiled mode a block that starts at
# an epoch boundary runs whole epochs in one C call; everything else runs
# one epoch per call, as in vectorized mode.  Both must agree bit for bit.
# ---------------------------------------------------------------------------

#: Ends in a partial round; 600-epoch blocks cross the 4096-row block cap.
EPOCH_PARAMS = {"n_bins": 96, "k": 3, "d": 7, "stale_rounds": 8, "n_balls": 32_000}
EPOCH_BALLS = EPOCH_PARAMS["k"] * EPOCH_PARAMS["stale_rounds"]


def _modes(seed):
    if backend_unavailable_reason() is not None:
        pytest.skip(f"compiled backend unavailable: {backend_unavailable_reason()}")
    numpy_mode = StaleKDChoiceStepper(seed=seed, **EPOCH_PARAMS)
    compiled_mode = StaleKDChoiceStepper(seed=seed, **EPOCH_PARAMS)
    compiled_mode.set_kernel_mode("compiled")
    return numpy_mode, compiled_mode


def _place(stepper, balls, max_balls):
    """Place at least ``balls`` more balls (or to the end of the stream) by
    ``step_block(max_balls)``, stepping where no block applies."""
    target = min(stepper.balls_emitted + balls, stepper.planned_balls)
    destinations = []
    while stepper.balls_emitted < target:
        block = stepper.step_block(min(max_balls, target - stepper.balls_emitted))
        destinations.extend(stepper.step() if block is None else block.tolist())
    return destinations


def _assert_same_state(numpy_mode, compiled_mode):
    assert np.array_equal(numpy_mode.loads, compiled_mode.loads)
    assert (numpy_mode.rounds, numpy_mode.messages, numpy_mode.balls_emitted) == (
        compiled_mode.rounds, compiled_mode.messages, compiled_mode.balls_emitted
    )
    assert numpy_mode.rng.bit_generator.state == compiled_mode.rng.bit_generator.state
    assert numpy_mode.state_dict() == compiled_mode.state_dict()


@pytest.mark.parametrize("epochs", [0.5, 1, 3.7, 600])
def test_compiled_epoch_blocks_match_numpy_mode(epochs):
    numpy_mode, compiled_mode = _modes(seed=21)
    max_balls = int(epochs * EPOCH_BALLS)
    while not compiled_mode.exhausted:
        assert _place(compiled_mode, max_balls, max_balls) == _place(
            numpy_mode, max_balls, max_balls
        )
        _assert_same_state(numpy_mode, compiled_mode)
    assert numpy_mode.exhausted


def test_compiled_epoch_block_stops_at_the_row_cap():
    _, compiled_mode = _modes(seed=21)
    block = compiled_mode.step_block(600 * EPOCH_BALLS)
    # 4096 rows: 512 whole epochs of 8 rounds.
    assert len(block) == 4096 * EPOCH_PARAMS["k"]
    assert compiled_mode.rounds == 4096 and compiled_mode._epoch_rows is None


@pytest.mark.parametrize("removed", ["committed", "pending"])
def test_compiled_epoch_blocks_after_a_mid_epoch_removal(removed):
    numpy_mode, compiled_mode = _modes(seed=22)
    script = np.random.default_rng(7)
    for call in range(6):
        # 2.5 epochs, then 3 a call: the rest of the current epoch and the
        # last half epoch per-epoch, whole epochs in C, so every removal
        # lands mid-epoch and the block after it starts mid-epoch.
        balls = int(2.5 * EPOCH_BALLS) if call == 0 else 3 * EPOCH_BALLS
        assert _place(compiled_mode, balls, balls) == _place(numpy_mode, balls, balls)
        assert compiled_mode._epoch_pos == EPOCH_PARAMS["stale_rounds"] // 2
        if removed == "committed":
            bin_index = int(script.choice(np.flatnonzero(compiled_mode.loads)))
        else:
            bin_index = int(script.choice(compiled_mode._epoch_pending))
        numpy_mode.remove_ball(bin_index)
        compiled_mode.remove_ball(bin_index)
        _assert_same_state(numpy_mode, compiled_mode)
    while not compiled_mode.exhausted:
        assert _place(compiled_mode, 40 * EPOCH_BALLS, 40 * EPOCH_BALLS) == _place(
            numpy_mode, 40 * EPOCH_BALLS, 40 * EPOCH_BALLS
        )
    _assert_same_state(numpy_mode, compiled_mode)


@pytest.mark.parametrize("stop", [5 * EPOCH_BALLS, int(5.5 * EPOCH_BALLS)])
def test_compiled_epoch_blocks_restore_mid_stream(stop):
    numpy_mode, compiled_mode = _modes(seed=23)
    max_balls = 200 * EPOCH_BALLS
    assert _place(compiled_mode, stop, max_balls) == _place(numpy_mode, stop, max_balls)
    resumed = StaleKDChoiceStepper(seed=0, **EPOCH_PARAMS)
    resumed.load_state(json.loads(json.dumps(compiled_mode.state_dict())))
    resumed.set_kernel_mode("compiled")
    assert _place(resumed, EPOCH_PARAMS["n_balls"], max_balls) == _place(
        numpy_mode, EPOCH_PARAMS["n_balls"], max_balls
    )
    _assert_same_state(numpy_mode, resumed)
