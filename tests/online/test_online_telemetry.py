"""LoadTelemetry: O(1) updates, sampling cadence, bounded ring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.online import LoadTelemetry, OnlineAllocator


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestCounters:
    def test_place_and_remove_counts(self):
        telemetry = LoadTelemetry(sample_every=1000)
        telemetry.record_place(1)
        telemetry.record_place(2)
        telemetry.record_remove(1)
        assert telemetry.placements == 2
        assert telemetry.removals == 1

    def test_block_ingestion_counts_placements(self):
        telemetry = LoadTelemetry()
        telemetry.record_block(6)
        assert telemetry.placements == 6


class TestSampling:
    def test_cadence_and_ring_capacity(self):
        clock = FakeClock()
        telemetry = LoadTelemetry(sample_every=10, capacity=3, clock=clock)
        loads = np.zeros(8, dtype=np.int64)
        for event in range(100):
            clock.now += 0.001
            telemetry.record_place(event % 8)
            telemetry.maybe_sample(loads)
        assert telemetry.samples_taken == 10
        assert len(telemetry.history()) == 3  # ring keeps the newest 3
        assert telemetry.latest().index == 9

    def test_sample_contents(self):
        clock = FakeClock()
        telemetry = LoadTelemetry(sample_every=4, clock=clock)
        loads = np.array([0, 1, 2, 1], dtype=np.int64)
        for bin_index in (1, 2, 2, 3):
            telemetry.record_place(bin_index)
        clock.now = 2.0
        sample = telemetry.maybe_sample(loads)
        assert sample is not None
        assert sample.placements == 4
        assert sample.max_load == 2
        assert sample.mean_load == pytest.approx(1.0)
        assert sample.gap == pytest.approx(1.0)
        assert sample.percentiles[50] == pytest.approx(1.0)
        assert sample.placements_per_sec == pytest.approx(2.0)
        assert sample.to_dict()["max_load"] == 2

    def test_not_due_returns_none(self):
        telemetry = LoadTelemetry(sample_every=100)
        telemetry.record_place(0)
        assert telemetry.maybe_sample(np.zeros(2, dtype=np.int64)) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            LoadTelemetry(sample_every=0)
        with pytest.raises(ValueError):
            LoadTelemetry(capacity=0)


class TestAllocatorIntegration:
    def test_allocator_samples_on_cadence(self):
        spec = SchemeSpec(
            scheme="kd_choice",
            params={"n_bins": 64, "k": 2, "d": 4, "n_balls": 1000},
            seed=0,
        )
        telemetry = LoadTelemetry(sample_every=100)
        allocator = OnlineAllocator(spec, telemetry=telemetry)
        # Sampling happens at event-recording points: chunked ingestion
        # samples once per due chunk (a single bulk call samples once).
        for _ in range(10):
            allocator.place_batch(100)
        assert telemetry.samples_taken == 10
        latest = telemetry.latest()
        assert latest.placements == 1000
        assert latest.max_load == int(allocator.loads.max())

    def test_gap_property_matches_loads(self):
        spec = SchemeSpec(
            scheme="single_choice", params={"n_bins": 16, "n_balls": 64}, seed=3
        )
        allocator = OnlineAllocator(spec)
        allocator.place_batch(64)
        assert allocator.gap == pytest.approx(
            allocator.loads.max() - 64 / 16
        )


class TestRestoreAnchors:
    """Snapshot/restore must carry the wall-clock anchors, not just counts.

    The historical bug: ``restore_counters`` reinstated the event counters
    but left ``_start``/``_last_sample_time`` at the new telemetry object's
    construction instants, so a restored stream's samples restarted
    ``wall_time`` at zero and billed the snapshot/restore downtime to the
    first sample's ``placements_per_sec``.
    """

    def _allocator(self, clock, sample_every=10):
        telemetry = LoadTelemetry(sample_every=sample_every, clock=clock)
        spec = SchemeSpec(
            scheme="two_choice", params={"n_bins": 32, "n_balls": 400}, seed=7
        )
        return OnlineAllocator(spec, telemetry=telemetry)

    def test_wall_time_resumes_across_restore(self):
        clock = FakeClock()
        allocator = self._allocator(clock)
        clock.now = 4.0
        allocator.place_batch(25)  # samples at events 10, 20
        snapshot = allocator.snapshot()
        assert snapshot["telemetry"]["wall_time"] == pytest.approx(4.0)

        late_clock = FakeClock()
        late_clock.now = 1000.0  # restore happens much later, elsewhere
        restored = OnlineAllocator.restore(
            snapshot, telemetry=LoadTelemetry(sample_every=10, clock=late_clock)
        )
        late_clock.now += 2.0
        restored.place_batch(10)
        sample = restored.telemetry.latest()
        # 4.0s elapsed before the snapshot + 2.0s after the restore; the
        # 996.0s gap between them is downtime, not stream time.
        assert sample.wall_time == pytest.approx(6.0)

    def test_rate_window_excludes_restore_downtime(self):
        clock = FakeClock()
        allocator = self._allocator(clock)
        clock.now = 1.0
        allocator.place_batch(25)
        snapshot = allocator.snapshot()

        late_clock = FakeClock()
        late_clock.now = 500.0
        restored = OnlineAllocator.restore(
            snapshot, telemetry=LoadTelemetry(sample_every=10, clock=late_clock)
        )
        late_clock.now += 2.0
        restored.place_batch(10)
        sample = restored.telemetry.latest()
        # 10 placements over the 2.0s since the restore — not over the
        # 501.0s a naive (now - _last_sample_time) would report.
        assert sample.placements_per_sec == pytest.approx(10 / 2.0)

    def test_restored_stream_samples_at_the_same_event_counts(self):
        # Same event grouping on both sides (place_batch samples at most
        # once per call); the only difference is the snapshot/restore cut.
        clock = FakeClock()
        unbroken = self._allocator(clock)
        unbroken.place_batch(23)
        unbroken.place_batch(55 - 23)

        first = self._allocator(FakeClock())
        first.place_batch(23)  # mid-cadence cut: 3 events past sample 2
        restored = OnlineAllocator.restore(
            first.snapshot(),
            telemetry=LoadTelemetry(sample_every=10, clock=FakeClock()),
        )
        restored.place_batch(55 - 23)
        assert (
            restored.telemetry.samples_taken == unbroken.telemetry.samples_taken
        )
        # The ring is not persisted, but the post-restore samples must land
        # at the same event counts (and sample indices) as the unbroken run.
        post_cut = [
            (s.index, s.events)
            for s in unbroken.telemetry.history()
            if s.events > 23
        ]
        assert [
            (s.index, s.events) for s in restored.telemetry.history()
        ] == post_cut

    def test_legacy_snapshot_without_wall_time_restores_at_zero(self):
        telemetry = LoadTelemetry(clock=FakeClock())
        telemetry.restore_counters(
            {"placements": 5, "removals": 1, "samples_taken": 0,
             "events_since_sample": 6}
        )
        assert telemetry.placements == 5
        assert telemetry.counters()["wall_time"] == pytest.approx(0.0)


class TestTenantCounters:
    """Per-tenant attribution: counters, fairness, snapshot round-trip."""

    def _telemetry_with_two_tenants(self) -> LoadTelemetry:
        telemetry = LoadTelemetry()
        telemetry.record_tenant_place("a", 0)
        telemetry.record_tenant_place("a", 0)
        telemetry.record_tenant_place("a", 3)
        telemetry.record_tenant_place("b", 1)
        telemetry.record_tenant_remove("a", 0)
        return telemetry

    def test_summary_tracks_placements_removals_live_and_max_load(self):
        summary = self._telemetry_with_two_tenants().tenant_summary()
        assert summary == {
            "a": {"placements": 3, "removals": 1, "live": 2, "max_load": 1},
            "b": {"placements": 1, "removals": 0, "live": 1, "max_load": 1},
        }

    def test_no_tenants_means_no_tenant_section(self):
        telemetry = LoadTelemetry()
        telemetry.record_place(0)
        assert not telemetry.has_tenants
        assert "tenants" not in telemetry.counters()
        assert telemetry.tenant_fairness() == 1.0

    def test_fairness_is_jains_index_over_live_balls(self):
        telemetry = LoadTelemetry()
        for _ in range(3):
            telemetry.record_tenant_place(0, 0)
        telemetry.record_tenant_place(1, 1)
        # lives = [3, 1]: (3+1)^2 / (2 * (9+1)) = 16/20
        assert telemetry.tenant_fairness() == pytest.approx(0.8)
        telemetry.record_tenant_place(1, 2)
        telemetry.record_tenant_place(1, 3)
        assert telemetry.tenant_fairness() == pytest.approx(1.0)

    def test_one_tenant_holding_everything_is_the_lower_bound(self):
        telemetry = LoadTelemetry()
        telemetry.record_tenant_place("hog", 0)
        telemetry.record_tenant_place("idle", 1)
        telemetry.record_tenant_remove("idle", 1)
        assert telemetry.tenant_fairness() == pytest.approx(0.5)

    def test_counters_round_trip_through_restore(self):
        telemetry = self._telemetry_with_two_tenants()
        snapshot = telemetry.counters()
        restored = LoadTelemetry()
        restored.restore_counters(snapshot)
        assert restored.tenant_summary() == telemetry.tenant_summary()
        assert restored.tenant_fairness() == telemetry.tenant_fairness()
        # The restored instance keeps attributing correctly.
        restored.record_tenant_remove("a", 3)
        assert restored.tenant_summary()["a"]["live"] == 1

    def test_labels_normalize_to_strings(self):
        telemetry = LoadTelemetry()
        telemetry.record_tenant_place(7, 0)
        telemetry.record_tenant_remove("7", 0)
        assert telemetry.tenant_summary() == {
            "7": {"placements": 1, "removals": 1, "live": 0, "max_load": 0},
        }
