"""Trace format: byte-stable record/replay, validation, workload bridge."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import SchemeSpec
from repro.workloads import generate_events
from repro.online import (
    OnlineAllocator,
    TraceError,
    TraceHeader,
    TraceWriter,
    read_trace,
    record_workload,
    replay_trace,
    stream_workload,
)

SPEC = SchemeSpec(
    scheme="kd_choice", params={"n_bins": 64, "k": 2, "d": 4}, seed=7
)


class TestFormat:
    def test_record_is_byte_deterministic(self, tmp_path):
        for target in ("a.jsonl", "b.jsonl"):
            record_workload(
                tmp_path / target, SPEC, items=64, workload_seed=11,
                workload_params={"arrival_process": "mmpp",
                                 "arrival_rate": 500.0, "churn": 0.2},
            )
        assert (tmp_path / "a.jsonl").read_bytes() == (
            tmp_path / "b.jsonl"
        ).read_bytes()

    def test_replay_rerecord_is_byte_identical(self, tmp_path):
        source = tmp_path / "in.jsonl"
        record_workload(
            source, SPEC, items=64, workload_seed=4,
            workload_params={"churn": 0.15},
        )
        replay_trace(source, engine="scalar", record_out=tmp_path / "out.jsonl")
        assert source.read_bytes() == (tmp_path / "out.jsonl").read_bytes()

    def test_header_roundtrip_and_versioning(self, tmp_path):
        header = TraceHeader(scheme="kd_choice", params={"n_bins": 8},
                             seed=1, events=2)
        parsed = TraceHeader.from_dict(header.to_dict())
        assert parsed == header
        bad = header.to_dict()
        bad["version"] = 99
        with pytest.raises(TraceError, match="version"):
            TraceHeader.from_dict(bad)
        bad["format"] = "nope"
        with pytest.raises(TraceError, match="format|not a"):
            TraceHeader.from_dict(bad)

    def test_malformed_lines_name_their_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        header = TraceHeader(scheme="kd_choice", params={"n_bins": 8}, seed=1)
        path.write_text(
            json.dumps(header.to_dict()) + "\n" + '{"op":"teleport"}\n'
        )
        with pytest.raises(TraceError, match="line 2.*teleport"):
            read_trace(path)
        path.write_text(json.dumps(header.to_dict()) + "\nnot json\n")
        with pytest.raises(TraceError, match="line 2"):
            read_trace(path)
        path.write_text("")
        with pytest.raises(TraceError, match="empty"):
            read_trace(path)

    def test_remove_requires_item(self, tmp_path):
        header = TraceHeader(scheme="kd_choice", params={"n_bins": 8}, seed=1)
        with TraceWriter(tmp_path / "t.jsonl", header) as writer:
            with pytest.raises(TraceError, match="item"):
                writer.write_event({"op": "remove"})


class TestWorkloadBridge:
    def test_arrival_stamps_are_monotone(self):
        events = generate_events(
            "uniform", 50,
            {"arrival_process": "poisson", "arrival_rate": 100.0}, seed=3,
        )
        times = [event["t"] for event in events]
        assert times == sorted(times)
        assert len(events) == 50

    def test_mmpp_stamps_and_churn_interleave(self):
        events = generate_events(
            "uniform", 200,
            {"arrival_process": "mmpp", "arrival_rate": 100.0, "churn": 0.3},
            seed=3,
        )
        removes = [event for event in events if event["op"] == "remove"]
        assert removes, "churn=0.3 over 200 places should remove something"
        live = set()
        for event in events:
            if event["op"] == "place":
                live.add(event["item"])
            else:
                assert event["item"] in live  # only live items are removed
                live.remove(event["item"])

    def test_validation(self):
        with pytest.raises(ValueError, match="churn"):
            generate_events("uniform", 10, {"churn": 1.5})
        with pytest.raises(ValueError, match="non-negative"):
            generate_events("uniform", -1)


class TestReplay:
    def test_identical_across_engines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_workload(
            path, SPEC, items=64, workload_seed=11,
            workload_params={"arrival_process": "mmpp", "churn": 0.2},
        )
        results = {
            engine: replay_trace(path, engine=engine)
            for engine in ("scalar", "auto")
        }
        assert results["scalar"].stats == results["auto"].stats

    def test_stream_then_replay_reproduces(self, tmp_path):
        path = tmp_path / "t.jsonl"
        live = stream_workload(
            SPEC, items=64, workload_seed=5, record=path,
            workload_params={"churn": 0.1},
        )
        replayed = replay_trace(path, engine="scalar")
        assert live.stats == replayed.stats
        assert live.places == replayed.places
        assert live.removes == replayed.removes

    def test_replay_pins_n_balls_to_place_count(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_workload(path, SPEC, items=30, workload_seed=1)
        summary = replay_trace(path)
        assert summary.spec.params["n_balls"] == 30
        assert summary.stats["placed"] == 30

    def test_snapshot_every_writes_restorable_snapshots(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_workload(path, SPEC, items=64, workload_seed=2)
        summary = replay_trace(
            path, engine="scalar", snapshot_every=16,
            snapshot_dir=tmp_path / "snaps",
        )
        assert summary.snapshots_taken == 4
        assert len(summary.snapshot_paths) == 4
        with open(summary.snapshot_paths[1], "r", encoding="utf-8") as handle:
            middle = json.load(handle)
        restored = OnlineAllocator.restore(middle)
        assert restored.placed == 32
        # The restored allocator finishes the stream exactly like the replay.
        restored.place_batch(32)
        assert restored.summary()["loads_sha256"] == summary.stats["loads_sha256"]

    def test_format_text_is_stable(self, tmp_path):
        path = tmp_path / "t.jsonl"
        record_workload(path, SPEC, items=16, workload_seed=0)
        first = replay_trace(path).format_text()
        second = replay_trace(path).format_text()
        assert first == second
        assert "loads_sha256" in first and "events: 16" in first

    def test_seed_for_seed_matches_batch_engine(self, tmp_path):
        # A pure-placement trace is exactly the batch workload, so replay
        # must reproduce simulate() bit for bit.
        from repro.api import simulate

        path = tmp_path / "t.jsonl"
        spec = SPEC.with_params(n_balls=64)
        record_workload(path, spec, items=64, workload_seed=9)
        summary = replay_trace(path, engine="auto")
        batch = simulate(spec)
        assert summary.stats["max_load"] == batch.max_load
        assert summary.stats["messages"] == batch.messages
        import hashlib

        assert summary.stats["loads_sha256"] == hashlib.sha256(
            np.ascontiguousarray(batch.loads).tobytes()
        ).hexdigest()


class TestEngineIdentityRegressions:
    def test_telemetry_sample_count_is_engine_independent(self):
        # Batched replays chunk long place-runs at the telemetry cadence, so
        # the summary's telemetry_samples matches the per-event path even
        # when a run spans many sample intervals.
        from repro.online import LoadTelemetry, run_events

        events = generate_events("uniform", 10_000, seed=1)
        results = {}
        for engine in ("scalar", "auto"):
            spec = SchemeSpec(
                scheme="kd_choice",
                params={"n_bins": 10_000, "k": 4, "d": 8, "n_balls": 10_000},
                seed=0,
                engine=engine,
            )
            results[engine] = run_events(
                spec, events, telemetry=LoadTelemetry(sample_every=4096)
            )
        assert results["scalar"].stats == results["auto"].stats
        assert results["scalar"].stats["telemetry_samples"] == 2

    def test_stale_churn_workload_streams_and_replays(self, tmp_path):
        # A churned item may still be pending in the current stale epoch;
        # its removal must cancel the pending placement, not abort the run.
        spec = SchemeSpec(
            scheme="stale_kd_choice",
            params={"n_bins": 64, "k": 2, "d": 4, "stale_rounds": 8},
            seed=3,
        )
        path = tmp_path / "stale.jsonl"
        live = stream_workload(
            spec, items=64, workload_seed=1, record=path,
            workload_params={"churn": 0.5},
        )
        assert live.removes > 0
        for engine in ("scalar", "auto"):
            assert replay_trace(path, engine=engine).stats == live.stats

    def test_churn_free_replay_snapshots_are_engine_independent(self, tmp_path):
        # A churn-free replay must not register item ids on the scalar path
        # (no event will ever look one up): snapshots would otherwise carry
        # an O(n) item map on one engine and none on the other.
        path = tmp_path / "t.jsonl"
        record_workload(path, SPEC, items=64, workload_seed=2)
        snapshots = {}
        for engine in ("scalar", "auto"):
            directory = tmp_path / f"snaps-{engine}"
            replay_trace(
                path, engine=engine, snapshot_every=32, snapshot_dir=directory
            )
            with open(directory / "snapshot-00000032.json") as handle:
                snapshots[engine] = json.load(handle)
        assert snapshots["scalar"]["items"] == []
        assert snapshots["scalar"]["items"] == snapshots["auto"]["items"]

    def test_explicit_zero_n_balls_means_an_empty_stream(self, tmp_path):
        spec = SchemeSpec(
            scheme="single_choice", params={"n_bins": 8, "n_balls": 0}, seed=0
        )
        path = tmp_path / "empty.jsonl"
        summary = stream_workload(spec, record=path)
        assert summary.events == 0 and summary.stats["placed"] == 0
        assert replay_trace(path).stats["placed"] == 0
