"""The cross-run comparator: ``perfbench/run.py --compare OLD NEW``.

It is the repository's only tool for comparing two benchmark runs.  It
must refuse records that are not like for like (different workload, trace
mode, environment or sizes) and flag exactly the metrics that worsened past
their ``BENCHMARK.json`` bound, in the direction that metric counts as
worse.  The records here are hand-written in the shape ``run.py`` writes
under ``.perfbench/results/``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

import pytest

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"


def _record(**metrics: float) -> Dict[str, object]:
    return {
        "workload": "serve_churn",
        "trace": 0,
        "seed": 1,
        "environment": {
            "compiled_backend": "available",
            "machine": "x86_64",
            "nproc": 2,
            "numpy": "2.0.0",
            "python": "3.11.0",
        },
        "sizes": {"items": 300_000, "n_bins": 4096, "shards": 2},
        "metrics": metrics,
    }


def _compare(tmp_path: Path, old: dict, new: dict) -> subprocess.CompletedProcess:
    paths = []
    for name, payload in (("old.json", old), ("new.json", new)):
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(RUN), "--compare", *paths],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )


def _line(out: str, metric: str) -> str:
    return next(line for line in out.splitlines() if line.startswith(f"{metric}:"))


class TestBounds:
    def test_identical_records_exit_zero(self, tmp_path):
        record = _record(ops_per_s=50_000.0, latency_p50_ms=1.5, peak_rss_mb=300.0)
        result = _compare(tmp_path, record, record)
        assert result.returncode == 0, result.stderr
        for metric in ("ops_per_s", "latency_p50_ms", "peak_rss_mb"):
            assert "(+0.0%)" in _line(result.stdout, metric)
        assert "REGRESSION" not in result.stdout

    def test_drop_within_bound_exits_zero(self, tmp_path):
        # ops_per_s has a 25% bound: a 10% drop is within it.
        result = _compare(
            tmp_path, _record(ops_per_s=50_000.0), _record(ops_per_s=45_000.0)
        )
        assert result.returncode == 0, result.stderr
        line = _line(result.stdout, "ops_per_s")
        assert "(-10.0%)" in line and "REGRESSION" not in line

    def test_higher_is_better_drop_past_bound_is_a_regression(self, tmp_path):
        result = _compare(
            tmp_path, _record(ops_per_s=50_000.0), _record(ops_per_s=25_000.0)
        )
        assert result.returncode == 1
        assert "REGRESSION" in _line(result.stdout, "ops_per_s")

    def test_higher_is_better_rise_is_not_a_regression(self, tmp_path):
        result = _compare(
            tmp_path, _record(balls_per_s=1e6), _record(balls_per_s=3e6)
        )
        assert result.returncode == 0, result.stderr
        assert "REGRESSION" not in _line(result.stdout, "balls_per_s")

    def test_lower_is_better_rise_past_bound_is_a_regression(self, tmp_path):
        result = _compare(
            tmp_path, _record(latency_p50_ms=1.0), _record(latency_p50_ms=2.0)
        )
        assert result.returncode == 1
        assert "REGRESSION" in _line(result.stdout, "latency_p50_ms")

    def test_lower_is_better_fall_is_not_a_regression(self, tmp_path):
        result = _compare(
            tmp_path, _record(latency_p50_ms=2.0), _record(latency_p50_ms=0.5)
        )
        assert result.returncode == 0, result.stderr
        assert "REGRESSION" not in _line(result.stdout, "latency_p50_ms")

    def test_each_metric_uses_its_own_bound(self, tmp_path):
        # A 20% rise is inside setup_s's 25% bound but past peak_rss_mb's 10%.
        old = _record(setup_s=1.0, peak_rss_mb=100.0)
        new = _record(setup_s=1.2, peak_rss_mb=120.0)
        result = _compare(tmp_path, old, new)
        assert result.returncode == 1
        assert "REGRESSION" not in _line(result.stdout, "setup_s")
        assert "REGRESSION" in _line(result.stdout, "peak_rss_mb")

    def test_regressions_and_passes_are_all_reported(self, tmp_path):
        old = _record(ops_per_s=50_000.0, latency_p50_ms=1.0, peak_rss_mb=100.0)
        new = _record(ops_per_s=20_000.0, latency_p50_ms=1.1, peak_rss_mb=200.0)
        result = _compare(tmp_path, old, new)
        assert result.returncode == 1
        flagged = [
            line.split(":")[0]
            for line in result.stdout.splitlines() if "REGRESSION" in line
        ]
        assert flagged == ["ops_per_s", "peak_rss_mb"]
        assert "latency_p50_ms:" in result.stdout

    def test_per_layer_metrics_are_reported_but_never_gate(self, tmp_path):
        # Per-layer metrics carry no bound in BENCHMARK.json.
        old = _record(**{"server.cpu_us_per_op": 10.0})
        new = _record(**{"server.cpu_us_per_op": 100.0})
        result = _compare(tmp_path, old, new)
        assert result.returncode == 0, result.stderr
        line = _line(result.stdout, "server.cpu_us_per_op")
        assert "(+900.0%)" in line and "REGRESSION" not in line

    def test_zero_or_missing_baseline_is_reported_as_no_baseline(self, tmp_path):
        # A layer the old run did not exercise reads 0: there is nothing to
        # divide by, and the metric is named rather than scored.
        old = _record(**{"pool.remove_us": 0.0})
        new = _record(**{"pool.remove_us": 5.0, "ops_per_s": 40_000.0})
        result = _compare(tmp_path, old, new)
        assert result.returncode == 0, result.stderr
        assert "(no baseline)" in _line(result.stdout, "pool.remove_us")
        assert "(no baseline)" in _line(result.stdout, "ops_per_s")


class TestRefusals:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("workload", "sim_grid"),
            ("trace", 1),
            ("environment", {"nproc": 8}),
            ("sizes", {"items": 100_000, "n_bins": 4096, "shards": 2}),
        ],
    )
    def test_records_that_differ_are_refused_by_name(self, tmp_path, key, value):
        old = _record(ops_per_s=50_000.0)
        new = _record(ops_per_s=5_000.0)
        new[key] = value
        result = _compare(tmp_path, old, new)
        assert result.returncode == 2
        assert f"refused: the records differ in {key!r}" in result.stderr
        assert "REGRESSION" not in result.stdout

    def test_differing_seeds_are_still_compared(self, tmp_path):
        # Seeds vary run to run by design; only the setup must match.
        old = _record(ops_per_s=50_000.0)
        new = _record(ops_per_s=49_000.0)
        new["seed"] = 2
        result = _compare(tmp_path, old, new)
        assert result.returncode == 0, result.stderr
        assert "ops_per_s:" in result.stdout
