"""CLI regression gates: ``schemes --check`` and ``bench --compare``.

Both commands exist so CI can fail fast with an actionable message: the
parity lint names the scheme or module that drifted from the kernel table,
and the bench comparator names the throughput series that regressed beyond
tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main


def _write(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def _snapshot(batch: int, stream: int = 50_000, cpus: int = 2) -> dict:
    return {
        "cpus": cpus,
        "series": {
            "kd_choice": {
                "batch_items_per_sec": batch,
                "stream_items_per_sec": stream,
            }
        },
    }


class TestSchemesCheck:
    def test_clean_registry_exits_zero(self, capsys):
        assert main(["schemes", "--check"]) == 0
        out = capsys.readouterr().out
        assert "parity OK" in out

    def test_drift_names_the_scheme_and_exits_nonzero(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.api.registry import REGISTRY

        info = REGISTRY.get("kd_choice")
        monkeypatch.setitem(
            REGISTRY._schemes, "kd_choice", replace(info, kernel=None)
        )
        with pytest.raises(SystemExit, match="parity violation"):
            main(["schemes", "--check"])
        out = capsys.readouterr().out
        assert "kd_choice" in out and "api/schemes.py" in out


class TestBenchCompare:
    def test_within_tolerance_exits_zero(self, capsys, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", _snapshot(950_000))
        assert main(["bench", "--compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "within 10%" in out

    def test_regression_names_the_series_and_exits_nonzero(self, capsys, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", _snapshot(500_000))
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", old, new])
        assert "batch_items_per_sec" in str(excinfo.value)
        out = capsys.readouterr().out
        assert "REGRESSION" in out

    def test_tolerance_flag_widens_the_band(self, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", _snapshot(700_000))
        assert main(
            ["bench", "--compare", old, new, "--tolerance", "0.5"]
        ) == 0

    def test_cpu_mismatch_warns_and_skips(self, capsys, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000, cpus=1))
        new = _write(tmp_path / "new.json", _snapshot(100_000, cpus=8))
        assert main(["bench", "--compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "different machines" in out

    def test_unreadable_snapshot_is_a_clean_error(self, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        with pytest.raises(SystemExit, match="cannot read"):
            main(["bench", "--compare", old, str(tmp_path / "missing.json")])

    def test_disjoint_snapshots_are_a_clean_error(self, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", {"cpus": 2, "other": 1})
        with pytest.raises(SystemExit, match="nothing to compare"):
            main(["bench", "--compare", old, new])

    def test_series_present_in_one_snapshot_only_is_reported(self, capsys, tmp_path):
        extra = _snapshot(950_000)
        extra["single_shard_items_per_sec"] = 900_000
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", extra)
        assert main(["bench", "--compare", old, new]) == 0
        out = capsys.readouterr().out
        assert "single_shard_items_per_sec" in out
        assert "one snapshot only" in out

    def test_zero_baseline_is_an_anomaly_not_a_pass(self, capsys, tmp_path):
        # The historical bug: a 0/s baseline divided to +0.0% and sailed
        # through the gate; a zeroed (crashed or fabricated) snapshot must
        # fail loudly instead.
        old = _write(tmp_path / "old.json", _snapshot(0))
        new = _write(tmp_path / "new.json", _snapshot(950_000))
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", old, new])
        assert "batch_items_per_sec" in str(excinfo.value)
        assert "unusable rate" in str(excinfo.value)
        out = capsys.readouterr().out
        batch_line = next(
            line for line in out.splitlines() if "batch_items_per_sec" in line
        )
        assert "ANOMALY" in batch_line
        assert "+0.0%" not in batch_line

    def test_nan_rate_is_an_anomaly(self, capsys, tmp_path):
        # json can carry NaN (Python's encoder emits it by default); it must
        # not satisfy the "no regression" comparison by being unordered.
        broken = _snapshot(1_000_000)
        broken["series"]["kd_choice"]["batch_items_per_sec"] = float("nan")
        old = _write(tmp_path / "old.json", _snapshot(1_000_000))
        new = _write(tmp_path / "new.json", broken)
        with pytest.raises(SystemExit, match="unusable rate"):
            main(["bench", "--compare", old, new])
        assert "ANOMALY" in capsys.readouterr().out

    def test_negative_baseline_is_an_anomaly(self, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(-5))
        new = _write(tmp_path / "new.json", _snapshot(950_000))
        with pytest.raises(SystemExit, match="unusable rate"):
            main(["bench", "--compare", old, new])

    def test_tolerance_of_one_exempts_anomalies_with_warning(self, capsys, tmp_path):
        old = _write(tmp_path / "old.json", _snapshot(0))
        new = _write(tmp_path / "new.json", _snapshot(950_000))
        assert main(
            ["bench", "--compare", old, new, "--tolerance", "1.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "ANOMALY" in out and "ignored" in out

    def test_anomaly_does_not_mask_real_regressions(self, capsys, tmp_path):
        # One series anomalous, the other regressed: both must be named.
        old_payload = _snapshot(0, stream=100_000)
        new_payload = _snapshot(950_000, stream=20_000)
        old = _write(tmp_path / "old.json", old_payload)
        new = _write(tmp_path / "new.json", new_payload)
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", old, new])
        message = str(excinfo.value)
        assert "regressed" in message and "unusable rate" in message
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "ANOMALY" in out
