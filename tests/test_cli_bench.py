"""CLI regression gate: ``schemes --check``.

The command exists so CI can fail fast with an actionable message: the
lint names the scheme registered without its kernel record, or the
workload or topology surface that drifted from its registry.
Cross-run throughput comparison is ``perfbench/run.py --compare``.
"""

from __future__ import annotations

import pytest

from repro.cli import main


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
