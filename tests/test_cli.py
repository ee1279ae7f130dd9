"""Unit tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.trials == 3

    def test_table1_custom_rows(self):
        args = build_parser().parse_args(["table1", "--k", "1", "2", "--d", "3", "5"])
        assert args.k == [1, 2]
        assert args.d == [3, 5]

    def test_every_command_registered(self):
        parser = build_parser()
        for command in [
            "table1", "profile", "regimes", "heavy", "tradeoff",
            "scheduling", "cluster", "storage", "majorization", "ablation",
            "weighted", "staleness", "churn", "open-question", "exact",
        ]:
            args = parser.parse_args([command] if command != "table1" else ["table1"])
            assert args.command == command or command == "table1"

    def test_retired_bench_command_is_an_invalid_choice(self, capsys):
        # Cross-run throughput comparison lives in perfbench/run.py --compare.
        with pytest.raises(SystemExit) as excinfo:
            main(["bench", "--compare", "a.json", "b.json"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestMainCommands:
    def test_table1_small(self, capsys):
        exit_code = main(
            ["table1", "--n", "256", "--trials", "1", "--k", "1", "--d", "1", "2"]
        )
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "k = 1" in output

    def test_profile(self, capsys):
        assert main(["profile", "--n", "1024"]) == 0
        output = capsys.readouterr().out
        assert "Figure 1 decomposition" in output

    def test_heavy(self, capsys):
        assert main(["heavy", "--n", "256", "--trials", "1"]) == 0
        assert "mean_gap" in capsys.readouterr().out

    def test_tradeoff(self, capsys):
        assert main(["tradeoff", "--n", "512", "--trials", "1"]) == 0
        assert "single-choice" in capsys.readouterr().out

    def test_scheduling(self, capsys):
        assert main(["scheduling", "--workers", "8", "--jobs", "20"]) == 0
        assert "scheduler" in capsys.readouterr().out

    def test_storage_spec_run(self, capsys):
        assert main([
            "storage", "--servers", "32", "--files", "100", "--trials", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "storage_placement" in output
        assert "mean_lookup_cost_mean" in output

    def test_storage_compare(self, capsys):
        assert main(["storage", "--servers", "32", "--files", "100", "--compare"]) == 0
        assert "policy" in capsys.readouterr().out

    def test_cluster_spec_run(self, capsys):
        assert main([
            "cluster", "--workers", "16", "--trace-jobs", "30", "--trials", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "cluster_scheduling" in output
        assert "p99_response_mean" in output

    def test_cluster_scenario_flags(self, capsys):
        assert main([
            "cluster", "--workers", "16", "--trace-jobs", "30", "--trials", "1",
            "--distribution", "pareto", "--arrival-process", "mmpp",
            "--speed-spread", "0.3",
        ]) == 0
        assert "mean_response_mean" in capsys.readouterr().out

    def test_storage_failure_scenario(self, capsys):
        assert main([
            "storage", "--servers", "32", "--files", "100", "--trials", "1",
            "--fail-fraction", "0.1", "--rebuild",
        ]) == 0
        assert "availability_mean" in capsys.readouterr().out

    def test_storage_forced_vectorized_failure_scenario_is_clean_error(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "storage", "--servers", "32", "--files", "100",
                "--fail-fraction", "0.1", "--engine", "vectorized",
            ])

    def test_majorization(self, capsys):
        assert main(["majorization", "--n", "256", "--trials", "3"]) == 0
        assert "claim" in capsys.readouterr().out

    def test_ablation(self, capsys):
        assert main(["ablation", "--n", "256", "--trials", "1"]) == 0
        assert "strict_mean" in capsys.readouterr().out

    def test_weighted(self, capsys):
        assert main(["weighted", "--n", "256", "--trials", "1"]) == 0
        assert "mean_weighted_gap" in capsys.readouterr().out

    def test_staleness(self, capsys):
        assert main(["staleness", "--n", "256", "--trials", "1"]) == 0
        assert "stale_rounds" in capsys.readouterr().out

    def test_churn(self, capsys):
        assert main(["churn", "--n", "64", "--rounds", "64"]) == 0
        assert "steady_gap" in capsys.readouterr().out

    def test_open_question(self, capsys):
        assert main(["open-question", "--n", "256", "--trials", "1"]) == 0
        assert "mean_gap" in capsys.readouterr().out

    def test_exact(self, capsys):
        assert main(["exact", "--trials", "300"]) == 0
        assert "total_variation" in capsys.readouterr().out


class TestParamParsing:
    """--param KEY=VALUE must fail cleanly and support literals/floats/bools."""

    def _parse(self, *tokens):
        argv = ["simulate", "--scheme", "kd_choice"]
        for token in tokens:
            argv += ["--param", token]
        return dict(build_parser().parse_args(argv).param)

    def test_int_float_bool_and_string_values(self):
        params = self._parse(
            "n_bins=4096", "beta=0.5", "flag=true", "off=False", "dist=pareto"
        )
        assert params == {
            "n_bins": 4096, "beta": 0.5, "flag": True, "off": False,
            "dist": "pareto",
        }
        assert isinstance(params["beta"], float)

    def test_none_and_list_values(self):
        params = self._parse("n_balls=none", "weights=[1, 2, 3]")
        assert params["n_balls"] is None
        assert params["weights"] == [1, 2, 3]

    @pytest.mark.parametrize("token", ["noequals", "=3", "key=", "k=[1,"])
    def test_malformed_token_is_a_clean_argparse_error(self, token, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(
                ["simulate", "--scheme", "kd_choice", "--param", token]
            )
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "--param" in err
        # The offending token is named in the message.
        assert token.partition("=")[0] in err or token in err


class TestExecutorAndCacheFlags:
    def test_simulate_accepts_jobs_flag(self, capsys):
        assert main([
            "simulate", "--scheme", "kd_choice",
            "--param", "n_bins=128", "--param", "k=1", "--param", "d=2",
            "--trials", "2", "--jobs", "2",
        ]) == 0
        assert "max_load_mean" in capsys.readouterr().out

    def test_table1_cache_dir_reports_hits_on_second_run(self, tmp_path, capsys):
        argv = [
            "table1", "--n", "64", "--trials", "2",
            "--k", "1", "--d", "2", "4", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 hits, 4 misses" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "4 hits, 0 misses" in second
        # The grids themselves are identical.
        assert first.splitlines()[:4] == second.splitlines()[:4]

    def test_simulate_cache_dir_round_trip(self, tmp_path, capsys):
        argv = [
            "simulate", "--scheme", "kd_choice",
            "--param", "n_bins=128", "--param", "k=1", "--param", "d=2",
            "--trials", "2", "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "2 misses" in capsys.readouterr().out
        assert main(argv) == 0
        assert "2 hits, 0 misses" in capsys.readouterr().out


class TestStreamReplayCommands:
    def test_stream_prints_summary(self, capsys):
        exit_code = main(
            ["stream", "--scheme", "kd_choice", "--param", "n_bins=64",
             "--param", "k=2", "--param", "d=4", "--items", "64", "--seed", "7"]
        )
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "placed: 64" in out and "loads_sha256:" in out

    def test_stream_record_then_replay_round_trips(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(
            ["stream", "--scheme", "kd_choice", "--param", "n_bins=64",
             "--param", "k=2", "--param", "d=4", "--items", "64", "--seed", "7",
             "--workload", "uniform", "--workload-param", "churn=0.2",
             "--workload-seed", "3", "--record", str(trace)]
        )
        streamed = capsys.readouterr().out
        assert main(["replay", "--trace", str(trace)]) == 0
        replayed = capsys.readouterr().out
        # Identical summaries modulo the trailing "recorded:" line.
        assert replayed.rstrip("\n") in streamed

    @pytest.mark.parametrize("command", [
        ["stream", "--scheme", "kd_choice", "--param", "n_bins=64"],
        ["loadgen", "--port", "1"],
    ])
    def test_retired_churn_flag_is_unrecognized(self, capsys, command):
        # The workload is spelled only as --workload/--workload-param.
        with pytest.raises(SystemExit) as excinfo:
            main(command + ["--churn", "0.1"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --churn 0.1" in capsys.readouterr().err

    def test_replay_missing_trace_is_clean_error(self):
        with pytest.raises(SystemExit, match="not found"):
            main(["replay", "--trace", "/nonexistent/trace.jsonl"])

    def test_stream_unknown_scheme_is_clean_error(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["stream", "--scheme", "nope", "--param", "n_bins=8"])

    def test_stream_offline_scheme_is_clean_error(self):
        with pytest.raises(SystemExit, match="no online"):
            main(
                ["stream", "--scheme", "churn_kd_choice",
                 "--param", "n_bins=8", "--param", "k=1", "--param", "d=2",
                 "--param", "rounds=4", "--items", "8"]
            )

    def test_replay_snapshots_written(self, capsys, tmp_path):
        trace = tmp_path / "run.jsonl"
        main(
            ["stream", "--scheme", "two_choice", "--param", "n_bins=32",
             "--items", "32", "--seed", "1", "--record", str(trace)]
        )
        capsys.readouterr()
        main(
            ["replay", "--trace", str(trace), "--snapshot-every", "8",
             "--snapshot-dir", str(tmp_path / "snaps")]
        )
        out = capsys.readouterr().out
        assert "snapshots: 4" in out
        assert len(list((tmp_path / "snaps").glob("snapshot-*.json"))) == 4


class TestCachePruneFlag:
    def test_simulate_cache_max_entries_prints_prune_line(self, capsys, tmp_path):
        argv = [
            "simulate", "--scheme", "kd_choice", "--param", "n_bins=64",
            "--param", "k=2", "--param", "d=4", "--trials", "5",
            "--cache-dir", str(tmp_path), "--cache-max-entries", "2",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache: pruned 3 entries, kept 2" in out

    def test_negative_limit_is_clean_error(self, tmp_path):
        argv = [
            "simulate", "--scheme", "kd_choice", "--param", "n_bins=64",
            "--param", "k=2", "--param", "d=4", "--trials", "2",
            "--cache-dir", str(tmp_path), "--cache-max-entries", "-1",
        ]
        with pytest.raises(SystemExit, match="non-negative"):
            main(argv)


class TestConsoleEntryPoints:
    def test_pyproject_declares_repro_entry(self):
        from pathlib import Path

        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        text = pyproject.read_text(encoding="utf-8")
        assert 'repro = "repro.__main__:main"' in text
        assert 'repro-kd = "repro.cli:main"' in text

    def test_entry_point_target_resolves_and_serves_help(self, capsys):
        # The same smoke `repro --help` performs on an installed package,
        # without requiring the install: resolve the declared target and run.
        from importlib import import_module

        target = import_module("repro.__main__")
        entry = getattr(target, "main")
        with pytest.raises(SystemExit) as excinfo:
            entry(["--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "stream" in out and "replay" in out

    def test_installed_console_script_if_present(self):
        # When the package is pip-installed (CI does this), the real console
        # script must work end to end; skip gracefully in source checkouts.
        import shutil
        import subprocess

        executable = shutil.which("repro")
        if executable is None:
            pytest.skip("repro console script not installed")
        completed = subprocess.run(
            [executable, "--help"], capture_output=True, text=True
        )
        assert completed.returncode == 0
        assert "replay" in completed.stdout

    def test_cache_max_entries_without_cache_dir_is_clean_error(self, capsys):
        argv = [
            "simulate", "--scheme", "kd_choice", "--param", "n_bins=64",
            "--param", "k=2", "--param", "d=4", "--trials", "2",
            "--cache-max-entries", "2",
        ]
        # Rejected at argument-parse time, before any simulation work runs.
        with pytest.raises(SystemExit):
            main(argv)
        assert "requires --cache-dir" in capsys.readouterr().err


class TestServeLoadgenCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--scheme", "kd_choice"])
        assert args.shards == 4
        assert args.router == "two_choice"
        assert args.mode == "process"
        assert args.port == 0

    def test_retired_max_delay_flag_is_unrecognized(self, capsys):
        # Serve windows are self-clocked; there is no window timer to set.
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--scheme", "kd_choice", "--max-delay-ms", "2"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --max-delay-ms 2" in capsys.readouterr().err

    def test_serve_requires_scheme_xor_restore(self, capsys):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve"])
        with pytest.raises(SystemExit, match="exactly one"):
            main(["serve", "--scheme", "kd_choice", "--restore", "x.json"])

    def test_serve_unknown_router_is_clean_error(self):
        with pytest.raises(SystemExit, match="two_choice"):
            main([
                "serve", "--scheme", "kd_choice", "--param", "n_bins=64",
                "--param", "k=2", "--param", "d=4", "--shards", "1",
                "--mode", "thread", "--router", "bogus",
            ])

    def test_serve_unservable_scheme_is_clean_error(self):
        # A substrate scheme has no n_balls/n_bins, so no pool capacity.
        with pytest.raises(SystemExit, match="capacity"):
            main([
                "serve", "--scheme", "cluster_scheduling", "--shards", "1",
                "--mode", "thread",
            ])

    def test_serve_missing_manifest_is_clean_error(self, tmp_path):
        with pytest.raises((SystemExit, FileNotFoundError)):
            main(["serve", "--restore", str(tmp_path / "absent.json")])

    def test_loadgen_refused_connection_is_clean_error(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # nothing listens here any more
        with pytest.raises(SystemExit, match="no server listening"):
            main(["loadgen", "--port", str(port), "--items", "1"])
