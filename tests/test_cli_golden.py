"""Golden-file CLI tests: both engines must emit byte-identical output.

The golden files under ``tests/data/golden/`` were generated with the
scalar reference engine at pinned seeds.  Every test runs the CLI in-process
and compares stdout byte for byte:

* ``--engine scalar`` must match the stored golden exactly (no drift in the
  scalar reference or the table formatting), and
* ``--engine vectorized`` must match the same bytes (the engines are
  seed-for-seed identical) — modulo the one header token that echoes the
  requested engine name back.

Regenerate a golden (only after an *intentional* output change) with e.g.::

    PYTHONPATH=src python -m repro table1 --small --engine scalar \
        > tests/data/golden/table1_small.txt
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"

TABLE1_ARGS = ["table1", "--small"]
SIMULATE_KD_ARGS = [
    "simulate", "--scheme", "kd_choice",
    "--param", "n_bins=2048", "--param", "k=4", "--param", "d=8",
    "--trials", "3", "--seed", "7",
]
SIMULATE_WEIGHTED_ARGS = [
    "simulate", "--scheme", "weighted_kd_choice",
    "--param", "n_bins=1024", "--param", "k=4", "--param", "d=8",
    "--param", "weights=exponential", "--trials", "2", "--seed", "3",
]
CLUSTER_ARGS = [
    "cluster", "--workers", "32", "--trace-jobs", "60", "--tasks-per-job", "4",
    "--trials", "2", "--seed", "7",
]
STORAGE_ARGS = [
    "storage", "--servers", "64", "--files", "200", "--trials", "2",
    "--seed", "7",
]


def run_cli(capsys, argv) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


def golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


class TestTable1Golden:
    @pytest.mark.parametrize("engine", ["scalar", "vectorized"])
    def test_small_grid_matches_golden(self, capsys, engine):
        output = run_cli(capsys, TABLE1_ARGS + ["--engine", engine])
        assert output == golden("table1_small.txt")

    def test_auto_engine_matches_golden(self, capsys):
        # "auto" resolves to a batch engine for kd_choice (compiled where
        # the C backend builds, else vectorized); the output must not
        # depend on that choice.
        output = run_cli(capsys, TABLE1_ARGS)
        assert output == golden("table1_small.txt")


class TestSimulateGolden:
    @pytest.mark.parametrize(
        "args,golden_name",
        [
            (SIMULATE_KD_ARGS, "simulate_kd_choice.txt"),
            (SIMULATE_WEIGHTED_ARGS, "simulate_weighted.txt"),
        ],
        ids=["kd_choice", "weighted"],
    )
    def test_scalar_engine_matches_golden(self, capsys, args, golden_name):
        output = run_cli(capsys, args + ["--engine", "scalar"])
        assert output == golden(golden_name)

    @pytest.mark.parametrize(
        "args,golden_name",
        [
            (SIMULATE_KD_ARGS, "simulate_kd_choice.txt"),
            (SIMULATE_WEIGHTED_ARGS, "simulate_weighted.txt"),
        ],
        ids=["kd_choice", "weighted"],
    )
    def test_vectorized_engine_matches_golden_bytes(self, capsys, args, golden_name):
        # The spec header echoes the *requested* engine name; normalize that
        # one token, then require byte equality for everything else (all the
        # numbers, labels and ordering).
        output = run_cli(capsys, args + ["--engine", "vectorized"])
        normalized = output.replace("(engine=vectorized,", "(engine=scalar,", 1)
        assert normalized == golden(golden_name)


class TestSubstrateGolden:
    """The substrate subcommands under both engines, against stored goldens.

    The fast event core / fast storage core are seed-for-seed identical to
    the reference simulators, so ``--engine vectorized`` must reproduce the
    scalar golden byte for byte (modulo the echoed engine token).
    """

    @pytest.mark.parametrize(
        "args,golden_name",
        [(CLUSTER_ARGS, "cluster_run.txt"), (STORAGE_ARGS, "storage_run.txt")],
        ids=["cluster", "storage"],
    )
    def test_scalar_engine_matches_golden(self, capsys, args, golden_name):
        output = run_cli(capsys, args + ["--engine", "scalar"])
        assert output == golden(golden_name)

    @pytest.mark.parametrize(
        "args,golden_name",
        [(CLUSTER_ARGS, "cluster_run.txt"), (STORAGE_ARGS, "storage_run.txt")],
        ids=["cluster", "storage"],
    )
    @pytest.mark.parametrize("engine", ["vectorized", "auto"])
    def test_fast_engines_match_golden_bytes(self, capsys, args, golden_name, engine):
        output = run_cli(capsys, args + ["--engine", engine])
        normalized = output.replace(f"(engine={engine},", "(engine=scalar,", 1)
        assert normalized == golden(golden_name)

    @pytest.mark.parametrize(
        "args,golden_name",
        [(CLUSTER_ARGS, "cluster_run.txt"), (STORAGE_ARGS, "storage_run.txt")],
        ids=["cluster", "storage"],
    )
    def test_parallel_trials_match_golden_bytes(self, capsys, args, golden_name):
        output = run_cli(capsys, args + ["--engine", "scalar", "--jobs", "2"])
        assert output == golden(golden_name)

    @pytest.mark.parametrize(
        "args,golden_name",
        [(CLUSTER_ARGS, "cluster_run.txt"), (STORAGE_ARGS, "storage_run.txt")],
        ids=["cluster", "storage"],
    )
    def test_warm_cache_matches_golden_bytes(self, capsys, tmp_path, args, golden_name):
        argv = args + ["--engine", "scalar", "--cache-dir", str(tmp_path)]
        cold = run_cli(capsys, argv)
        warm = run_cli(capsys, argv)
        assert "0 hits, 2 misses" in cold
        assert "2 hits, 0 misses" in warm

        def strip_cache_line(text: str) -> str:
            return "".join(
                line for line in text.splitlines(keepends=True)
                if not line.startswith("cache:")
            )

        assert strip_cache_line(cold) == strip_cache_line(warm) == golden(golden_name)


class TestReplayGolden:
    """``repro replay`` on the checked-in trace, against the stored golden.

    The trace (``stream_small.jsonl``) was recorded with ``repro stream``
    at pinned seeds (mmpp arrivals, 15% churn); its replay summary must stay
    byte-stable on the scalar path and byte-identical across engines (modulo
    the echoed engine token).
    """

    TRACE = str(GOLDEN_DIR / "stream_small.jsonl")

    def test_scalar_replay_matches_golden(self, capsys):
        output = run_cli(capsys, ["replay", "--trace", self.TRACE,
                                  "--engine", "scalar"])
        assert output == golden("replay_stream.txt")

    @pytest.mark.parametrize("engine", ["vectorized", "auto"])
    def test_fast_engines_match_golden_bytes(self, capsys, engine):
        output = run_cli(capsys, ["replay", "--trace", self.TRACE,
                                  "--engine", engine])
        normalized = output.replace(f"(engine={engine},", "(engine=scalar,", 1)
        assert normalized == golden("replay_stream.txt")

    def test_rerecord_is_byte_identical(self, capsys, tmp_path):
        out_path = tmp_path / "rerecorded.jsonl"
        run_cli(capsys, ["replay", "--trace", self.TRACE,
                         "--record-out", str(out_path)])
        assert out_path.read_bytes() == Path(self.TRACE).read_bytes()


class TestEngineNeutralRecipes:
    def test_regimes_output_identical_across_engines(self, capsys):
        # A cheap regimes run: the whole table must be engine-independent.
        args = ["regimes", "--trials", "2"]
        scalar = run_cli(capsys, args + ["--engine", "scalar"])
        vectorized = run_cli(capsys, args + ["--engine", "vectorized"])
        assert scalar == vectorized

    def test_tradeoff_output_identical_across_engines(self, capsys):
        args = ["tradeoff", "--n", "1024", "--trials", "2"]
        scalar = run_cli(capsys, args + ["--engine", "scalar"])
        vectorized = run_cli(capsys, args + ["--engine", "vectorized"])
        assert scalar == vectorized


class TestSchemesJsonGolden:
    """The machine-readable registry dump must stay byte-stable.

    Regenerate (only after intentionally changing the registry) with::

        PYTHONPATH=src python -m repro schemes --json \
            > tests/data/golden/schemes.json
    """

    def test_registry_dump_matches_golden(self, capsys):
        output = run_cli(capsys, ["schemes", "--json"])
        assert output == golden("schemes.json")

    def test_dump_is_valid_json_with_support_reasons(self, capsys):
        import json

        dump = json.loads(run_cli(capsys, ["schemes", "--json"]))
        assert dump["format"] == "repro-scheme-registry"
        assert dump["version"] == 1
        assert dump["count"] == len(dump["schemes"]) > 0
        by_name = {entry["name"]: entry for entry in dump["schemes"]}
        kd = by_name["kd_choice"]
        assert kd["vectorized"] and kd["vectorized_unsupported_reason"] is None
        assert kd["online"] and kd["online_unsupported_reason"] is None
        for entry in dump["schemes"]:
            # The dichotomy: support flag XOR a human-readable reason.
            assert entry["vectorized"] == (
                entry["vectorized_unsupported_reason"] is None
            )
            assert entry["online"] == (
                entry["online_unsupported_reason"] is None
            )


class TestWorkloadsJsonGolden:
    """The machine-readable workload-registry dump must stay byte-stable.

    Regenerate (only after intentionally changing the scenario library)
    with::

        PYTHONPATH=src python -m repro workloads --json \
            > tests/data/golden/workloads.json
    """

    def test_registry_dump_matches_golden(self, capsys):
        output = run_cli(capsys, ["workloads", "--json"])
        assert output == golden("workloads.json")

    def test_dump_is_valid_json_with_hook_flags(self, capsys):
        import json

        dump = json.loads(run_cli(capsys, ["workloads", "--json"]))
        assert dump["format"] == "repro-workload-registry"
        assert dump["version"] == 1
        workloads = dump["workloads"]
        assert set(workloads) >= {
            "uniform", "zipf_items", "adversarial_burst", "diurnal",
            "hetero_bins", "multi_tenant",
        }
        assert workloads["hetero_bins"]["binds_spec_params"]
        assert workloads["multi_tenant"]["tenant_labels"]
        assert workloads["uniform"]["substrate_arrivals"]
        for entry in workloads.values():
            assert isinstance(entry["params"], dict)
            assert entry["summary"]

    def test_table_lists_every_registered_workload(self, capsys):
        from repro.workloads import available_workloads

        output = run_cli(capsys, ["workloads"])
        for name in available_workloads():
            assert name in output


class TestTopologyJsonGolden:
    """The machine-readable topology-layout dump must stay byte-stable.

    Regenerate (only after intentionally changing the layout registry)
    with::

        PYTHONPATH=src python -m repro topology --json \
            > tests/data/golden/topology.json
    """

    def test_layout_dump_matches_golden(self, capsys):
        output = run_cli(capsys, ["topology", "--json"])
        assert output == golden("topology.json")

    def test_dump_is_valid_json_with_every_layout(self, capsys):
        import json

        from repro.topology import TOPOLOGY_LAYOUTS

        dump = json.loads(run_cli(capsys, ["topology", "--json"]))
        assert dump["format"] == "repro-topology-registry"
        assert dump["version"] == 1
        assert dump["count"] == len(dump["layouts"]) == len(TOPOLOGY_LAYOUTS)
        for name, entry in dump["layouts"].items():
            assert entry["name"] == name
            assert entry["zones"] >= 1 and entry["racks_per_zone"] >= 1
            assert set(entry["probe_costs"]) == {"rack", "zone", "cross"}

    def test_table_lists_every_registered_layout(self, capsys):
        from repro.topology import TOPOLOGY_LAYOUTS

        output = run_cli(capsys, ["topology"])
        for name in TOPOLOGY_LAYOUTS:
            assert name in output

    def test_validate_round_trips_a_saved_topology(self, capsys, tmp_path):
        from repro.topology import Topology, save_topology

        path = tmp_path / "topo.json"
        save_topology(path, Topology.grid(64, 2, 2))
        output = run_cli(capsys, ["topology", "--validate", str(path)])
        assert "valid" in output and "2 zones" in output

    def test_validate_rejects_a_corrupt_topology(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "repro-topology", "version": 1}')
        with pytest.raises(SystemExit, match="invalid topology"):
            main(["topology", "--validate", str(path)])
