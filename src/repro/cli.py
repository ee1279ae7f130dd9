"""Command-line interface: run any experiment recipe from the shell.

Examples
--------
::

    # A scaled-down Table 1 (rows k=1,2,4, all d columns)
    python -m repro table1 --n 12288 --trials 3 --k 1 2 4
    python -m repro table1 --small          # CI smoke run

    # The unified scheme API: list schemes, run any of them declaratively
    python -m repro schemes
    python -m repro schemes --describe kd_choice
    python -m repro simulate --scheme kd_choice \
        --param n_bins=4096 --param k=4 --param d=8 \
        --trials 3 --seed 7 --engine vectorized

    # Figures 1 and 2: sorted load profiles with proof landmarks
    python -m repro profile --n 16384

    # Theorem 1 regimes, Theorem 2 heavy case, trade-off, applications
    python -m repro regimes
    python -m repro heavy
    python -m repro tradeoff
    python -m repro scheduling
    python -m repro storage --compare
    python -m repro majorization
    python -m repro ablation

    # Spec-driven substrate runs (fast event core, scenario library,
    # parallel trials + on-disk result cache)
    python -m repro cluster --workers 256 --trace-jobs 5000 \
        --distribution pareto --arrival-process mmpp --trials 3 --jobs 4
    python -m repro storage --servers 1024 --files 100000 \
        --cache-dir .result-cache
    python -m repro storage --servers 256 --files 4096 \
        --fail-fraction 0.05 --rebuild

    # The streaming allocation service: serve a live workload (optionally
    # recording it), then replay the trace deterministically on any engine
    python -m repro stream --scheme kd_choice --param n_bins=4096 \
        --param k=4 --param d=8 --items 100000 --workload uniform \
        --workload-param arrival_process=mmpp --workload-param churn=0.1 \
        --record run.jsonl
    python -m repro replay --trace run.jsonl --engine scalar
    python -m repro replay --trace run.jsonl --snapshot-every 4096 \
        --snapshot-dir .snapshots

    # The sharded allocation service: N allocator shards behind a
    # (two-choice) router and a batching TCP frontend, plus its load
    # generator (run them in two terminals)
    python -m repro serve --scheme kd_choice --param n_bins=4096 \
        --param k=4 --param d=8 --shards 4 --port 7411
    python -m repro loadgen --port 7411 --items 100000 \
        --connections 8 --workload uniform --workload-param churn=0.1
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .api import (
    ENGINES,
    ResultStore,
    SchemeSpec,
    available_schemes,
    describe_scheme,
    registry_dump,
    simulate_trials,
)

from .workloads import (
    WorkloadError,
    available_workloads,
    bind_spec_params,
    get_workload,
    substrate_arrivals,
    workloads_dump,
)

__all__ = ["main", "build_parser"]

#: Values that should have parsed as a Python literal (numbers, quoted
#: strings, containers) but did not: anything *not* starting like a bare
#: word.  Bare words stay plain strings (e.g. distribution names).
_LITERAL_PREFIX = re.compile(r"^[\d+\-.'\"\[({]")

_BOOL_TOKENS = {"true": True, "false": False, "yes": True, "no": False}


def _parse_param_token(token: str) -> Tuple[str, object]:
    """Parse one ``--param KEY=VALUE`` token into ``(key, value)``.

    Used as an ``argparse`` type, so malformed tokens surface as clean
    ``error: argument --param: ...`` messages naming the offending token
    instead of raw tracebacks.  Values parse as Python literals (ints,
    floats, quoted strings, lists/tuples), case-insensitive booleans
    (``true``/``false``/``yes``/``no``) or ``none``; bare words fall back to
    plain strings so e.g. ``--param distribution=pareto`` works unquoted.
    """
    key, separator, raw = token.partition("=")
    key = key.strip()
    if not separator:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {token!r} (missing '=')"
        )
    if not key:
        raise argparse.ArgumentTypeError(f"empty parameter name in {token!r}")
    raw = raw.strip()
    if not raw:
        raise argparse.ArgumentTypeError(f"empty value for parameter {key!r} in {token!r}")
    lowered = raw.lower()
    if lowered in _BOOL_TOKENS:
        return key, _BOOL_TOKENS[lowered]
    if lowered in ("none", "null"):
        return key, None
    try:
        return key, ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        if _LITERAL_PREFIX.match(raw):
            raise argparse.ArgumentTypeError(
                f"cannot parse value {raw!r} in {token!r}"
            ) from None
        return key, raw  # bare word: a plain string parameter


def _add_workload_flags(parser: argparse.ArgumentParser) -> None:
    """The shared ``--workload`` flag group (stream/loadgen/cluster/simulate).

    ``--workload`` selects any registered scenario and ``--workload-param``
    configures it against the scenario's schema.  ``stream`` and
    ``loadgen`` serve the ``uniform`` scenario when no workload is named;
    ``cluster`` rejects ``--workload`` together with its own arrival flags.
    """
    parser.add_argument(
        "--workload", type=str, default=None, choices=available_workloads(),
        metavar="NAME",
        help="registered workload scenario (see `repro workloads`); stream "
        "and loadgen default to 'uniform', whose parameters set arrival "
        "stamping and churn",
    )
    parser.add_argument(
        "--workload-param", action="append", default=[], metavar="KEY=VALUE",
        type=_parse_param_token,
        help="workload parameter (repeatable), e.g. --workload-param "
        "exponent=1.2; validated against the scenario's parameter schema",
    )


def _add_topology_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--topology`` flag (simulate/stream/serve/loadgen).

    Accepts either a named layout from :data:`repro.topology.TOPOLOGY_LAYOUTS`
    (bin-count independent, bound against the spec's ``n_bins``) or a path
    to a ``repro-topology`` JSON document.
    """
    parser.add_argument(
        "--topology", type=str, default=None, metavar="NAME|FILE",
        help="rack/zone topology for zone-aware schemes: a named layout "
        "(see `repro topology`) or a topology JSON file; injected as the "
        "spec's topology parameter",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro-kd`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro-kd",
        description="Reproduce experiments from 'A Generalization of Multiple "
        "Choice Balls-into-Bins' (Park, PODC 2011).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table1 = subparsers.add_parser("table1", help="Reproduce Table 1 (max-load grid)")
    table1.add_argument("--n", type=int, default=3 * 2 ** 12, help="balls and bins")
    table1.add_argument("--trials", type=int, default=3, help="runs per cell")
    table1.add_argument("--seed", type=int, default=0)
    table1.add_argument("--k", type=int, nargs="*", default=None, help="k rows")
    table1.add_argument("--d", type=int, nargs="*", default=None, help="d columns")
    table1.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="execution engine for every cell",
    )
    table1.add_argument(
        "--small", action="store_true",
        help="tiny smoke-test grid (n=768, 2 trials, k in {1,2,4}, d in {1,2,5,9})",
    )
    table1.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan each cell's trials out over N worker processes "
        "(-1 = all CPUs); results are identical for every value",
    )
    table1.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="memoize per-trial results in DIR; rerunning against a warm "
        "cache skips the scheme runners and reports the hit count",
    )
    table1.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="after the run, evict the oldest cache entries beyond N",
    )

    schemes = subparsers.add_parser(
        "schemes", help="List (or describe) the registered simulation schemes"
    )
    schemes.add_argument(
        "--describe", type=str, default=None, metavar="SCHEME",
        help="print the parameters and engines of one scheme",
    )
    schemes.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable registry dump: every scheme with "
        "its parameters, engines, and vectorized/online support (with the "
        "reason when unsupported)",
    )
    schemes.add_argument(
        "--check", action="store_true",
        help="run the registry/kernel parity lint: every ball-stream "
        "scheme's engines must be derived from its kernel registration; "
        "exits nonzero naming the offending scheme/module on drift",
    )

    workloads_cmd = subparsers.add_parser(
        "workloads",
        help="List (or describe) the registered workload scenarios",
    )
    workloads_cmd.add_argument(
        "--describe", type=str, default=None, metavar="WORKLOAD",
        help="print the parameters and hooks of one workload",
    )
    workloads_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable workload-registry dump: every "
        "scenario with its parameter schema and surface hooks",
    )

    topology_cmd = subparsers.add_parser(
        "topology",
        help="List the named rack/zone topology layouts (or validate a "
        "topology JSON file)",
    )
    topology_cmd.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable topology-layout registry dump",
    )
    topology_cmd.add_argument(
        "--validate", type=str, default=None, metavar="FILE",
        help="validate a repro-topology JSON document (schema, cost "
        "monotonicity, zone/rack shape) and print its summary",
    )

    simulate_cmd = subparsers.add_parser(
        "simulate", help="Run any registered scheme from a declarative spec"
    )
    simulate_cmd.add_argument("--scheme", type=str, required=True)
    simulate_cmd.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        type=_parse_param_token,
        help="scheme parameter (repeatable), e.g. --param n_bins=4096; values "
        "parse as literals, booleans (true/false) or bare-word strings",
    )
    simulate_cmd.add_argument("--policy", type=str, default=None)
    simulate_cmd.add_argument("--trials", type=int, default=1)
    simulate_cmd.add_argument("--seed", type=int, default=0)
    simulate_cmd.add_argument("--engine", choices=list(ENGINES), default="auto")
    simulate_cmd.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the trials out over N worker processes (-1 = all CPUs)",
    )
    simulate_cmd.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="memoize per-trial results in DIR and report hits/misses",
    )
    simulate_cmd.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="after the run, evict the oldest cache entries beyond N",
    )
    _add_workload_flags(simulate_cmd)
    _add_topology_flag(simulate_cmd)

    stream = subparsers.add_parser(
        "stream",
        help="Serve a generated workload through the streaming allocator "
        "(repro.online), optionally recording it as a replayable trace",
    )
    stream.add_argument("--scheme", type=str, required=True)
    stream.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        type=_parse_param_token,
        help="scheme parameter (repeatable), e.g. --param n_bins=4096",
    )
    stream.add_argument("--policy", type=str, default=None)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="ingestion mode: scalar steps unit by unit, auto/vectorized "
        "ride the batch kernels (results identical)",
    )
    stream.add_argument(
        "--items", type=int, default=None, metavar="N",
        help="requests to place (default: the spec's n_balls / n_bins)",
    )
    stream.add_argument(
        "--workload-seed", type=int, default=None, metavar="SEED",
        help="seed of the workload generator (independent of the spec seed)",
    )
    stream.add_argument(
        "--record", type=str, default=None, metavar="TRACE",
        help="record the served stream as a replayable JSONL trace",
    )
    stream.add_argument(
        "--snapshot-every", type=int, default=None, metavar="EVENTS",
        help="capture an allocator snapshot every EVENTS events",
    )
    stream.add_argument(
        "--snapshot-dir", type=str, default=None, metavar="DIR",
        help="write the snapshots into DIR (JSON, one file per capture)",
    )
    stream.add_argument(
        "--telemetry-every", type=int, default=4096, metavar="EVENTS",
        help="events between live telemetry samples",
    )
    _add_workload_flags(stream)
    _add_topology_flag(stream)

    replay = subparsers.add_parser(
        "replay",
        help="Replay a recorded trace deterministically through the "
        "streaming allocator",
    )
    replay.add_argument(
        "--trace", type=str, required=True, metavar="TRACE",
        help="path to a repro-online-trace JSONL file",
    )
    replay.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="ingestion mode (results identical across engines)",
    )
    replay.add_argument(
        "--snapshot-every", type=int, default=None, metavar="EVENTS",
        help="capture an allocator snapshot every EVENTS events",
    )
    replay.add_argument(
        "--snapshot-dir", type=str, default=None, metavar="DIR",
        help="write the snapshots into DIR (JSON, one file per capture)",
    )
    replay.add_argument(
        "--record-out", type=str, default=None, metavar="TRACE",
        help="re-record the consumed stream (byte-identical round trip)",
    )
    replay.add_argument(
        "--telemetry-every", type=int, default=4096, metavar="EVENTS",
        help="events between live telemetry samples",
    )

    serve = subparsers.add_parser(
        "serve",
        help="Run the sharded allocation service: N allocator shards behind "
        "a router and a batching TCP frontend (repro.serve)",
    )
    serve.add_argument(
        "--scheme", type=str, default=None,
        help="scheme every shard runs (required unless --restore)",
    )
    serve.add_argument(
        "--param", action="append", default=[], metavar="KEY=VALUE",
        type=_parse_param_token,
        help="scheme parameter (repeatable), e.g. --param n_bins=4096",
    )
    serve.add_argument("--policy", type=str, default=None)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="shard ingestion mode (results identical across engines)",
    )
    serve.add_argument(
        "--items", type=int, default=None, metavar="N",
        help="pool capacity: total placements the service will accept "
        "(overrides the spec's n_balls)",
    )
    serve.add_argument(
        "--shards", type=int, default=4, metavar="N",
        help="number of allocator shards",
    )
    serve.add_argument(
        "--router", type=str, default="two_choice",
        help="shard-routing policy: two_choice (the paper's scheme applied "
        "to the shard load vector), topology (zone-biased probes with "
        "cross-zone spill), least_loaded, or round_robin",
    )
    serve.add_argument(
        "--router-d", type=int, default=None, metavar="D",
        help="probes per placement for the two_choice/topology routers "
        "(default 2)",
    )
    serve.add_argument(
        "--mode", choices=["process", "thread"], default="process",
        help="shard host: one process per shard (default; a shard that "
        "dies leaves the server standing, and the shards compute side by "
        "side) or thread: every shard in the server's process, run inline "
        "on its event loop (no worker, no pickling, no child processes)",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port (0 = ephemeral; the bound port is printed and can "
        "be written with --port-file)",
    )
    serve.add_argument(
        "--port-file", type=str, default=None, metavar="FILE",
        help="write the bound port to FILE once listening (atomic; for "
        "scripted startup handshakes)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=1024, metavar="N",
        help="most queued requests served as one window",
    )
    serve.add_argument(
        "--restore", type=str, default=None, metavar="MANIFEST",
        help="resume from a pool manifest written by --snapshot-on-exit "
        "or the snapshot op (mutually exclusive with --scheme)",
    )
    serve.add_argument(
        "--snapshot-on-exit", type=str, default=None, metavar="MANIFEST",
        help="write a consistent cross-shard manifest on clean shutdown",
    )
    _add_topology_flag(serve)

    loadgen_cmd = subparsers.add_parser(
        "loadgen",
        help="Drive a running allocation server with a deterministic "
        "workload; report placements/sec and latency percentiles",
    )
    loadgen_cmd.add_argument("--host", type=str, default="127.0.0.1")
    loadgen_cmd.add_argument(
        "--port", type=int, required=True,
        help="port of the running `repro serve` instance",
    )
    loadgen_cmd.add_argument(
        "--items", type=int, default=10000, metavar="N",
        help="placements to drive (plus churn removals)",
    )
    loadgen_cmd.add_argument(
        "--connections", type=int, default=4, metavar="N",
        help="concurrent pipelined connections",
    )
    loadgen_cmd.add_argument(
        "--max-in-flight", type=int, default=64, metavar="N",
        help="outstanding requests per connection",
    )
    loadgen_cmd.add_argument(
        "--seed", type=int, default=0,
        help="workload seed (fixed seed -> identical event stream)",
    )
    loadgen_cmd.add_argument(
        "--shutdown-after", action="store_true",
        help="send the shutdown op once the stream completes",
    )
    loadgen_cmd.add_argument(
        "--json", action="store_true",
        help="print the report as one JSON object instead of text",
    )
    _add_workload_flags(loadgen_cmd)
    _add_topology_flag(loadgen_cmd)

    profile = subparsers.add_parser(
        "profile", help="Figures 1 & 2: sorted load profiles with landmarks"
    )
    profile.add_argument("--n", type=int, default=3 * 2 ** 14)
    profile.add_argument("--seed", type=int, default=0)

    regimes = subparsers.add_parser("regimes", help="Theorem 1 regime scaling")
    regimes.add_argument("--trials", type=int, default=3)
    regimes.add_argument("--seed", type=int, default=0)
    regimes.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="execution engine for every configuration (results-neutral)",
    )
    regimes.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan each configuration's trials out over N worker processes",
    )

    heavy = subparsers.add_parser("heavy", help="Theorem 2 heavily loaded case")
    heavy.add_argument("--n", type=int, default=1 << 12)
    heavy.add_argument("--trials", type=int, default=3)
    heavy.add_argument("--seed", type=int, default=0)

    tradeoff = subparsers.add_parser("tradeoff", help="Max load vs message cost")
    tradeoff.add_argument("--n", type=int, default=3 * 2 ** 13)
    tradeoff.add_argument("--trials", type=int, default=3)
    tradeoff.add_argument("--seed", type=int, default=0)
    tradeoff.add_argument(
        "--engine", choices=list(ENGINES), default="auto",
        help="execution engine for every scheme spec (results-neutral)",
    )
    tradeoff.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan each scheme's trials out over N worker processes",
    )

    scheduling = subparsers.add_parser(
        "scheduling", help="Cluster-scheduling application experiment"
    )
    scheduling.add_argument("--workers", type=int, default=64)
    scheduling.add_argument("--jobs", type=int, default=400)
    scheduling.add_argument("--seed", type=int, default=0)

    cluster = subparsers.add_parser(
        "cluster",
        help="Run the cluster-scheduling substrate as a spec-driven trial "
        "fan-out (scenario library, caching, parallel trials)",
    )
    cluster.add_argument("--workers", type=int, default=64)
    cluster.add_argument(
        "--trace-jobs", type=int, default=200, metavar="J",
        help="number of jobs in the simulated trace",
    )
    cluster.add_argument("--tasks-per-job", type=int, default=4)
    cluster.add_argument("--probe-ratio", type=float, default=2.0)
    cluster.add_argument("--arrival-rate", type=float, default=8.0)
    cluster.add_argument(
        "--distribution", type=str, default="exponential",
        help="service-time distribution (exponential, uniform, constant, "
        "pareto, lognormal)",
    )
    cluster.add_argument(
        "--duration-shape", type=float, default=2.5,
        help="tail parameter for pareto (shape) / lognormal (sigma)",
    )
    cluster.add_argument(
        "--arrival-process", type=str, default="poisson",
        choices=["poisson", "mmpp"],
        help="memoryless or bursty (two-state MMPP) arrivals",
    )
    cluster.add_argument("--burstiness", type=float, default=4.0)
    cluster.add_argument(
        "--speed-spread", type=float, default=0.0,
        help="worker heterogeneity: lognormal sigma of the speed factors",
    )
    cluster.add_argument("--trials", type=int, default=3)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--engine", choices=list(ENGINES), default="auto")
    cluster.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the trials out over N worker processes (-1 = all CPUs)",
    )
    cluster.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="memoize per-trial results in DIR and report hits/misses",
    )
    cluster.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="after the run, evict the oldest cache entries beyond N",
    )
    _add_workload_flags(cluster)

    storage = subparsers.add_parser(
        "storage",
        help="Run the storage-placement substrate as a spec-driven trial "
        "fan-out (--compare prints the policy-comparison experiment instead)",
    )
    storage.add_argument("--servers", type=int, default=1024)
    storage.add_argument("--files", type=int, default=8192)
    storage.add_argument("--seed", type=int, default=0)
    storage.add_argument(
        "--compare", action="store_true",
        help="run the historical placement-policy comparison table",
    )
    storage.add_argument("--replicas", type=int, default=3)
    storage.add_argument(
        "--extra-probes", type=int, default=1,
        help="d = replicas + extra_probes probes per file",
    )
    storage.add_argument(
        "--mode", type=str, default="replication",
        choices=["replication", "chunking"],
    )
    storage.add_argument(
        "--size-dist", type=str, default="constant",
        choices=["constant", "exponential", "lognormal"],
    )
    storage.add_argument(
        "--fail-fraction", type=float, default=0.0,
        help="fail this fraction of servers after placement and measure "
        "availability (runs on the reference substrate)",
    )
    storage.add_argument(
        "--rebuild", action="store_true",
        help="re-replicate the replicas lost to --fail-fraction failures",
    )
    storage.add_argument("--trials", type=int, default=3)
    storage.add_argument("--engine", choices=list(ENGINES), default="auto")
    storage.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="fan the trials out over N worker processes (-1 = all CPUs)",
    )
    storage.add_argument(
        "--cache-dir", type=str, default=None, metavar="DIR",
        help="memoize per-trial results in DIR and report hits/misses",
    )
    storage.add_argument(
        "--cache-max-entries", type=int, default=None, metavar="N",
        help="after the run, evict the oldest cache entries beyond N",
    )

    majorization = subparsers.add_parser(
        "majorization", help="Empirical Section 3 majorization checks"
    )
    majorization.add_argument("--n", type=int, default=3 * 2 ** 10)
    majorization.add_argument("--trials", type=int, default=8)
    majorization.add_argument("--seed", type=int, default=0)

    ablation = subparsers.add_parser(
        "ablation", help="Strict vs greedy allocation policy (Section 7)"
    )
    ablation.add_argument("--n", type=int, default=3 * 2 ** 10)
    ablation.add_argument("--trials", type=int, default=5)
    ablation.add_argument("--seed", type=int, default=0)

    weighted = subparsers.add_parser(
        "weighted", help="Extension: weighted balls (exponential / Pareto weights)"
    )
    weighted.add_argument("--n", type=int, default=3 * 2 ** 10)
    weighted.add_argument("--trials", type=int, default=3)
    weighted.add_argument("--seed", type=int, default=0)

    staleness = subparsers.add_parser(
        "staleness", help="Extension: stale load information (parallel rounds)"
    )
    staleness.add_argument("--n", type=int, default=3 * 2 ** 10)
    staleness.add_argument("--trials", type=int, default=3)
    staleness.add_argument("--seed", type=int, default=0)

    churn = subparsers.add_parser(
        "churn", help="Extension: dynamic insert/delete steady state"
    )
    churn.add_argument("--n", type=int, default=512)
    churn.add_argument("--rounds", type=int, default=2048)
    churn.add_argument("--seed", type=int, default=0)

    open_question = subparsers.add_parser(
        "open-question", help="Section 7 open case: heavily loaded d < 2k"
    )
    open_question.add_argument("--n", type=int, default=1 << 11)
    open_question.add_argument("--trials", type=int, default=3)
    open_question.add_argument("--seed", type=int, default=0)

    exact = subparsers.add_parser(
        "exact", help="Validate the simulator against exact tiny-instance distributions"
    )
    exact.add_argument("--trials", type=int, default=4000)
    exact.add_argument("--seed", type=int, default=0)

    report = subparsers.add_parser(
        "report", help="Run every recipe (scaled) and emit a Markdown report"
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--sections", nargs="*", default=None, help="subset of section keys to run"
    )
    report.add_argument(
        "--output", type=str, default=None, help="write the Markdown to this file"
    )

    return parser


def _print(table_or_text: object) -> None:
    """Print a string as is and a ``ResultTable`` as its text rendering."""
    print(table_or_text if isinstance(table_or_text, str) else table_or_text.to_text())


def _collect_params(pairs: Sequence[Tuple[str, object]]) -> Dict[str, object]:
    """Merge the (key, value) tuples produced by :func:`_parse_param_token`."""
    return {key: value for key, value in pairs}


def _make_store(cache_dir: Optional[str]) -> Optional[ResultStore]:
    return ResultStore(cache_dir) if cache_dir else None


def _print_cache_stats(store: Optional[ResultStore]) -> None:
    if store is not None:
        print(
            f"cache: {store.hits} hits, {store.misses} misses "
            f"({store.cache_dir})"
        )


def _prune_cache(store: Optional[ResultStore], max_entries: Optional[int]) -> None:
    """Apply ``--cache-max-entries`` after a run and report the eviction."""
    if max_entries is None or store is None:
        # A limit without a store is rejected at argument-parse time.
        return
    try:
        evicted = store.prune(max_entries=max_entries)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"cache: pruned {evicted} entries, kept {len(store)}")


def _workload_param_args(args: argparse.Namespace) -> Optional[Dict[str, object]]:
    """``--workload-param`` tokens as a dict (``None`` when absent)."""
    if not args.workload_param:
        return None
    if args.workload is None:
        raise SystemExit("error: --workload-param requires --workload")
    return _collect_params(args.workload_param)


def _resolve_topology_arg(value: Optional[str]) -> "object | None":
    """``--topology NAME|FILE`` -> a spec-ready ``topology=`` parameter.

    A path that exists on disk loads as a ``repro-topology`` document (the
    spec carries the full dict); anything else must name a registered
    layout and stays a string (bound to ``n_bins`` at run time).
    """
    if value is None:
        return None
    from .topology import TOPOLOGY_LAYOUTS, TopologyError, load_topology

    if os.path.exists(value):
        try:
            return load_topology(value).to_dict()
        except (OSError, TopologyError) as exc:
            raise SystemExit(
                f"error: cannot load topology file {value!r}: {exc}"
            ) from None
    if value not in TOPOLOGY_LAYOUTS:
        raise SystemExit(
            f"error: unknown topology {value!r}; named layouts: "
            f"{', '.join(sorted(TOPOLOGY_LAYOUTS))} (or pass a topology "
            f"JSON file)"
        )
    return value


def _topology_shape(resolved: object) -> Tuple[int, int]:
    """``(zones, racks_per_zone)`` of a resolved ``--topology`` value."""
    if isinstance(resolved, str):
        from .topology import TOPOLOGY_LAYOUTS

        layout = TOPOLOGY_LAYOUTS[resolved]
        return layout.zones, layout.racks_per_zone
    zones = resolved["zones"]  # type: ignore[index]
    return len(zones), max(len(racks) for racks in zones)


def _run_topology(args: argparse.Namespace) -> None:
    from .topology import (
        TOPOLOGY_LAYOUTS,
        TopologyError,
        load_topology,
        topology_registry_dump,
    )

    if args.validate is not None:
        try:
            topology = load_topology(args.validate)
        except FileNotFoundError:
            raise SystemExit(
                f"error: topology file {args.validate!r} not found"
            ) from None
        except (OSError, TopologyError) as exc:
            raise SystemExit(f"error: invalid topology: {exc}") from None
        costs = ", ".join(
            f"{relation}={topology.probe_costs[relation]:g}"
            for relation in ("rack", "zone", "cross")
        )
        print(
            f"{topology.name}: valid ({topology.n_zones} zones, "
            f"{topology.n_racks} racks, {topology.n_bins} bins)"
        )
        print(f"  probe_costs: {costs}")
        return
    if args.json:
        print(json.dumps(topology_registry_dump(), indent=2, sort_keys=True))
        return
    width = max(len(name) for name in TOPOLOGY_LAYOUTS)
    for name in sorted(TOPOLOGY_LAYOUTS):
        layout = TOPOLOGY_LAYOUTS[name]
        print(
            f"{name:<{width}}  {layout.zones}x{layout.racks_per_zone}  "
            f"{layout.summary}"
        )


def _run_simulate(args: argparse.Namespace) -> None:
    store = _make_store(args.cache_dir)
    params = _collect_params(args.param)
    topology = _resolve_topology_arg(args.topology)
    if topology is not None:
        params["topology"] = topology
    workload_params = _workload_param_args(args)
    if args.workload is not None:
        # The workload contributes scenario-derived spec parameters (e.g.
        # hetero_bins capacities); explicit --param values win.  Item-level
        # event structure does not reach the batch engines — the equivalence
        # harness pins the stream itself via the simulation surface.
        try:
            params.update(bind_spec_params(args.workload, workload_params, params))
        except WorkloadError as exc:
            raise SystemExit(f"error: {exc}") from None
    try:
        spec = SchemeSpec(
            scheme=args.scheme,
            params=params,
            policy=args.policy,
            seed=args.seed,
            trials=args.trials,
            engine=args.engine,
        )
        outcome = simulate_trials(spec, n_jobs=args.jobs, cache=store)
    except KeyError as exc:  # unknown scheme: surface the candidate list
        raise SystemExit(f"error: {exc.args[0]}") from None
    except ValueError as exc:  # spec errors and runner parameter validation
        raise SystemExit(f"error: {exc}") from None
    record = outcome.record()
    print(f"spec: {spec.display_label} (engine={args.engine}, seed={args.seed})")
    for key, value in record.items():
        print(f"  {key}: {value}")
    _print_cache_stats(store)
    _prune_cache(store, args.cache_max_entries)


def _run_substrate(
    args: argparse.Namespace, scheme: str, params: Dict[str, object]
) -> None:
    """Shared driver of the spec-driven ``cluster`` / ``storage`` commands."""
    store = _make_store(args.cache_dir)
    try:
        spec = SchemeSpec(
            scheme=scheme,
            params=params,
            seed=args.seed,
            trials=args.trials,
            engine=args.engine,
        )
        outcome = simulate_trials(spec, n_jobs=args.jobs, cache=store)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    print(f"spec: {spec.display_label} (engine={args.engine}, seed={args.seed})")
    for key, value in outcome.record().items():
        print(f"  {key}: {value}")
    _print_cache_stats(store)
    _prune_cache(store, args.cache_max_entries)


def _run_stream(args: argparse.Namespace) -> None:
    from .online import LoadTelemetry, stream_workload
    from .online.trace import TraceError

    params = _collect_params(args.param)
    topology = _resolve_topology_arg(args.topology)
    if topology is not None:
        params["topology"] = topology
    try:
        spec = SchemeSpec(
            scheme=args.scheme,
            params=params,
            policy=args.policy,
            seed=args.seed,
            engine=args.engine,
        )
        summary = stream_workload(
            spec,
            items=args.items,
            workload_seed=args.workload_seed,
            record=args.record,
            snapshot_every=args.snapshot_every,
            snapshot_dir=args.snapshot_dir,
            telemetry=LoadTelemetry(sample_every=args.telemetry_every),
            workload=args.workload or "uniform",
            workload_params=_workload_param_args(args),
        )
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (ValueError, TraceError) as exc:
        raise SystemExit(f"error: {exc}") from None
    print(summary.format_text())
    if args.record:
        print(f"recorded: {args.record} ({summary.events} events)")


def _run_replay(args: argparse.Namespace) -> None:
    from .online import LoadTelemetry, replay_trace
    from .online.trace import TraceError

    try:
        summary = replay_trace(
            args.trace,
            engine=args.engine,
            snapshot_every=args.snapshot_every,
            snapshot_dir=args.snapshot_dir,
            record_out=args.record_out,
            telemetry=LoadTelemetry(sample_every=args.telemetry_every),
        )
    except FileNotFoundError:
        raise SystemExit(f"error: trace file {args.trace!r} not found") from None
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (ValueError, TraceError) as exc:
        raise SystemExit(f"error: {exc}") from None
    print(summary.format_text())


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (a reader never sees a torn file)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{port}\n")
    os.replace(tmp, path)


def _run_serve(args: argparse.Namespace) -> None:
    import asyncio
    import signal

    from .serve import AllocationServer, ServeConfig, ShardPool, ShardPoolError

    if (args.scheme is None) == (args.restore is None):
        raise SystemExit(
            "error: pass exactly one of --scheme (fresh pool) or "
            "--restore (resume from a manifest)"
        )

    topology = _resolve_topology_arg(args.topology)
    policy_params: Dict[str, object] = (
        {"d": args.router_d} if args.router_d is not None else {}
    )
    if topology is not None and args.router in ("topology", "zone"):
        # The topology router maps shards onto zones; derive the zone count
        # from the --topology layout so the two surfaces stay in step.
        policy_params.setdefault("zones", _topology_shape(topology)[0])

    async def _main() -> None:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            n_shards=args.shards,
            policy=args.router,
            mode=args.mode,
            policy_params=policy_params,
            max_batch=args.max_batch,
            snapshot_on_exit=args.snapshot_on_exit,
        )
        if args.restore is not None:
            pool = ShardPool.load(args.restore, mode=args.mode)
            server = AllocationServer(pool=pool, config=config)
        else:
            params = _collect_params(args.param)
            if topology is not None:
                # Topology routing composes with any shard scheme; the spec
                # parameter only exists on the topology-aware schemes.
                try:
                    accepts = "topology" in describe_scheme(args.scheme)["parameters"]
                except KeyError:
                    accepts = False  # unknown scheme: spec creation reports it
                if accepts:
                    params["topology"] = topology
            if args.items is not None:
                params["n_balls"] = args.items
            spec = SchemeSpec(
                scheme=args.scheme,
                params=params,
                policy=args.policy,
                seed=args.seed,
                engine=args.engine,
            )
            server = AllocationServer(spec, config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: asyncio.ensure_future(server.stop())
                )
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loop: Ctrl-C falls back to KeyboardInterrupt
        pool = server.pool
        print(
            f"serving {server.spec.display_label} on "
            f"{config.host}:{server.port} (shards={pool.n_shards}, "
            f"router={pool.router.policy}, mode={pool.mode})",
            flush=True,
        )
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        await server.serve_forever()
        print(
            f"stopped: served {server.places} places, "
            f"{server.removes} removes over {server.requests} requests",
            flush=True,
        )

    try:
        asyncio.run(_main())
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    except (ShardPoolError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None


def _run_loadgen(args: argparse.Namespace) -> None:
    from .serve import ServeError, loadgen

    workload = args.workload
    workload_params = _workload_param_args(args)
    topology = _resolve_topology_arg(args.topology)
    if topology is not None:
        # --topology selects the zone-tagged workload and sizes its grid to
        # the layout, so the generated stream matches the server's topology.
        if workload is None:
            workload = "topology_aware"
        zones, racks_per_zone = _topology_shape(topology)
        workload_params = dict(workload_params or {})
        workload_params.setdefault("zones", zones)
        workload_params.setdefault("racks_per_zone", racks_per_zone)
    try:
        report = loadgen(
            host=args.host,
            port=args.port,
            items=args.items,
            connections=args.connections,
            max_in_flight=args.max_in_flight,
            seed=args.seed,
            shutdown_after=args.shutdown_after,
            workload=workload or "uniform",
            workload_params=workload_params,
        )
    except ConnectionRefusedError:
        raise SystemExit(
            f"error: no server listening on {args.host}:{args.port} "
            f"(start one with `repro serve`)"
        ) from None
    except OSError as exc:
        raise SystemExit(
            f"error: cannot reach {args.host}:{args.port} ({exc})"
        ) from None
    except (ServeError, ValueError) as exc:
        raise SystemExit(f"error: {exc}") from None
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.format_text())


def _run_schemes(args: argparse.Namespace) -> None:
    if args.check:
        from .api import lint_registry
        from .core.compiled import describe_backend

        # Machine-local diagnostic, deliberately absent from --json (the
        # registry dump must stay host-independent for the golden tests).
        backend = describe_backend()
        if backend["available"]:
            print(
                f"compiled backend: available (compiler={backend['compiler']}, "
                f"cache={backend['cache_dir']})"
            )
        else:
            print(f"compiled backend: unavailable ({backend['reason']})")
        problems = lint_registry()
        if problems:
            for problem in problems:
                print(f"parity: {problem}")
            raise SystemExit(
                f"{len(problems)} registry/kernel parity violation(s)"
            )
        print(
            f"registry/kernel parity OK ({len(available_schemes())} schemes, "
            f"{len(available_workloads())} workloads)"
        )
        return
    if args.json:
        print(json.dumps(registry_dump(), indent=2, sort_keys=True))
        return
    if args.describe is not None:
        try:
            description = describe_scheme(args.describe)
        except KeyError as exc:
            raise SystemExit(f"error: {exc.args[0]}") from None
        print(f"{description['name']}: {description['summary']}")
        print(f"  engines: {', '.join(description['engines'])}")
        print(f"  online: {'yes' if description['online'] else 'no'}")
        if description["aliases"]:
            print(f"  aliases: {', '.join(description['aliases'])}")
        print("  parameters:")
        for name, default in description["parameters"].items():
            print(f"    {name} = {default}")
        return
    width = max(len(name) for name in available_schemes())
    for name in available_schemes():
        print(f"{name:<{width}}  {describe_scheme(name)['summary']}")


def _run_workloads(args: argparse.Namespace) -> None:
    if args.json:
        print(json.dumps(workloads_dump(), indent=2, sort_keys=True))
        return
    if args.describe is not None:
        try:
            record = get_workload(args.describe)
        except WorkloadError as exc:
            raise SystemExit(f"error: {exc}") from None
        print(f"{record.name}: {record.summary}")
        hooks = [
            label
            for label, present in (
                ("arrival stamps", record.stamper is not None
                 or "arrival_process" in record.defaults),
                ("tenant labels", record.labeler is not None),
                ("spec binding", record.binder is not None),
                ("substrate arrivals", record.arrivals is not None),
            )
            if present
        ]
        print(f"  hooks: {', '.join(hooks) if hooks else 'none'}")
        print("  parameters:")
        for name, default in record.defaults.items():
            print(f"    {name} = {default}")
        return
    names = available_workloads()
    width = max(len(name) for name in names)
    for name in names:
        print(f"{name:<{width}}  {get_workload(name).summary}")


def _run_recipe(args: argparse.Namespace) -> None:
    """The experiment recipes: imported here, so the service commands
    (``serve``, ``simulate``, ...) start without loading them."""
    from .experiments import (
        ablation_table, churn_table, exact_validation_table, generate_report,
        heavy_table, majorization_table, open_question_table, regime_table,
        run_churn_experiment, run_exact_validation, run_heavy_case,
        run_load_profile, run_majorization_chain, run_open_question_heavy,
        run_policy_ablation, run_regime_scaling, run_scheduling_experiment,
        run_staleness_experiment, run_table1, run_tradeoff,
        run_weighted_experiment, scheduling_table, staleness_table,
        tradeoff_table, weighted_table,
    )

    if args.command == "table1":
        if args.small:
            args.n = min(args.n, 768)
            args.trials = min(args.trials, 2)
            args.k = args.k if args.k is not None else [1, 2, 4]
            args.d = args.d if args.d is not None else [1, 2, 5, 9]
        store = _make_store(args.cache_dir)
        try:
            result = run_table1(
                n=args.n, trials=args.trials, seed=args.seed,
                k_values=args.k, d_values=args.d, engine=args.engine,
                n_jobs=args.jobs, cache=store,
            )
        except ValueError as exc:  # e.g. an invalid --jobs value
            raise SystemExit(f"error: {exc}") from None
        _print(result.to_text())
        _print_cache_stats(store)
        _prune_cache(store, args.cache_max_entries)
    elif args.command == "profile":
        result = run_load_profile(n=args.n, seed=args.seed)
        lines: List[str] = []
        for series in result.series:
            lines.append(
                f"(k={series.k}, d={series.d}, n={series.n}): max load {series.max_load}, "
                f"beta0={series.beta0:.1f}, gamma0={series.gamma0:.1f}, "
                f"gamma*={series.gamma_star_:.1f}"
            )
            lines.append(f"  Figure 1 decomposition: {series.figure1_decomposition()}")
            lines.append(f"  Figure 2 decomposition: {series.figure2_decomposition()}")
        _print("\n".join(lines))
    elif args.command == "regimes":
        _print(
            regime_table(
                run_regime_scaling(
                    trials=args.trials, seed=args.seed,
                    n_jobs=args.jobs, engine=args.engine,
                )
            )
        )
    elif args.command == "heavy":
        _print(heavy_table(run_heavy_case(n=args.n, trials=args.trials, seed=args.seed)))
    elif args.command == "tradeoff":
        _print(
            tradeoff_table(
                run_tradeoff(
                    n=args.n, trials=args.trials, seed=args.seed,
                    n_jobs=args.jobs, engine=args.engine,
                )
            )
        )
    elif args.command == "scheduling":
        _print(
            scheduling_table(
                run_scheduling_experiment(
                    n_workers=args.workers, n_jobs=args.jobs, seed=args.seed
                )
            )
        )
    elif args.command == "majorization":
        _print(
            majorization_table(
                run_majorization_chain(n=args.n, trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "ablation":
        _print(
            ablation_table(
                run_policy_ablation(n=args.n, trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "weighted":
        _print(
            weighted_table(
                run_weighted_experiment(n=args.n, trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "staleness":
        _print(
            staleness_table(
                run_staleness_experiment(n=args.n, trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "churn":
        _print(
            churn_table(
                run_churn_experiment(n=args.n, rounds=args.rounds, seed=args.seed)
            )
        )
    elif args.command == "open-question":
        _print(
            open_question_table(
                run_open_question_heavy(n=args.n, trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "exact":
        _print(
            exact_validation_table(
                run_exact_validation(trials=args.trials, seed=args.seed)
            )
        )
    elif args.command == "report":
        report = generate_report(seed=args.seed, sections=args.sections)
        markdown = report.to_markdown()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(markdown)
            print(f"wrote {args.output} ({len(report.sections)} sections)")
        else:
            print(markdown)
    else:  # pragma: no cover - main routes only the recipe commands here
        raise ValueError(f"unknown command {args.command!r}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``repro-kd`` / ``python -m repro``."""
    parser = build_parser()
    args = parser.parse_args(argv)

    # Reject the combination before any work runs: a long computation that
    # only errors at the end would waste the whole run.
    if (
        getattr(args, "cache_max_entries", None) is not None
        and not getattr(args, "cache_dir", None)
    ):
        parser.error("--cache-max-entries requires --cache-dir")

    if args.command == "schemes":
        _run_schemes(args)
    elif args.command == "workloads":
        _run_workloads(args)
    elif args.command == "topology":
        _run_topology(args)
    elif args.command == "simulate":
        _run_simulate(args)
    elif args.command == "stream":
        _run_stream(args)
    elif args.command == "replay":
        _run_replay(args)
    elif args.command == "serve":
        _run_serve(args)
    elif args.command == "loadgen":
        _run_loadgen(args)
    elif args.command == "cluster":
        params = {
            "n_workers": args.workers,
            "n_jobs": args.trace_jobs,
            "tasks_per_job": args.tasks_per_job,
            "probe_ratio": args.probe_ratio,
            "arrival_rate": args.arrival_rate,
            "duration_distribution": args.distribution,
            "duration_shape": args.duration_shape,
            "arrival_process": args.arrival_process,
            "burstiness": args.burstiness,
            "speed_spread": args.speed_spread,
        }
        if args.workload is not None:
            # The substrate stamps its own arrival process; a workload
            # drives it through the record's arrivals hook.  The arrival
            # flags set the same parameters, so combining the two would be
            # ambiguous.
            arrival_defaults = {
                "arrival_process": "poisson",
                "arrival_rate": 8.0,
                "burstiness": 4.0,
            }
            drifted = sorted(
                f"--{flag.replace('_', '-')}"
                for flag, default in arrival_defaults.items()
                if getattr(args, flag) != default
            )
            if drifted:
                raise SystemExit(
                    f"error: pass either --workload {args.workload} (with "
                    f"--workload-param) or the arrival flags "
                    f"{', '.join(drifted)} — not both"
                )
            try:
                params.update(
                    substrate_arrivals(args.workload, _workload_param_args(args))
                )
            except WorkloadError as exc:
                raise SystemExit(f"error: {exc}") from None
        else:
            _workload_param_args(args)  # rejects --workload-param alone
        _run_substrate(args, "cluster_scheduling", params)
    elif args.command == "storage":
        if args.compare:
            from .experiments import run_storage_experiment, storage_table

            _print(
                storage_table(
                    run_storage_experiment(
                        n_servers=args.servers, n_files=args.files, seed=args.seed
                    )
                )
            )
        else:
            _run_substrate(
                args,
                "storage_placement",
                {
                    "n_servers": args.servers,
                    "n_files": args.files,
                    "replicas": args.replicas,
                    "extra_probes": args.extra_probes,
                    "mode": args.mode,
                    "size_distribution": args.size_dist,
                    "fail_fraction": args.fail_fraction,
                    "rebuild": args.rebuild,
                },
            )
    else:
        _run_recipe(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
