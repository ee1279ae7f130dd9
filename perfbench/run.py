"""The repository benchmark: one command, three workloads, checked outputs.

Run from the repository root::

    python3 perfbench/run.py --workload serve_churn --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` gives the reason each was chosen):

* ``serve_churn``: ``repro serve`` with kd_choice (k=4, d=8) on 2 process
  shards behind the two_choice router, driven over TCP by this process
  with churn 0.5 and tracked item ids (see ``serve_bench.py``);
* ``sim_grid``: ``repro.api.simulate`` over eight paper-grid cells at
  ``n_bins = TABLE1_N`` (see ``sim_bench.py``);
* ``serve_place``: the same server without churn.  It runs the same way
  but is not listed in ``BENCHMARK.json``: with the CPUs saturated its
  rates track time stolen by the hypervisor, and on a shared 2-CPU host
  its run-to-run spread exceeded any usable bound.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` measures the
workload untraced and then traced, each for half of ``--seconds``, and
prints the per-layer metrics (``layers.json`` maps each to the end-to-end
metric it should move).  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it summarise the run; the full record, with the environment and the
workload sizes, is written under ``.perfbench/results/``.

``--compare OLD NEW`` compares two such records metric by metric against
the bounds in ``BENCHMARK.json``, and refuses by name to compare records
taken on different machines, software or sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import common
from common import OUT, ROOT, SRC

WORKLOADS = ("serve_place", "serve_churn", "sim_grid")
LAYERS = Path(__file__).resolve().parent / "layers.json"


def declared() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_sim(record: Dict[str, Any], seed: int, seconds: float, trace: bool) -> List[Dict[str, Any]]:
    import sim_bench

    record["sizes"] = {"cells": sim_bench.sizes(), "seconds": seconds}
    pinned = sim_bench.verify_pins()
    checked = {"problems": pinned, "attempted": len(sim_bench.CELLS), "failed": len(pinned)}
    if trace:
        plain = sim_bench.measure(seed, seconds / 2, traced=False)
        result = sim_bench.measure(seed, seconds / 2, traced=True)
        record["metrics"], record["summary"] = sim_bench.per_layer(result)
        record["metrics"]["trace.overhead"] = (
            sim_bench.end_to_end(plain, math.nan)["balls_per_s"]
            / sim_bench.end_to_end(result, math.nan)["balls_per_s"]
        )
        return [checked, plain, result]
    setup_s = sim_bench.measure_setup()
    result = sim_bench.measure(seed, seconds, traced=False)
    record["metrics"] = sim_bench.end_to_end(result, setup_s)
    record["unscaled"] = sim_bench.end_to_end(result, setup_s, scaled=False)
    return [checked, result]


def run_serve(
    record: Dict[str, Any], workload: str, seed: int, seconds: float, trace: bool
) -> List[Dict[str, Any]]:
    import serve_bench

    record["sizes"] = {
        "scheme": "kd_choice", "n_bins": serve_bench.N_BINS,
        "k": serve_bench.K, "d": serve_bench.D, "shards": serve_bench.SHARDS,
        "items": serve_bench.ITEMS[workload], "churn": serve_bench.CHURN[workload],
        "open_rate": serve_bench.OPEN_RATE, "connections": 2,
        "window": serve_bench.WINDOW, "seconds": seconds,
    }
    if trace:
        plain = serve_bench.measure(workload, seed, seconds / 2, False, 1)
        result = serve_bench.measure(workload, seed, seconds / 2, True, 1)
        record["metrics"], record["summary"] = serve_bench.per_layer(result)
        record["metrics"]["trace.overhead"] = (
            serve_bench.end_to_end(plain)["ops_per_s"]
            / serve_bench.end_to_end(result)["ops_per_s"]
        )
        # Tail latency swings too far from run to run on a shared host to
        # hold an end-to-end bound, so it is reported here, untraced.
        record["metrics"]["open_loop.latency_p99_ms"] = float(
            np.percentile(plain["open"]["latency"], 99) * 1e3
        )
        results = [plain, result]
    else:
        result = serve_bench.measure(
            workload, seed, seconds, False, serve_bench.SETUP_REPEATS
        )
        record["metrics"] = serve_bench.end_to_end(result)
        record["unscaled"] = serve_bench.end_to_end(result, steady=False)
        record["summary"] = [serve_bench.host_line(result)]
        results = [result]
    invalid = [r["invalid"] for r in results if r["invalid"]]
    record["invalid"] = invalid[0] if invalid else None
    return results


def run(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Measure one workload; returns the results record."""
    record: Dict[str, Any] = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "summary": [],
    }
    if workload == "sim_grid":
        results = run_sim(record, seed, seconds, trace)
    else:
        results = run_serve(record, workload, seed, seconds, trace)
    record["problems"] = [p for r in results for p in r["problems"]]
    record["attempted"] = sum(r["attempted"] for r in results)
    record["failed"] = sum(r["failed"] for r in results)
    return record


def report(record: Dict[str, Any]) -> Dict[str, Any]:
    """The result line: every declared metric of the run's kind."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    layers = json.loads(LAYERS.read_text())["per_layer"]
    metrics = {}
    missing: Dict[str, List[str]] = {}
    for entry in declared()[kind]:
        name = entry["name"]
        value = record["metrics"].get(name)
        if value is None:
            # Layers this workload does not exercise read 0; say why.
            where = ", ".join(layers[name]["measured_on"])
            missing.setdefault(where, []).append(name)
            value = 0.0
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    for where, names in missing.items():
        print(
            f"reported as 0, not exercised by {record['workload']} "
            f"(measured on {where}): {', '.join(names)}"
        )
    undeclared = sorted(set(record["metrics"]) - {e["name"] for e in declared()[kind]})
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return {
        "correct": not record["problems"] and record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def compare(old_path: Path, new_path: Path) -> int:
    """Compare two results records; 0 when no metric worsened past its bound."""
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("workload", "trace", "environment", "sizes"):
        if old.get(key) != new.get(key):
            print(
                f"refused: the records differ in {key!r} "
                f"({old.get(key)!r} vs {new.get(key)!r})",
                file=sys.stderr,
            )
            return 2
    entries = {e["name"]: e for kind in ("end_to_end", "per_layer") for e in declared()[kind]}
    worse = 0
    for name, value in new["metrics"].items():
        entry = entries[name]
        base = old["metrics"].get(name)
        if not base:
            print(f"{name}: {value:.6g} {entry['unit']} (no baseline)")
            continue
        change = value / base - 1.0
        bound = entry.get("bound")
        flag = ""
        if bound is not None:
            regressed = change > bound if entry["better"] == "lower" else change < -bound
            flag = "  REGRESSION" if regressed else ""
            worse += regressed
        print(f"{name}: {base:.6g} -> {value:.6g} {entry['unit']} ({change:+.1%}){flag}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="The repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument(
        "--write-pins", action="store_true",
        help="regenerate perfbench/pins.json from the current code",
    )
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("REPRO_KERNEL", None)
    if args.write_pins:
        import sim_bench

        sim_bench.write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = common.environment()
    for line in record["summary"]:
        print(line)
    for problem in record["problems"]:
        print(f"check failed: {problem}")
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True, default=float) + "\n")
    print(f"environment: {json.dumps(record['environment'], sort_keys=True)}")
    print(f"record: {path.relative_to(ROOT)}")
    if record.get("invalid"):
        print(f"invalid run, not reported: {record['invalid']}", file=sys.stderr)
        return 3
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
