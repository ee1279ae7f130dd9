"""Bench trajectory aggregator: one ``BENCH_*.json`` artifact per run.

Two artifacts share this harness (``--artifact``):

``online`` (default, ``BENCH_ONLINE.json``) measures, for every
scheme with an online stepper, three throughputs on the same workload size
(``--items``, default 200k):

* ``batch`` — one ``simulate()`` call (the engine the spec resolves to),
* ``stream`` — the scalar ``place()`` loop (measured on a reduced item
  count and normalized, it is the per-request reference path),
* ``place_batch`` — chunked streaming ingestion through the batch kernels.

``core`` (``BENCH_CORE.json``) measures, for every compiled-covered anchor
scheme, one ``simulate()`` per engine tier — ``scalar`` (reduced count,
normalized), ``vectorized`` and ``compiled`` (skipped with a recorded
reason when the C backend cannot build) — plus the tier-over-tier speedup
ratios CI floors ride on.

Both write ``scheme -> items/sec`` lines into the ``series`` section of
the shared version-2 envelope (see :mod:`bench_envelope`) that CI uploads
as the run-to-run trajectory.  For ``core``, ``--compiled-floor`` fails
the run when the compiled tier falls below the floor over vectorized on
the floor anchors.

Usage::

    PYTHONPATH=src python benchmarks/bench_report.py --items 200000 \
        --output BENCH_ONLINE.json
    PYTHONPATH=src python benchmarks/bench_report.py --artifact core \
        --items 2000000 --output BENCH_CORE.json
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

import numpy as np

from repro.api import REGISTRY, SchemeSpec, get_scheme, simulate
from repro.online import OnlineAllocator

#: Scheme-specific parameters (n_bins/n_balls are filled in per run).
SCHEME_PARAMS: Dict[str, Dict[str, Any]] = {
    "kd_choice": {"k": 4, "d": 8},
    "greedy_kd_choice": {"k": 4, "d": 8},
    "d_choice": {"d": 4},
    "two_choice": {},
    "single_choice": {},
    "batch_random": {"k": 8},
    "weighted_kd_choice": {"k": 4, "d": 8},
    "stale_kd_choice": {"k": 4, "d": 8, "stale_rounds": 8},
    "one_plus_beta": {"beta": 0.5},
    "always_go_left": {"d": 4},
    "threshold_adaptive": {},
    "two_phase_adaptive": {},
    "serialized_kd_choice": {"k": 4, "d": 8},
}

#: Schemes whose per-item reference loop is slow enough that the scalar
#: stream measurement uses a reduced item count (normalized to items/sec).
SCALAR_STREAM_CAP = 50_000

#: Anchor schemes of the ``core`` artifact: every scheme with a compiled
#: engine, measured per tier.  (d_choice/two_choice are kd specializations
#: but resolve their own kernels, so they are anchored separately.)
CORE_ANCHORS = (
    "kd_choice",
    "d_choice",
    "two_choice",
    "stale_kd_choice",
    "weighted_kd_choice",
    "one_plus_beta",
    "always_go_left",
    "threshold_adaptive",
    "two_phase_adaptive",
)


def _spec(scheme: str, items: int, engine: str) -> SchemeSpec:
    params = dict(SCHEME_PARAMS.get(scheme, {}))
    params["n_bins"] = items
    params["n_balls"] = items
    return SchemeSpec(scheme=scheme, params=params, seed=0, engine=engine)


def _measure_scheme(scheme: str, items: int) -> Dict[str, Any]:
    # Batch engine throughput (whatever engine "auto" resolves to).
    start = time.perf_counter()
    batch_result = simulate(_spec(scheme, items, "auto"))
    batch_seconds = time.perf_counter() - start

    # Scalar place() loop (reduced size, normalized).
    scalar_items = min(items, SCALAR_STREAM_CAP)
    allocator = OnlineAllocator(_spec(scheme, scalar_items, "scalar"))
    place = allocator.place
    start = time.perf_counter()
    for _ in range(scalar_items):
        place()
    scalar_seconds = time.perf_counter() - start

    # Chunked streaming ingestion.
    allocator = OnlineAllocator(_spec(scheme, items, "auto"))
    start = time.perf_counter()
    remaining = items
    while remaining:
        take = min(16_384, remaining)
        allocator.place_batch(take)
        remaining -= take
    stream_seconds = time.perf_counter() - start
    if not np.array_equal(allocator.loads, batch_result.loads):
        raise AssertionError(
            f"{scheme}: streaming loads diverged from the batch engine"
        )

    return {
        "items": items,
        "batch_items_per_sec": int(items / batch_seconds),
        "stream_items_per_sec": int(scalar_items / scalar_seconds),
        "place_batch_items_per_sec": int(items / stream_seconds),
        "place_batch_vs_stream": round(
            (items / stream_seconds) / (scalar_items / scalar_seconds), 2
        ),
    }


def _measure_core_scheme(
    scheme: str, items: int, compiled_available: bool
) -> Dict[str, Any]:
    """One ``simulate()`` per engine tier, loads cross-checked per tier."""
    line: Dict[str, Any] = {"items": items}

    # Scalar reference (reduced count, normalized to items/sec).
    scalar_items = min(items, SCALAR_STREAM_CAP)
    start = time.perf_counter()
    simulate(_spec(scheme, scalar_items, "scalar"))
    scalar_seconds = time.perf_counter() - start
    line["scalar_items_per_sec"] = int(scalar_items / scalar_seconds)

    start = time.perf_counter()
    vectorized = simulate(_spec(scheme, items, "vectorized"))
    vectorized_seconds = time.perf_counter() - start
    line["vectorized_items_per_sec"] = int(items / vectorized_seconds)
    line["vectorized_vs_scalar"] = round(
        line["vectorized_items_per_sec"] / line["scalar_items_per_sec"], 2
    )

    if compiled_available:
        start = time.perf_counter()
        compiled = simulate(_spec(scheme, items, "compiled"))
        compiled_seconds = time.perf_counter() - start
        if not np.array_equal(compiled.loads, vectorized.loads):
            raise AssertionError(
                f"{scheme}: compiled loads diverged from the vectorized engine"
            )
        line["compiled_items_per_sec"] = int(items / compiled_seconds)
        line["compiled_vs_vectorized"] = round(
            line["compiled_items_per_sec"] / line["vectorized_items_per_sec"], 2
        )
        line["compiled_vs_scalar"] = round(
            line["compiled_items_per_sec"] / line["scalar_items_per_sec"], 2
        )
    return line


#: Schemes the ``--compiled-floor`` gate applies to: anchors whose work is
#: dominated by the per-ball placement loop the C kernels replace (the
#: RNG-draw-bound anchors are measured and recorded but not floored).
FLOOR_SCHEMES = ("d_choice", "two_choice", "one_plus_beta",
                 "always_go_left", "two_phase_adaptive")


def _run_core(
    series: Dict[str, Dict[str, Any]],
    items: int,
    selected: list,
    compiled_floor: Optional[float] = None,
) -> Dict[str, Any]:
    from repro.core.compiled import backend_unavailable_reason

    reason = backend_unavailable_reason()
    backend = (
        {"available": True} if reason is None
        else {"available": False, "reason": reason}
    )
    for scheme in selected:
        line = _measure_core_scheme(scheme, items, reason is None)
        series[scheme] = line
        compiled_rate = line.get("compiled_items_per_sec")
        compiled_text = (
            f"compiled {compiled_rate:>11,}/s ({line['compiled_vs_vectorized']}x)"
            if compiled_rate is not None else "compiled unavailable"
        )
        print(
            f"{scheme:<22} scalar {line['scalar_items_per_sec']:>9,}/s  "
            f"vectorized {line['vectorized_items_per_sec']:>11,}/s  "
            f"{compiled_text}"
        )
    if compiled_floor is not None:
        if reason is not None:
            raise SystemExit(
                f"--compiled-floor requires the compiled backend: {reason}"
            )
        missed = [
            f"{scheme} {series[scheme]['compiled_vs_vectorized']}x"
            for scheme in FLOOR_SCHEMES
            if scheme in series
            and series[scheme]["compiled_vs_vectorized"] < compiled_floor
        ]
        if missed:
            raise SystemExit(
                f"compiled tier below the {compiled_floor}x floor over "
                f"vectorized: {', '.join(missed)}"
            )
        print(f"compiled floor met (>= {compiled_floor}x over vectorized "
              f"on {', '.join(s for s in FLOOR_SCHEMES if s in series)})")
    return backend


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--artifact", choices=("online", "core"), default="online",
        help="online: streaming-vs-batch per online scheme; "
        "core: per-engine-tier simulate() throughput per anchor scheme",
    )
    parser.add_argument("--items", type=int, default=200_000)
    parser.add_argument(
        "--output", type=str, default=None,
        help="output path (default: BENCH_<ARTIFACT>.json)",
    )
    parser.add_argument(
        "--schemes", nargs="*", default=None,
        help="subset of schemes to measure (default: all covered)",
    )
    parser.add_argument(
        "--compiled-floor", type=float, default=None, metavar="RATIO",
        help="core artifact only: exit nonzero unless the compiled tier "
        "sustains this speedup over vectorized on the floor anchors",
    )
    args = parser.parse_args(argv)
    if args.compiled_floor is not None and args.artifact != "core":
        parser.error("--compiled-floor applies to --artifact core only")
    if args.output is None:
        args.output = f"BENCH_{args.artifact.upper()}.json"

    if args.artifact == "core":
        covered = list(CORE_ANCHORS)
    else:
        covered = [
            name for name in REGISTRY.names()
            if get_scheme(name).online is not None
        ]
    selected = args.schemes if args.schemes else covered
    unknown = sorted(set(selected) - set(covered))
    if unknown:
        parser.error(f"not covered: {unknown}; choose from {covered}")

    from bench_envelope import write_envelope

    series: Dict[str, Dict[str, Any]] = {}
    extra: Dict[str, Any] = {}
    if args.artifact == "core":
        extra["compiled_backend"] = _run_core(
            series, args.items, selected, args.compiled_floor
        )
    else:
        for scheme in selected:
            series[scheme] = _measure_scheme(scheme, args.items)
            line = series[scheme]
            print(
                f"{scheme:<22} batch {line['batch_items_per_sec']:>10,}/s  "
                f"stream {line['stream_items_per_sec']:>9,}/s  "
                f"place_batch {line['place_batch_items_per_sec']:>10,}/s  "
                f"({line['place_batch_vs_stream']}x)"
            )
    output = Path(args.output)
    write_envelope(
        output, f"BENCH_{args.artifact.upper()}", args.items, series, **extra
    )
    print(f"wrote {output} ({len(series)} series)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
