"""Topology benchmarks: flat parity and zone-aware routing economics.

Two acceptance anchors ride in this module:

1. **Flat parity is free.**  Under ``Topology.flat`` (one zone, one rack,
   zero cost) the topology-aware schemes must reproduce the paper's flat
   schemes bit for bit — the topology layer may cost accounting time but
   never drift.

2. **Zone routing trades nothing for locality.**  A ``topology`` router
   over a zoned shard pool must place a *lower* fraction of items outside
   their home zone than the flat ``two_choice`` router while sustaining at
   least ``BENCH_TOPOLOGY_MIN_RATE_RATIO`` (default 0.5x) of its
   placements/sec — i.e. locality comes from probe remapping, not from a
   slow path.

The module doubles as the ``BENCH_TOPOLOGY.json`` artifact writer::

    PYTHONPATH=src python benchmarks/bench_topology.py --items 100000 \
        --output BENCH_TOPOLOGY.json
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.api import SchemeSpec, simulate
from repro.serve import ShardPool
from repro.topology import Topology

ITEMS = int(os.environ.get("BENCH_TOPOLOGY_ITEMS", 100_000))
MIN_RATE_RATIO = float(os.environ.get("BENCH_TOPOLOGY_MIN_RATE_RATIO", 0.5))
SHARDS = 8
ZONES = 2
CHUNK = 4_096


def _spec(n_items: int) -> SchemeSpec:
    return SchemeSpec(
        scheme="two_choice",
        params={"n_bins": n_items, "n_balls": n_items},
        seed=0,
    )


def _assert_flat_parity() -> None:
    """Topology layer at zero cost reproduces the flat schemes bit for bit."""
    n_bins = 4_096
    flat = simulate(SchemeSpec(scheme="two_choice", params={"n_bins": n_bins}, seed=7))
    for bias in (0.0, 0.5, 1.0):
        local = simulate(
            SchemeSpec(
                scheme="locality_two_choice",
                params={"n_bins": n_bins, "bias": bias, "topology": Topology.flat(n_bins)},
                seed=7,
            )
        )
        assert (local.loads == flat.loads).all(), (
            f"flat-topology locality_two_choice (bias={bias}) drifted from "
            f"two_choice"
        )


def _drive_pool(policy: str, items: int) -> Dict[str, Any]:
    """Stream ``items`` through a zoned thread pool; measure rate + locality.

    Home zones interleave with the decision index (the ``topology_aware``
    workload's convention), so the cross-zone placement fraction is
    computable for any router — the flat baseline included.
    """
    params = {"zones": ZONES} if policy == "topology" else {}
    shard_zone = np.arange(SHARDS, dtype=np.int64) % ZONES
    with ShardPool(
        _spec(items), SHARDS, policy=policy, mode="thread",
        policy_params=params,
    ) as pool:
        cross = 0
        decisions = 0
        start = time.perf_counter()
        remaining = items
        while remaining:
            take = min(CHUNK, remaining)
            shards, _ = pool.place_batch(take)
            homes = (np.arange(decisions, decisions + take)) % ZONES
            cross += int(np.count_nonzero(shard_zone[shards] != homes))
            decisions += take
            remaining -= take
        elapsed = time.perf_counter() - start
        placed = pool.placed
        summary = pool.summary()
    assert placed == items
    line: Dict[str, Any] = {
        "policy": policy,
        "shards": SHARDS,
        "zones": ZONES,
        "items_per_sec": int(items / elapsed),
        "cross_zone_fraction": round(cross / items, 4),
    }
    if "cross_routes" in summary:
        line["router_cross_routes"] = summary["cross_routes"]
        line["router_route_cost"] = summary["route_cost"]
    return line


def _compare(items: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    flat = _drive_pool("two_choice", items)
    zoned = _drive_pool("topology", items)
    assert zoned["cross_zone_fraction"] < flat["cross_zone_fraction"], (
        f"topology router placed {zoned['cross_zone_fraction']:.2%} of items "
        f"cross-zone — not below two_choice's {flat['cross_zone_fraction']:.2%}"
    )
    ratio = zoned["items_per_sec"] / max(flat["items_per_sec"], 1)
    assert ratio >= MIN_RATE_RATIO, (
        f"topology router sustained only {ratio:.2f}x of two_choice's "
        f"placements/sec (needs >= {MIN_RATE_RATIO}x)"
    )
    return flat, zoned


def test_flat_topology_is_parity_free():
    """Cheap bit-for-bit pin that runs everywhere."""
    _assert_flat_parity()


def test_topology_router_beats_two_choice_on_cross_zone_fraction():
    """The headline acceptance: locality without a throughput cliff."""
    _compare(items=40_000)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, default=ITEMS)
    parser.add_argument("--output", type=str, default="BENCH_TOPOLOGY.json")
    args = parser.parse_args(argv)

    _assert_flat_parity()
    flat, zoned = _compare(args.items)

    from bench_envelope import write_envelope

    print(
        f"two_choice  {flat['items_per_sec']:>10,}/s  "
        f"cross-zone {flat['cross_zone_fraction']:.2%}\n"
        f"topology    {zoned['items_per_sec']:>10,}/s  "
        f"cross-zone {zoned['cross_zone_fraction']:.2%}"
    )
    output = Path(args.output)
    write_envelope(
        output, "BENCH_TOPOLOGY", args.items,
        {"router_two_choice": flat, "router_topology": zoned},
    )
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
