"""The load generator: drive a running allocation server, measure it.

``repro loadgen`` is the companion of ``repro serve``: it builds a
deterministic request stream from the workload registry that powers
``repro stream`` and ``simulate`` (:mod:`repro.workloads` — the same
``(workload, params, seed)`` triple yields the identical event list on
every surface), fans it out over N pipelined connections, and reports
sustained placements/sec plus latency percentiles and the server's
batching counters.

The *request stream* is deterministic (fixed seed -> same events, same
per-connection partition); the *measurements* are wall-clock.  Events are
fired flat-out (arrival timestamps shape the trace, they are not used to
pace transmission) — the generator measures what the server can sustain,
not what the arrival process would offer.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..workloads import generate_events
from .client import ServeClient, ServeError

__all__ = ["LoadgenReport", "run_loadgen", "loadgen"]


@dataclass
class LoadgenReport:
    """Outcome of one loadgen run against a live server."""

    events: int
    places: int
    removes: int
    errors: int
    connections: int
    wall_time: float
    placements_per_sec: float
    latency_ms: Dict[str, float]
    server: Dict[str, Any] = field(default_factory=dict)
    pool: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events": self.events,
            "places": self.places,
            "removes": self.removes,
            "errors": self.errors,
            "connections": self.connections,
            "wall_time": self.wall_time,
            "placements_per_sec": self.placements_per_sec,
            "latency_ms": dict(self.latency_ms),
            "server": dict(self.server),
            "pool": dict(self.pool),
        }

    def format_text(self) -> str:
        lines = [
            f"loadgen: {self.events} events ({self.places} places, "
            f"{self.removes} removes, {self.errors} errors) "
            f"over {self.connections} connections",
            f"  wall_time: {self.wall_time:.3f} s",
            f"  placements_per_sec: {self.placements_per_sec:,.0f}",
            "  latency_ms: "
            + ", ".join(
                f"{key}={value:.3f}" for key, value in self.latency_ms.items()
            ),
        ]
        if self.server:
            lines.append(
                f"  server: requests={self.server['requests']}, "
                f"windows={self.server['windows']}, "
                f"mean_window={self.server['mean_window']:.1f}, "
                f"batches={self.server['batches']}, "
                f"mean_batch={self.server['mean_batch']:.1f}, "
                f"largest_batch={self.server['largest_batch']}, "
                f"pool_exchanges={self.server['pool_exchanges']}"
            )
        if self.pool:
            lines.append(
                f"  pool: shards={self.pool['n_shards']} "
                f"(policy={self.pool['policy']}), "
                f"placed={self.pool['placed']}, "
                f"removed={self.pool['removed']}, "
                f"shard_removed={self.pool['shard_removed']}, "
                f"live_items={self.pool['live_items']}, "
                f"max_load={self.pool['max_load']}, "
                f"shard_items={self.pool['shard_items']}"
            )
        if self.pool and "cross_routes" in self.pool:
            lines.append(
                f"  routing: cross_routes={self.pool['cross_routes']} "
                f"(fraction={self.pool['cross_route_fraction']:.4f}), "
                f"route_cost={self.pool['route_cost']:.1f}"
            )
        return "\n".join(lines)


class _Tally:
    """Mutable counters shared by the connection drivers."""

    def __init__(self) -> None:
        self.places = 0
        self.removes = 0
        self.errors = 0
        self.latencies: List[float] = []


async def _drive_connection(
    host: str,
    port: int,
    events: List[Dict[str, Any]],
    max_in_flight: int,
    tally: _Tally,
) -> None:
    """Fire one connection's event subsequence with a bounded window.

    Requests pipeline (up to ``max_in_flight`` outstanding); within the
    connection they are *written* in event order, which is what lets the
    server's arrival-order semantics guarantee a place lands before the
    remove of the same item.
    """
    client = await ServeClient.connect(host, port)
    window = asyncio.Semaphore(max_in_flight)
    tasks: List[asyncio.Task] = []

    async def fire(event: Dict[str, Any]) -> None:
        try:
            started = time.perf_counter()
            if event["op"] == "place":
                await client.place(event.get("item"))
                tally.places += 1
            else:
                await client.remove(event["item"])
                tally.removes += 1
            tally.latencies.append(time.perf_counter() - started)
        except ServeError:
            tally.errors += 1
        finally:
            window.release()

    try:
        for event in events:
            await window.acquire()
            tasks.append(asyncio.create_task(fire(event)))
        if tasks:
            await asyncio.gather(*tasks)
    finally:
        await client.close()


def _partition_events(
    events: List[Dict[str, Any]], connections: int
) -> List[List[Dict[str, Any]]]:
    """Split the stream by item id, keeping each item's events together.

    A remove must travel on the connection that placed the item (ordering
    is per-connection), so events partition by ``item % connections`` —
    every event carries the item id it concerns.
    """
    parts: List[List[Dict[str, Any]]] = [[] for _ in range(connections)]
    for event in events:
        parts[event["item"] % connections].append(event)
    return parts


async def run_loadgen(
    host: str,
    port: int,
    items: int,
    connections: int = 4,
    max_in_flight: int = 64,
    seed: Optional[int] = 0,
    collect_stats: bool = True,
    shutdown_after: bool = False,
    workload: str = "uniform",
    workload_params: Optional[Dict[str, Any]] = None,
) -> LoadgenReport:
    """Drive ``items`` placements (plus churn) at the server; measure.

    The event stream is the registry's ``generate_events(workload, items,
    workload_params, seed)``, verbatim — the same events ``repro stream``
    and ``simulate`` consume for that triple.  It and its partition over
    connections are deterministic in ``seed``; see the module docstring for
    what is and is not measured.
    ``shutdown_after`` sends the shutdown op once the stream (and the final
    stats read) completes — the clean-exit path the CI smoke step uses.
    """
    if connections < 1:
        raise ValueError(f"connections must be positive, got {connections}")
    if max_in_flight < 1:
        raise ValueError(
            f"max_in_flight must be positive, got {max_in_flight}"
        )
    events = generate_events(workload, items, workload_params, seed)
    connections = min(connections, max(1, items))
    parts = _partition_events(events, connections)
    tally = _Tally()
    started = time.perf_counter()
    await asyncio.gather(
        *(
            _drive_connection(host, port, part, max_in_flight, tally)
            for part in parts
            if part
        )
    )
    wall_time = max(time.perf_counter() - started, 1e-12)
    server_stats: Dict[str, Any] = {}
    pool_stats: Dict[str, Any] = {}
    if collect_stats or shutdown_after:
        client = await ServeClient.connect(host, port)
        try:
            if collect_stats:
                stats = await client.stats()
                server_stats = stats["server"]
                pool_stats = stats["pool"]
                # Per-shard detail is verbose; keep the shards' remove total.
                pool_stats["shard_removed"] = sum(
                    shard["removed"] for shard in pool_stats.pop("shards")
                )
            if shutdown_after:
                await client.shutdown()
        finally:
            await client.close()
    if tally.latencies:
        values = np.percentile(
            np.asarray(tally.latencies) * 1000.0, (50, 95, 99)
        )
        latency_ms = {
            "p50": float(values[0]),
            "p95": float(values[1]),
            "p99": float(values[2]),
            "mean": float(np.mean(tally.latencies) * 1000.0),
            "max": float(np.max(tally.latencies) * 1000.0),
        }
    else:
        latency_ms = {"p50": 0.0, "p95": 0.0, "p99": 0.0, "mean": 0.0, "max": 0.0}
    return LoadgenReport(
        events=len(events),
        places=tally.places,
        removes=tally.removes,
        errors=tally.errors,
        connections=connections,
        wall_time=wall_time,
        placements_per_sec=tally.places / wall_time,
        latency_ms=latency_ms,
        server=server_stats,
        pool=pool_stats,
    )


def loadgen(**kwargs: Any) -> LoadgenReport:
    """Synchronous wrapper: ``asyncio.run(run_loadgen(...))``."""
    return asyncio.run(run_loadgen(**kwargs))
