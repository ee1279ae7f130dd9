"""The allocation server with spans around each layer: the traced serve run.

Hosts the same ``AllocationServer`` that ``repro serve`` runs, configured
the same way, after wrapping the calls into each layer:

* ``repro.serve.protocol``: ``decode_request`` and ``encode`` as the server
  module calls them (frontend thread);
* ``repro.serve.router``: ``Router.route_batch`` (pool thread);
* ``repro.serve.pool``: ``ShardPool.place_batch`` and ``ShardPool.remove``
  (pool thread), wall and thread-CPU time, with each call's result logged;
* the event loop's selector wait, so the frontend thread's idle time is
  measured rather than inferred.

The ``stats`` reply gains a ``bench_clock`` entry (monotonic time and the
CPU time of the frontend and pool threads), so the load generator can cut
the spans into its phases.  Spans stay in memory until the server stops.
Then the logged pool calls are replayed into standalone ``OnlineAllocator``
instances built from ``pool.shard_specs`` (timing the allocator alone and
checking that each replayed bin equals the served one), and everything is
written to the ``--spans`` file as NumPy arrays.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_server.py --items N --seed S \\
        --port-file PORT --spans SPANS.npz
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import os
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

import serve_bench


class Spans:
    """Named columns of floats, appended to by the wrappers."""

    def __init__(self) -> None:
        self.columns: Dict[str, array] = {}

    def column(self, name: str) -> array:
        return self.columns.setdefault(name, array("d"))

    def wrap(self, name: str, fn: Callable, cpu: bool = False) -> Callable:
        """``fn`` recording start and duration (and thread CPU) per call."""
        starts, walls = self.column(f"{name}.t0"), self.column(f"{name}.wall")
        cpus = self.column(f"{name}.cpu") if cpu else None

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            cpu0 = time.thread_time() if cpus is not None else 0.0
            t0 = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                walls.append(time.monotonic() - t0)
                starts.append(t0)
                if cpus is not None:
                    cpus.append(time.thread_time() - cpu0)

        return wrapper


def _pool_thread_cpu() -> float:
    for thread in threading.enumerate():
        if thread.name.startswith("repro-serve-pool") and thread.ident:
            return time.clock_gettime(time.pthread_getcpuclockid(thread.ident))
    return 0.0


def instrument(spans: Spans, calls: List[tuple]) -> None:
    """Install the layer wrappers (see the module docstring)."""
    import repro.serve.server as server_module
    from repro.serve.pool import ShardPool
    from repro.serve.router import Router

    server_module.decode_request = spans.wrap(
        "protocol.decode", server_module.decode_request
    )
    server_module.encode = spans.wrap("protocol.encode", server_module.encode)

    route_counts = spans.column("router.route_batch.count")
    route_batch = Router.route_batch

    def counted_route(self: Router, count: int, shard_loads: Any) -> Any:
        route_counts.append(count)
        return route_batch(self, count, shard_loads)

    Router.route_batch = spans.wrap("router.route_batch", counted_route, cpu=True)

    place_batch = ShardPool.place_batch

    def logged_place_batch(self: ShardPool, count: int, items: Any = None) -> Any:
        shards, bins = place_batch(self, count, items)
        calls.append(("place", list(items) if items is not None else None, shards, bins))
        return shards, bins

    remove = ShardPool.remove

    def logged_remove(self: ShardPool, item: Any) -> Any:
        shard, bin_index = remove(self, item)
        calls.append(("remove", item, shard, bin_index))
        return shard, bin_index

    ShardPool.place_batch = spans.wrap("pool.place_batch", logged_place_batch, cpu=True)
    ShardPool.remove = spans.wrap("pool.remove", logged_remove, cpu=True)

    server_stats = server_module.AllocationServer.server_stats

    def clocked_stats(self: Any) -> Dict[str, Any]:
        stats = server_stats(self)
        stats["bench_clock"] = {
            "t": time.monotonic(),
            "main_cpu": time.thread_time(),
            "pool_cpu": _pool_thread_cpu(),
        }
        return stats

    server_module.AllocationServer.server_stats = clocked_stats


def replay(shard_specs: List[Any], calls: List[tuple], spans: Spans) -> None:
    """Time the logged pool calls on standalone allocators, one per shard.

    Per ``place_batch`` call this records the slowest shard's allocator
    time (the shards run side by side in the pool) and the sum over
    shards; per ``remove`` call, the one shard's time.  The columns line up
    with the ``pool.place_batch`` and ``pool.remove`` spans.
    """
    from repro.online import OnlineAllocator

    allocators = [OnlineAllocator(spec) for spec in shard_specs]
    slowest = spans.column("allocator.place_batch.slowest")
    total = spans.column("allocator.place_batch.total")
    items_per_call = spans.column("allocator.place_batch.items")
    removes = spans.column("allocator.remove")
    for kind, payload, shards, bins in calls:
        if kind == "remove":
            t0 = time.monotonic()
            got = allocators[shards].remove(payload)
            removes.append(time.monotonic() - t0)
            if got != bins:
                raise RuntimeError(
                    f"replayed remove of {payload!r} left bin {got}, served {bins}"
                )
            continue
        worst = spent = 0.0
        for shard, allocator in enumerate(allocators):
            where = np.flatnonzero(shards == shard)
            if len(where) == 0:
                continue
            items = [payload[p] for p in where] if payload is not None else None
            t0 = time.monotonic()
            got = allocator.place_batch(len(where), items=items)
            elapsed = time.monotonic() - t0
            if not np.array_equal(got, bins[where]):
                raise RuntimeError(
                    f"replayed placements on shard {shard} differ from the served bins"
                )
            worst = max(worst, elapsed)
            spent += elapsed
        slowest.append(worst)
        total.append(spent)
        items_per_call.append(len(shards))


async def serve(args: argparse.Namespace, spans: Spans) -> Any:
    from repro.api import SchemeSpec
    from repro.serve import AllocationServer, ServeConfig

    loop = asyncio.get_running_loop()
    selector = loop._selector  # the loop's idle wait; private but stable since 3.4
    selector.select = spans.wrap("loop.idle", selector.select)
    spec = SchemeSpec(
        scheme="kd_choice",
        params={
            "n_bins": serve_bench.N_BINS, "k": serve_bench.K, "d": serve_bench.D,
            "n_balls": args.items,
        },
        seed=args.seed,
    )
    server = AllocationServer(
        spec,
        ServeConfig(n_shards=serve_bench.SHARDS, policy="two_choice", mode="process"),
    )
    await server.start()
    tmp = f"{args.port_file}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(f"{server.port}\n")
    os.replace(tmp, args.port_file)
    await server.serve_forever()
    return server


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--items", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port-file", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()
    spans = Spans()
    calls: List[tuple] = []
    instrument(spans, calls)
    server = asyncio.run(serve(args, spans))
    replay(server.pool.shard_specs, calls, spans)
    np.savez(args.spans, **{name: np.asarray(col) for name, col in spans.columns.items()})


if __name__ == "__main__":
    main()
