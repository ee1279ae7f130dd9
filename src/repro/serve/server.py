"""The asyncio frontend: NDJSON over TCP, run in self-clocked ordered windows.

:class:`AllocationServer` owns a :class:`~repro.serve.pool.ShardPool` and
serves the :mod:`~repro.serve.protocol` over TCP.  Every mutating request
(place, place_batch, remove, snapshot) — from any number of connections —
joins one queue in arrival order.  The batcher takes everything queued
(up to ``max_batch`` ops) as one *window* and runs it on the pool thread in
a single executor job, inside one :meth:`ShardPool.window`: each run of
``place`` requests becomes one :meth:`ShardPool.place_batch` call, riding
the allocator's batched ingestion path, and removes, batches and snapshots
run in their arrival positions.  Neither a place nor a remove messages a
shard on its own: the pool routes against its own shard counts, answers
removes from its ``(shard, bin)`` map, and queues both in each shard's
ordered outbox; when the window ends, each busy shard gets one envelope
and the places' bins are filled in.  A failed exchange anywhere in the
window fails every place of that window; removes keep their answers.  The
window is self-clocked: while the pool thread works, the next window
collects, so there is no timer — a lone request is served at once and load
grows the windows by itself.

Ordering semantics: the pool sees every mutating operation in arrival
order, so a ``remove`` acts after the places queued before it and a
``snapshot`` captures exactly the operations queued ahead of it — the
written manifest is a consistent cut.  Responses may return out of order
(clients match them by ``id``).

All pool work runs on a dedicated single-thread executor: the event loop
never blocks on shard IPC, and pool state is touched by exactly one thread.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..api.spec import SchemeSpec
from .pool import ShardPool, ShardPoolError
from .protocol import (
    ProtocolError,
    decode_request,
    encode,
    error_response,
    ok_response,
)

__all__ = ["ServeConfig", "AllocationServer"]


@dataclass
class ServeConfig:
    """Tunables of one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port off ``server.port``
    n_shards: int = 1
    policy: str = "two_choice"
    mode: str = "process"
    policy_params: Dict[str, Any] = field(default_factory=dict)
    max_batch: int = 1024  #: queued ops taken into one window at most
    snapshot_on_exit: Optional[str] = None  #: manifest path written by stop()

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {self.max_batch}")


class _Stop:
    """Queue sentinel ending the batch loop."""


_STOP = _Stop()


class AllocationServer:
    """One shard pool behind a windowed TCP frontend.

    Build it with a spec (the pool is created on :meth:`start`) or hand it a
    pre-built pool.  Typical lifecycle::

        server = AllocationServer(spec, ServeConfig(n_shards=4))
        await server.start()
        ...                       # port available as server.port
        await server.serve_forever()   # returns after stop()/shutdown op
    """

    def __init__(
        self,
        spec: Optional[SchemeSpec] = None,
        config: Optional[ServeConfig] = None,
        pool: Optional[ShardPool] = None,
    ) -> None:
        if (spec is None) == (pool is None):
            raise ValueError("pass exactly one of spec= or pool=")
        self.spec = spec if spec is not None else pool.spec
        self.config = config if config is not None else ServeConfig()
        self.pool = pool
        self._server: Optional[asyncio.base_events.Server] = None
        self._port: Optional[int] = None
        # The queue and the stopped event are created inside start() — on
        # Python 3.9 asyncio primitives bind to the loop that is running at
        # construction time, and the server object may be built before any
        # loop exists.
        self._queue: "Optional[asyncio.Queue[Any]]" = None
        self._batcher: Optional[asyncio.Task] = None
        self._pool_executor = concurrent.futures.ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve-pool"
        )
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        # Open connections: each one's reader and its handler task, so
        # stop() can end them.
        self._connections: Dict[asyncio.StreamReader, asyncio.Task] = {}
        # Counters reported by the stats op (and the CI smoke step).
        self.requests = 0
        self.places = 0
        self.removes = 0
        self.protocol_errors = 0
        self.windows = 0  # pool jobs, one per window
        self.window_ops = 0
        self.batches = 0  # place_batch calls made for place requests
        self.batched_places = 0
        self.largest_batch = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`, survives close)."""
        if self._port is None:
            raise RuntimeError("the server has not been started")
        return self._port

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        if self.pool is None:
            config = self.config
            self.pool = await loop.run_in_executor(
                self._pool_executor,
                lambda: ShardPool(
                    self.spec,
                    config.n_shards,
                    policy=config.policy,
                    mode=config.mode,
                    policy_params=config.policy_params,
                ),
            )
        self._batcher = asyncio.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Drain the pipeline, optionally snapshot, shut everything down."""
        if self._stopped is None:
            raise RuntimeError("the server has not been started")
        if self._stopping:
            await self._stopped.wait()
            return
        self._stopping = True
        if self._server is not None:
            self._server.close()
            # Wake every handler blocked on its next request line; each
            # finishes its in-flight requests and closes its connection.
            handlers = list(self._connections.values())
            for reader in self._connections:
                reader.set_exception(ConnectionAbortedError("the server is stopping"))
            await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._queue.put(_STOP)
            await self._batcher
        if self.pool is not None:
            loop = asyncio.get_running_loop()
            if self.config.snapshot_on_exit:
                await loop.run_in_executor(
                    self._pool_executor,
                    self.pool.save,
                    self.config.snapshot_on_exit,
                )
            await loop.run_in_executor(self._pool_executor, self.pool.close)
        self._pool_executor.shutdown(wait=True)
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (shutdown op or external)."""
        if self._stopped is None:
            raise RuntimeError("the server has not been started")
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # The serve window
    # ------------------------------------------------------------------
    async def _pool_call(self, fn: Any, *args: Any) -> Any:
        return await asyncio.get_running_loop().run_in_executor(
            self._pool_executor, fn, *args
        )

    async def _batch_loop(self) -> None:
        """Take every queued entry as one window; run it in arrival order.

        The window is self-clocked: whatever queued while the pool thread
        ran the previous window is the next one (up to ``max_batch`` ops),
        so there is no timer and no op closes a window early.
        """
        loop = asyncio.get_running_loop()
        queue = self._queue
        max_batch = self.config.max_batch
        stopping = False
        while not stopping:
            entry = await queue.get()
            if entry is _STOP:
                break
            window = [entry]
            while len(window) < max_batch and not queue.empty():
                entry = queue.get_nowait()
                if entry is _STOP:
                    stopping = True
                    break
                window.append(entry)
            steps = self._plan(window)
            outcomes = await loop.run_in_executor(
                self._pool_executor, self._run_window, steps
            )
            self._resolve(steps, outcomes)
        # Drain anything queued behind the stop sentinel.
        while not queue.empty():
            entry = queue.get_nowait()
            if entry is _STOP:
                continue
            future = entry[2]
            if not future.done():
                future.set_exception(ShardPoolError("the server is stopping"))

    def _plan(self, window: List[Tuple[str, Any, "asyncio.Future"]]) -> List[tuple]:
        """Group a window into pool calls, keeping arrival order.

        Each maximal run of places with the same tracked-ness becomes one
        ``place_batch`` step (the pool takes all-or-none item ids); every
        other entry is a step of its own.  Grouping never changes a result:
        ``place_batch`` is bit-identical to the same places one by one.
        """
        self.windows += 1
        self.window_ops += len(window)
        steps: List[tuple] = []
        run: Optional[List[Any]] = None
        for kind, payload, future in window:
            if kind != "place":
                run = None
                steps.append((kind, payload, [future]))
                continue
            if run is None or (payload is None) != (run[0] is None):
                run, run_futures = [], []
                steps.append(("place", run, run_futures))
                self.batches += 1
            run.append(payload)
            run_futures.append(future)
            self.batched_places += 1
            self.largest_batch = max(self.largest_batch, len(run))
        return steps

    def _run_window(self, steps: List[tuple]) -> List[Any]:
        """Pool thread: run each step in order; one result or error each.

        The steps run inside one pool window, so the places reach their
        shards in one exchange when it ends; if any exchange of the window
        failed, every place of the window fails with it.
        """
        pool = self.pool
        outcomes: List[Any] = []
        try:
            with pool.window():
                for kind, payload, _ in steps:
                    try:
                        if kind == "place":
                            outcome = pool.place_batch(
                                len(payload),
                                payload if payload[0] is not None else None,
                            )
                        elif kind == "remove":
                            outcome = pool.remove(payload)
                        elif kind == "batch":
                            outcome = pool.place_batch(payload, None)
                        else:
                            outcome = pool.save(payload)
                    except (ShardPoolError, ValueError, OSError) as exc:
                        outcome = ShardPoolError(str(exc))
                    outcomes.append(outcome)
        except ShardPoolError as exc:
            outcomes = [
                ShardPoolError(str(exc)) if kind in ("place", "batch") else outcome
                for (kind, _, _), outcome in zip(steps, outcomes)
            ]
        return outcomes

    def _resolve(self, steps: List[tuple], outcomes: List[Any]) -> None:
        """Resolve each step's futures with its outcome."""
        for (kind, payload, futures), outcome in zip(steps, outcomes):
            if isinstance(outcome, ShardPoolError):
                for future in futures:
                    if not future.done():
                        future.set_exception(ShardPoolError(str(outcome)))
                continue
            if kind == "place":
                self.places += len(futures)
                shards, bins = outcome
                results: Any = zip(shards.tolist(), bins.tolist())
            else:
                if kind == "batch":
                    self.places += payload
                results = [outcome]
            for future, result in zip(futures, results):
                if not future.done():
                    future.set_result(result)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        # Only in-flight requests: a finished task drops out of the set.
        tasks: Set[asyncio.Task] = set()
        if not self._stopping:
            self._connections[reader] = asyncio.current_task()
        try:
            while not self._stopping:
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                # One task per request: responses go out as they resolve
                # (matched by id), so a pipelining client keeps the batch
                # window full instead of ping-ponging per request.
                task = asyncio.create_task(
                    self._serve_request(line, writer, write_lock)
                )
                tasks.add(task)
                task.add_done_callback(tasks.discard)
                del task  # the set alone keeps it, and only while in flight
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass
            self._connections.pop(reader, None)

    async def _serve_request(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        self.requests += 1
        request_id: Any = None
        try:
            request = decode_request(line)
            request_id = request.get("id")
            response = await self._dispatch(request)
        except ProtocolError as exc:
            self.protocol_errors += 1
            response = error_response(request_id, str(exc))
        except (ShardPoolError, ValueError) as exc:
            response = error_response(request_id, str(exc))
        async with write_lock:
            writer.write(encode(response))
            try:
                await writer.drain()
            except ConnectionError:
                pass

    async def _dispatch(self, request: Dict[str, Any]) -> Dict[str, Any]:
        op = request["op"]
        request_id = request.get("id")
        loop = asyncio.get_running_loop()
        if op == "ping":
            return ok_response(request_id, op="ping")
        if op == "place":
            future: "asyncio.Future" = loop.create_future()
            self._queue.put_nowait(("place", request.get("item"), future))
            shard, bin_index = await future
            return ok_response(request_id, shard=shard, bin=bin_index)
        if op == "place_batch":
            future = loop.create_future()
            self._queue.put_nowait(("batch", request["count"], future))
            shards, bins = await future
            return ok_response(
                request_id,
                shards=[int(s) for s in shards],
                bins=[int(b) for b in bins],
            )
        if op == "remove":
            future = loop.create_future()
            self._queue.put_nowait(("remove", request["item"], future))
            shard, bin_index = await future
            self.removes += 1
            return ok_response(request_id, shard=shard, bin=bin_index)
        if op == "stats":
            pool_summary = await self._pool_call(self.pool.summary)
            return ok_response(
                request_id, server=self.server_stats(), pool=pool_summary
            )
        if op == "snapshot":
            future = loop.create_future()
            self._queue.put_nowait(("snapshot", request["path"], future))
            manifest = await future
            return ok_response(
                request_id,
                path=request["path"],
                shards=len(manifest["shards"]),
            )
        if op == "shutdown":
            # Respond first, then tear down (the response must get out
            # before the connection dies with the server).
            asyncio.create_task(self.stop())
            return ok_response(request_id, op="shutdown")
        raise ProtocolError(f"unknown op {op!r}")  # pragma: no cover

    def server_stats(self) -> Dict[str, Any]:
        """Frontend counters (window and batch sizes, error counts) and the
        pool's shard exchanges."""
        mean_batch = (
            self.batched_places / self.batches if self.batches else 0.0
        )
        mean_window = self.window_ops / self.windows if self.windows else 0.0
        return {
            "requests": self.requests,
            "places": self.places,
            "removes": self.removes,
            "protocol_errors": self.protocol_errors,
            "windows": self.windows,
            "mean_window": mean_window,
            "batches": self.batches,
            "batched_places": self.batched_places,
            "largest_batch": self.largest_batch,
            "mean_batch": mean_batch,
            "max_batch": self.config.max_batch,
            "pool_exchanges": self.pool.exchanges if self.pool is not None else 0,
        }
