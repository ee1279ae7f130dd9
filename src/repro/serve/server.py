"""The asyncio frontend: NDJSON over TCP, run in self-clocked ordered windows.

:class:`AllocationServer` owns a :class:`~repro.serve.pool.ShardPool` and
serves the :mod:`~repro.serve.protocol` over TCP.  Every mutating request
(place, place_batch, remove, snapshot) — from any number of connections —
joins one queue in arrival order.  The batcher takes everything queued
(up to ``max_batch`` ops) as one *window* and runs it on the event loop,
inside one :meth:`ShardPool.window`: each run of
``place`` requests becomes one :meth:`ShardPool.place_batch` call, riding
the allocator's batched ingestion path, and removes, batches and snapshots
run in their arrival positions.  Neither a place nor a remove messages a
shard on its own: the pool routes against its own shard counts, answers
removes from its ``(shard, bin)`` map, and queues both in each shard's
ordered outbox; when the window ends, each busy shard gets one envelope
and the places' bins are filled in.  A failed exchange anywhere in the
window fails every place of that window; removes keep their answers.  The
window is self-clocked: the lines that arrive while a window runs are read
before the next one is taken, so there is no timer — a lone request is
served at once and load grows the windows by itself.

Ordering semantics: the pool sees every mutating operation in arrival
order, so a ``remove`` acts after the places queued before it and a
``snapshot`` captures exactly the operations queued ahead of it — the
written manifest is a consistent cut.  Responses may return out of order
(clients match them by ``id``).

The connection layer makes no task, future or lock per request.  Each
connection's reader decodes its lines and answers ``ping``, ``stats``,
``shutdown`` and malformed lines at once; every mutating request goes on
the window queue tagged with its connection.  When a window resolves, its
answers are grouped by connection and each connection gets one write.
Backpressure is per connection, at its reader: before it reads the next
line, a reader whose write buffer is not empty awaits ``drain()``, so a
client that stops reading stalls only its own connection and never the
batch loop.  :meth:`AllocationServer.stop` gives such a connection
:data:`STOP_GRACE_S` seconds, then aborts it.

Everything runs on the event loop's thread: the pool is built, serves its
windows and is saved and closed there, so pool state is touched by exactly
one thread.  Process shards still compute side by side: a window's closing
exchange sends to every busy shard before it reads any reply.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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

#: Seconds :meth:`AllocationServer.stop` lets its connections finish after
#: it wakes their readers; a connection still blocked then, on a client that
#: does not read its answers, is aborted.
STOP_GRACE_S = 1.0


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

#: Mutating ops: the window step kind each becomes, and the request field
#: that is its payload.
_WINDOW_OPS = {
    "place": ("place", "item"),
    "remove": ("remove", "item"),
    "place_batch": ("batch", "count"),
    "snapshot": ("snapshot", "path"),
}


class _Connection:
    """One client connection and the answers it is still owed."""

    __slots__ = ("reader", "writer", "transport", "pending", "idle")

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.transport = writer.transport
        self.pending = 0  # queued requests not yet answered
        # Set when ``pending`` reaches zero after the reader has ended.
        self.idle: "Optional[asyncio.Future[None]]" = None

    def send(self, answers: List[bytes]) -> None:
        """Write owed answers as one write; none once the transport closes."""
        if not self.transport.is_closing():
            self.writer.write(b"".join(answers))
        self.pending -= len(answers)
        if not self.pending and self.idle is not None and not self.idle.done():
            self.idle.set_result(None)


class AllocationServer:
    """One shard pool behind a windowed TCP frontend, on one event loop.

    The connections, the windows and the pool's shard exchanges all run on
    the loop that awaits :meth:`start`; no thread is started.  Build it
    with a spec (the pool is created on :meth:`start`) or hand it a
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
        self._stopped: Optional[asyncio.Event] = None
        self._stopping = False
        self._shutdown: Optional[asyncio.Task] = None  # stop() run by the op
        # Open connections and their handler tasks, so stop() can end them.
        self._connections: Dict[_Connection, asyncio.Task] = {}
        # Counters reported by the stats op (and the CI smoke step).
        self.requests = 0
        self.places = 0
        self.removes = 0
        self.protocol_errors = 0
        self.windows = 0
        self.window_ops = 0
        self.batches = 0  # place_batch calls made for place requests
        self.batched_places = 0
        self.largest_batch = 0
        self.aborted_connections = 0  # still blocked when stop()'s grace ended

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
        self._queue = asyncio.Queue()
        self._stopped = asyncio.Event()
        if self.pool is None:
            config = self.config
            self.pool = ShardPool(
                self.spec,
                config.n_shards,
                policy=config.policy,
                mode=config.mode,
                policy_params=config.policy_params,
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
            # One parked in drain() by a client that does not read is not
            # woken, so it is aborted once the grace period ends.
            for connection in self._connections:
                connection.reader.set_exception(
                    ConnectionAbortedError("the server is stopping")
                )
            handlers = list(self._connections.values())
            if handlers:
                _, blocked = await asyncio.wait(handlers, timeout=STOP_GRACE_S)
                for connection, handler in self._connections.items():
                    if handler in blocked:
                        self.aborted_connections += 1
                        connection.transport.abort()
                await asyncio.gather(*handlers, return_exceptions=True)
            await self._server.wait_closed()
        if self._batcher is not None:
            await self._queue.put(_STOP)
            await self._batcher
        if self.pool is not None:
            if self.config.snapshot_on_exit:
                self.pool.save(self.config.snapshot_on_exit)
            self.pool.close()
        self._stopped.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (shutdown op or external)."""
        if self._stopped is None:
            raise RuntimeError("the server has not been started")
        await self._stopped.wait()

    # ------------------------------------------------------------------
    # The serve window
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        """Take every queued entry as one window; run it in arrival order.

        The window is self-clocked: whatever queued while the previous
        window ran is the next one (up to ``max_batch`` ops), so there is
        no timer and no op closes a window early.
        """
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
            self._resolve(steps, self._run_window(steps))
        # Refuse anything queued behind the stop sentinel.
        rest = []
        while not queue.empty():
            entry = queue.get_nowait()
            if entry is not _STOP:
                rest.append((entry[0], entry[1], [entry[2]]))
        self._resolve(rest, [ShardPoolError("the server is stopping")] * len(rest))

    def _plan(self, window: List[Tuple[str, Any, tuple]]) -> List[tuple]:
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
        for kind, payload, tag in window:
            if kind != "place":
                run = None
                steps.append((kind, payload, [tag]))
                continue
            if run is None or (payload is None) != (run[0] is None):
                run, run_tags = [], []
                steps.append(("place", run, run_tags))
                self.batches += 1
            run.append(payload)
            run_tags.append(tag)
            self.batched_places += 1
            self.largest_batch = max(self.largest_batch, len(run))
        return steps

    def _run_window(self, steps: List[tuple]) -> List[Any]:
        """Run each step in order; one result or error each.

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
        """Answer each step's requests: one write per connection touched.

        A step's tags are ``(connection, request id)`` pairs, one per
        request it carries.
        """
        owed: Dict[_Connection, List[bytes]] = {}
        for (kind, payload, tags), outcome in zip(steps, outcomes):
            if isinstance(outcome, ShardPoolError):
                message = str(outcome)
                responses = [error_response(rid, message) for _, rid in tags]
            elif kind == "place":
                self.places += len(tags)
                shards, bins = outcome
                responses = [
                    ok_response(rid, shard=shard, bin=bin_index)
                    for (_, rid), shard, bin_index in zip(
                        tags, shards.tolist(), bins.tolist()
                    )
                ]
            else:
                rid = tags[0][1]
                if kind == "batch":
                    self.places += payload
                    shards, bins = outcome
                    response = ok_response(
                        rid, shards=shards.tolist(), bins=bins.tolist()
                    )
                elif kind == "remove":
                    self.removes += 1
                    shard, bin_index = outcome
                    response = ok_response(rid, shard=shard, bin=bin_index)
                else:
                    response = ok_response(
                        rid, path=payload, shards=len(outcome["shards"])
                    )
                responses = [response]
            for (connection, _), response in zip(tags, responses):
                answers = owed.get(connection)
                if answers is None:
                    answers = owed[connection] = []
                answers.append(encode(response))
        for connection, answers in owed.items():
            connection.send(answers)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        connection = _Connection(reader, writer)
        if not self._stopping:
            self._connections[connection] = asyncio.current_task()
        transport = writer.transport
        queue = self._queue
        try:
            while not self._stopping:
                # Backpressure: a client that does not read its answers
                # stalls here, on its own connection; the batch loop never
                # waits for a socket.
                if transport.get_write_buffer_size():
                    await writer.drain()
                line = await reader.readline()
                if not line:
                    break
                if not line.strip():
                    continue
                self.requests += 1
                try:
                    request = decode_request(line)
                except ProtocolError as exc:
                    self.protocol_errors += 1
                    writer.write(encode(error_response(None, str(exc))))
                    continue
                op = request["op"]
                request_id = request.get("id")
                queued = _WINDOW_OPS.get(op)
                if queued is not None:
                    kind, field_name = queued
                    queue.put_nowait(
                        (kind, request.get(field_name), (connection, request_id))
                    )
                    connection.pending += 1
                elif op == "stats":
                    try:
                        response = ok_response(
                            request_id,
                            pool=self.pool.summary(),
                            server=self.server_stats(),
                        )
                    except (ShardPoolError, ValueError) as exc:
                        response = error_response(request_id, str(exc))
                    writer.write(encode(response))
                elif op == "ping":
                    writer.write(encode(ok_response(request_id, op="ping")))
                else:  # shutdown: answer first, then tear down
                    writer.write(encode(ok_response(request_id, op="shutdown")))
                    self._shutdown = asyncio.create_task(self.stop())
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            if connection.pending:
                connection.idle = asyncio.get_running_loop().create_future()
                await connection.idle
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:  # pragma: no cover
                pass
            self._connections.pop(connection, None)

    def server_stats(self) -> Dict[str, Any]:
        """Frontend counters (window and batch sizes, error counts, aborted
        connections) and the pool's shard exchanges."""
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
            "aborted_connections": self.aborted_connections,
            "pool_exchanges": self.pool.exchanges if self.pool is not None else 0,
        }
