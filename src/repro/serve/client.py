"""Clients for the allocation server: asyncio-native and blocking.

:class:`ServeClient` is the asyncio client: it pipelines — requests go out
without waiting for earlier responses, a reader task matches responses back
to callers by ``id`` — which is what keeps the server's serve windows full.
:class:`BlockingServeClient` wraps it for synchronous callers (tests, small
scripts): it runs a private event loop on the calling thread and exposes
the same methods as plain blocking calls.

The zero-transport alternative is the pool itself:
:class:`~repro.serve.pool.ShardPool` exposes the same ``place`` /
``place_batch`` / ``remove`` / ``snapshot`` surface in-process.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional, Tuple

from .protocol import encode

__all__ = ["ServeError", "ServeClient", "BlockingServeClient"]


class ServeError(RuntimeError):
    """An error response from the server, or a dead connection."""


class ServeClient:
    """Pipelining asyncio client for one server connection.

    Use :meth:`connect` to build one::

        client = await ServeClient.connect("127.0.0.1", port)
        shard, bin_index = await client.place("user-7")
        await client.close()
    """

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._reader = reader
        self._writer = writer
        self._pending: Dict[int, "asyncio.Future[Dict[str, Any]]"] = {}
        self._next_id = 0
        self._closed = False
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int) -> "ServeClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer)

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    async def _read_loop(self) -> None:
        import json

        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    response = json.loads(line)
                except ValueError:
                    continue  # not ours to crash on; the request times out
                future = self._pending.pop(response.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(response)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            self._closed = True
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ServeError("connection closed by the server")
                    )
            self._pending.clear()

    async def request(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Send one request and await its matched response.

        Raises :class:`ServeError` when the server answers ``ok: false``.
        """
        if self._closed:
            raise ServeError("the client is closed")
        request_id = self._next_id
        self._next_id += 1
        payload = dict(payload, id=request_id)
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future()
        )
        self._pending[request_id] = future
        self._writer.write(encode(payload))
        await self._writer.drain()
        response = await future
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def ping(self) -> bool:
        return bool((await self.request({"op": "ping"})).get("ok"))

    async def place(self, item: Any = None) -> Tuple[int, int]:
        """Place one item; returns ``(shard, bin)``."""
        payload: Dict[str, Any] = {"op": "place"}
        if item is not None:
            payload["item"] = item
        response = await self.request(payload)
        return int(response["shard"]), int(response["bin"])

    async def place_batch(self, count: int) -> Tuple[List[int], List[int]]:
        """Place one pre-formed batch; returns ``(shards, bins)``."""
        response = await self.request({"op": "place_batch", "count": count})
        return response["shards"], response["bins"]

    async def remove(self, item: Any) -> Tuple[int, int]:
        response = await self.request({"op": "remove", "item": item})
        return int(response["shard"]), int(response["bin"])

    async def stats(self) -> Dict[str, Any]:
        response = await self.request({"op": "stats"})
        return {"server": response["server"], "pool": response["pool"]}

    async def snapshot(self, path: str) -> Dict[str, Any]:
        return await self.request({"op": "snapshot", "path": path})

    async def shutdown(self) -> None:
        await self.request({"op": "shutdown"})


class BlockingServeClient:
    """Synchronous facade: one private event loop, run on the calling thread.

    Every method runs the loop until its response arrives, for at most
    ``timeout`` seconds, so it must be called from a thread with no running
    event loop.  Intended for tests and small scripts; throughput-sensitive
    callers should use :class:`ServeClient` (or many of them) inside their
    own event loop.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        self._client: ServeClient = self._call(
            ServeClient.connect(host, port)
        )

    def _call(self, coroutine: Any) -> Any:
        return self._loop.run_until_complete(
            asyncio.wait_for(coroutine, self._timeout)
        )

    def ping(self) -> bool:
        return self._call(self._client.ping())

    def place(self, item: Any = None) -> Tuple[int, int]:
        return self._call(self._client.place(item))

    def place_batch(self, count: int) -> Tuple[List[int], List[int]]:
        return self._call(self._client.place_batch(count))

    def remove(self, item: Any) -> Tuple[int, int]:
        return self._call(self._client.remove(item))

    def stats(self) -> Dict[str, Any]:
        return self._call(self._client.stats())

    def snapshot(self, path: str) -> Dict[str, Any]:
        return self._call(self._client.snapshot(path))

    def shutdown(self) -> None:
        self._call(self._client.shutdown())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._call(self._client.close())
        except Exception:
            pass
        self._loop.close()

    def __enter__(self) -> "BlockingServeClient":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
