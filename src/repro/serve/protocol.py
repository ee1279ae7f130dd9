"""The serve wire protocol: newline-delimited JSON over TCP.

One request per line, one response per line; both are canonical JSON
(sorted keys, no whitespace) so captures are byte-stable.  Requests carry a
client-chosen ``id`` that the response echoes — responses may arrive out of
order (the server batches concurrent placements), so the ``id`` is how a
pipelining client matches them up.

Requests::

    {"id":0,"op":"ping"}
    {"id":1,"op":"place"}                  # route + place one item
    {"id":2,"op":"place","item":"user-7"}  # ...tracked under an id
    {"id":3,"op":"place_batch","count":64} # one pre-formed batch
    {"id":4,"op":"remove","item":"user-7"}
    {"id":5,"op":"stats"}
    {"id":6,"op":"snapshot","path":"pool.manifest.json"}
    {"id":7,"op":"shutdown"}

Responses::

    {"id":1,"ok":true,"shard":2,"bin":417}
    {"id":3,"ok":true,"bins":[...],"shards":[...]}
    {"id":4,"ok":false,"error":"unknown item 'user-7'; ..."}

Mutating operations (place / place_batch / remove / snapshot) execute in
arrival order, so the manifest ``snapshot`` writes is a consistent cut of
the whole pool: every operation queued before it, none after.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

__all__ = [
    "PROTOCOL_VERSION",
    "REQUEST_OPS",
    "ProtocolError",
    "encode",
    "decode_request",
    "ok_response",
    "error_response",
]

PROTOCOL_VERSION = 1

#: Operations a client may send.
REQUEST_OPS = (
    "ping",
    "place",
    "place_batch",
    "remove",
    "stats",
    "snapshot",
    "shutdown",
)


class ProtocolError(ValueError):
    """Raised for unparsable lines and malformed requests."""


def encode(payload: Dict[str, Any]) -> bytes:
    """One protocol line: canonical JSON plus the newline terminator."""
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_request(line: bytes) -> Dict[str, Any]:
    """Parse and validate one request line.

    Raises :class:`ProtocolError` with a message safe to echo back to the
    client (it names the problem, never the server's internals).
    """
    try:
        payload = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise ProtocolError("request is not valid JSON") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r} (expected one of {', '.join(REQUEST_OPS)})"
        )
    if op == "place_batch":
        count = payload.get("count")
        if not isinstance(count, int) or isinstance(count, bool) or count < 0:
            raise ProtocolError(
                f"place_batch needs a non-negative integer 'count', "
                f"got {count!r}"
            )
    if op == "remove" and "item" not in payload:
        raise ProtocolError("remove needs an 'item'")
    if op == "snapshot":
        path = payload.get("path")
        if not isinstance(path, str) or not path:
            raise ProtocolError("snapshot needs a non-empty string 'path'")
    return payload


def ok_response(request_id: Any, **fields: Any) -> Dict[str, Any]:
    response: Dict[str, Any] = {"id": request_id, "ok": True}
    response.update(fields)
    return response


def error_response(request_id: Any, message: str) -> Dict[str, Any]:
    return {"id": request_id, "ok": False, "error": str(message)}
