"""repro.serve — the sharded allocation service.

:mod:`repro.online` made the allocator a long-lived service; this package
makes it *horizontal*: N allocator shards (one
:class:`~repro.online.allocator.OnlineAllocator` per worker process, or
all run inline in the caller's process) behind a pluggable router, fronted
by a single-threaded asyncio TCP server that runs concurrent requests in
ordered windows, one shard exchange per window.
The shard-routing question is itself a (k, d)-choice instance, so the
default policy is the paper's own ``two_choice`` scheme applied to the
shard load vector.

Key pieces
----------
:class:`ShardPool`
    The in-process client API: route + place/remove across N shards,
    consistent cross-shard snapshot manifests (per-shard digests,
    verify-before-restore), atomic save/load.
:mod:`~repro.serve.router`
    ``round_robin`` / ``least_loaded`` / ``two_choice`` policies, looked up
    through the same registry machinery as the schemes themselves.
:class:`AllocationServer` / :class:`ServeClient`
    Newline-delimited JSON over TCP, served in self-clocked ordered
    windows (everything queued, up to ``max_batch`` requests, in one pool
    job); pipelining asyncio client plus a blocking facade.  CLI:
    ``repro serve``.
:func:`run_loadgen`
    Deterministic workload generator + measurement harness against a live
    server.  CLI: ``repro loadgen``.
"""

from .client import BlockingServeClient, ServeClient, ServeError
from .loadgen import LoadgenReport, loadgen, run_loadgen
from .pool import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ShardPool,
    ShardPoolError,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .router import (
    ROUTER_POLICIES,
    LeastLoadedRouter,
    RoundRobinRouter,
    Router,
    RouterError,
    TopologyRouter,
    TwoChoiceRouter,
    available_router_policies,
    describe_router_policy,
    make_router,
    restore_router,
    router_policy,
)
from .server import AllocationServer, ServeConfig

__all__ = [
    "MANIFEST_FORMAT",
    "MANIFEST_VERSION",
    "PROTOCOL_VERSION",
    "ROUTER_POLICIES",
    "AllocationServer",
    "BlockingServeClient",
    "LeastLoadedRouter",
    "LoadgenReport",
    "ProtocolError",
    "RoundRobinRouter",
    "Router",
    "RouterError",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ShardPool",
    "ShardPoolError",
    "TopologyRouter",
    "TwoChoiceRouter",
    "available_router_policies",
    "describe_router_policy",
    "loadgen",
    "make_router",
    "restore_router",
    "router_policy",
    "run_loadgen",
]
