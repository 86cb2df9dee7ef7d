"""repro.service — the sharded, persistent solver service.

The long-lived serving layer over :class:`~repro.api.solver.Solver`:

* :class:`ShardedSolverPool` — N workers (threads or processes), each
  owning one solver; requests route by
  ``hash(schema_fingerprint, dependency_fingerprint) % N`` so a
  tenant's caches stay hot on its shard;
* :class:`SolverService` — an asyncio front end speaking
  newline-delimited JSON (the ``repro batch`` question format plus the
  other ops of the operation table :data:`OPS`) over TCP or a Unix
  socket, with bounded queues and admission control;
* :class:`ServiceClient` — a blocking client for scripts and tests;
* the protocol helpers (:func:`parse_line`, :func:`handle_record`,
  :func:`shard_for`, :func:`encode_envelope`) shared by all of the
  above.

Pair the pool with ``SolverConfig(persistent_cache_path=...)`` and
restarts — and sibling worker processes — start warm from the shared
SQLite store.  ``repro serve`` is the CLI wrapper.
"""

from repro.service.client import (
    ServiceClient,
    ServiceClientError,
    ServiceTransportError,
)
from repro.service.pool import POOL_MODES, ShardedSolverPool
from repro.service.protocol import (
    ERROR_KINDS,
    OPS,
    PROTOCOL_VERSION,
    CatalogStore,
    OpSpec,
    ProtocolError,
    ServiceDefaults,
    ServiceLimits,
    ServiceOverloaded,
    TenantParser,
    answer_front,
    encode_envelope,
    error_envelope,
    handle_record,
    make_worker_solver,
    parse_line,
    op_spec,
    resolve_catalog_record,
    routing_fingerprints,
    shard_for,
    validate_record,
)
from repro.service.server import ServiceThread, SolverService

__all__ = [
    "CatalogStore",
    "ERROR_KINDS",
    "OPS",
    "OpSpec",
    "POOL_MODES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServiceClient",
    "ServiceClientError",
    "ServiceDefaults",
    "ServiceLimits",
    "ServiceOverloaded",
    "ServiceThread",
    "ServiceTransportError",
    "ShardedSolverPool",
    "SolverService",
    "TenantParser",
    "answer_front",
    "encode_envelope",
    "error_envelope",
    "handle_record",
    "make_worker_solver",
    "op_spec",
    "parse_line",
    "resolve_catalog_record",
    "routing_fingerprints",
    "shard_for",
    "validate_record",
]
