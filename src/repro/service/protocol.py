"""The service wire protocol: newline-delimited JSON requests and envelopes.

One request per line, one response envelope per line.  The request
format extends the ``repro batch`` JSONL question format — an object
with ``query`` and ``query_prime`` strings is a containment question
exactly as ``repro batch`` reads it — with an explicit ``op`` field for
the other procedures and optional inline ``schema``/``deps``/``views``
texts so one connection can serve many tenants::

    {"id": "1", "query": "Q2(e) :- EMP(e, s, d)",
     "query_prime": "Q1(e) :- EMP(e, s, d), DEP(d, l)",
     "schema": "EMP(emp, sal, dept)\\nDEP(dept, loc)",
     "deps": "EMP[dept] <= DEP[dept]"}
    {"op": "chase", "query": "...", "max_level": 4, "variant": "R"}
    {"op": "rewrite", "query": "...", "views": "V(e, d) :- ..."}
    {"op": "catalog.put", "views": "V(e, d) :- ..."}
    {"op": "rewrite", "query": "...", "catalog_fp": "9f3b..."}
    {"op": "stats"}
    {"op": "ping"}

A server may carry default schema/deps texts (``repro serve --schema
--deps``); a request that omits them uses the defaults.  Responses are
envelopes — ``{"id", "ok", "op", "shard", "elapsed_s", "cache_hit",
"result"}`` on success, ``{"id", "ok": false, "error": {"kind",
"message"}}`` on failure — so a client never has to guess whether a
line is an answer or a diagnostic.

Which ops exist, and everything a front end decides per op — the field
checks, the tier at a coordinator, where the op is answered, whether a
client may retry it, whether admission control may shed it, whether it
is traced — is declared once, in the operation table :data:`OPS`.  The
server, the pool, the fleet coordinator and both clients read it.

Everything in this module is deliberately free of I/O: the asyncio
server, the worker pool (thread or process shards), and the tests all
call the same :func:`parse_line` / :func:`handle_record` /
:func:`shard_for` functions.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api.config import SolverConfig
from repro.api.fingerprints import (
    catalog_fingerprint,
    dependency_fingerprint,
    schema_fingerprint,
)
from repro.api.requests import ChaseRequest, ContainmentRequest, RewriteRequest
from repro.api.solver import Solver
from repro.chase.engine import ChaseVariant
from repro.containment.serialization import (
    chase_result_to_dict,
    containment_result_to_dict,
)
from repro.dependencies.dependency_set import DependencySet
from repro.exceptions import ReproError
from repro.obs import health as obs_health
from repro.obs.metrics import get_registry
from repro.obs.profiler import get_profiler
from repro.obs.tracing import get_tracer, maybe_span
from repro.parser.dependency_parser import parse_dependencies
from repro.parser.query_parser import parse_query
from repro.parser.schema_parser import parse_schema
from repro.parser.view_parser import parse_views

#: Version 2 added the fleet tier: ``fleet.*`` coordinator operations,
#: the ``capacity``/``forbidden`` error kinds, and coordinator envelopes
#: carrying a ``node`` field.  Worker-facing records are unchanged, so a
#: v1 client keeps working against both workers and coordinators.
PROTOCOL_VERSION = 2

#: Per-line buffer limit for asyncio streams speaking this protocol.
#: asyncio's default ``readline`` limit is 64 KiB, which a single chase
#: response (every chase atom, serialized) exceeds routinely; every
#: ``start_server``/``open_connection`` in the service and fleet layers
#: must pass this instead, or large-but-legitimate envelopes kill the
#: connection mid-stream.
STREAM_LIMIT = 2 ** 24  # 16 MiB

#: Profiler actions ``obs.profile`` accepts.
PROFILE_ACTIONS = ("status", "start", "stop", "top", "reset")

#: Error kinds carried in error envelopes, coarse enough for a client to
#: switch on: ``protocol`` (malformed line/record), ``parse`` (schema,
#: dependency, query, or view text did not parse), ``budget`` (a budget
#: field is invalid or above the server's limit), ``overloaded``
#: (admission control rejected the request), ``capacity`` (the fleet has
#: no chase-node budget left for this request — the envelope carries a
#: ``capacity`` detail object), ``forbidden`` (an admin-tier operation
#: without the admin token), ``internal`` (unexpected).
ERROR_KINDS = ("protocol", "parse", "budget", "overloaded", "capacity",
               "forbidden", "internal")


class ProtocolError(ReproError):
    """A request violates the wire protocol (carries an error kind)."""

    def __init__(self, kind: str, message: str):
        super().__init__(message)
        self.kind = kind if kind in ERROR_KINDS else "internal"


class ServiceOverloaded(ProtocolError):
    """Admission control rejected a request (queues full)."""

    def __init__(self, message: str):
        super().__init__("overloaded", message)


# ---------------------------------------------------------------------------
# The operation table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """One request field an op reads, and the check its value must pass.

    A value is accepted when it is an instance of ``types`` and passes
    ``check``, if one is given.  ``null`` counts as absent.  ``fields``
    checks the members of an object-valued field, named ``outer.inner``
    in error messages.
    """

    name: str
    expected: str
    types: Tuple[type, ...]
    check: Optional[Callable[[Any], bool]] = None
    required: bool = False
    kind: str = "protocol"
    fields: Tuple["Field", ...] = ()

    def accepts(self, value: Any) -> bool:
        return isinstance(value, self.types) and (
            self.check is None or self.check(value))


def _not_bool(value: Any) -> bool:
    return not isinstance(value, bool)


def _positive(value: Any) -> bool:
    return not isinstance(value, bool) and value > 0


def _string(name: str, required: bool = False) -> Field:
    return Field(name, "a string", (str,), required=required)


def _positive_int(name: str, kind: str = "protocol") -> Field:
    return Field(name, "a positive integer", (int,), _positive, kind=kind)


def _positive_number(name: str) -> Field:
    return Field(name, "a positive number", (int, float), _positive)


def _choice(name: str, choices: Tuple[str, ...]) -> Field:
    return Field(name, f"one of {choices}", (str,),
                 lambda value: value in choices)


def _object(name: str, *fields: Field, required: bool = False) -> Field:
    return Field(name, "an object", (dict,), required=required, fields=fields)


_TENANT = (_string("schema"), _string("deps"))
_BUDGETS = (_positive_int("max_conjuncts", "budget"),
            _positive_int("max_level", "budget"))
_LIMIT = _positive_int("limit")
_NODE_NAME = (_string("node", required=True),)


@dataclass(frozen=True)
class OpSpec:
    """What every front end needs to know about one wire operation.

    ``answered_by`` says where the op is answered:

    * ``shard`` — routed by tenant affinity to one shard (pool) or one
      node (coordinator);
    * ``pinned`` — carries no tenant: a pool answers it on shard 0, a
      coordinator answers it itself;
    * ``fanout`` — a server or coordinator merges the answers of every
      shard or node (a bare pool pins it to shard 0);
    * ``front`` — answered by the front end from its own state;
    * ``broadcast`` — answered by the front end, and a coordinator then
      applies it on every alive node;
    * ``coordinator`` — only a coordinator accepts it; a worker rejects
      it as an unknown op.

    ``tier`` matters only at a coordinator, whose port faces tenants:
    ``admin`` ops need its admin token.  A client retries an
    ``idempotent`` op once after a transport failure; a server refuses a
    ``sheddable`` op with ``overloaded`` while admission control is
    saturated; a ``traced`` op gets a ``trace_context`` minted by the
    client, server or coordinator when none arrived.  ``fields`` is the
    validator; ``one_of`` names fields of which at least one must be set.
    """

    name: str
    answered_by: str
    tier: str = "user"
    idempotent: bool = True
    sheddable: bool = False
    traced: bool = False
    fields: Tuple[Field, ...] = ()
    one_of: Tuple[str, ...] = ()

    @property
    def at_front(self) -> bool:
        """Answered by the front end from its catalog store or process state."""
        return self.answered_by in ("front", "broadcast")

    @property
    def required(self) -> Tuple[str, ...]:
        return tuple(field.name for field in self.fields if field.required)


#: Every wire operation, in the order error messages list them.
#: ``contain`` is the op of a record without an ``op`` field (the
#: ``repro batch`` question shape).  At a worker the ``catalog.*`` and
#: ``obs.*`` ops are answered un-gated, because its listener is inside
#: the trust boundary; a coordinator's port faces tenants, so there they
#: are admin-tier, except the read-only ``catalog.list``.
OPS: Dict[str, OpSpec] = {spec.name: spec for spec in (
    OpSpec("contain", "shard", sheddable=True, traced=True,
           fields=(_string("query", True), _string("query_prime", True),
                   *_TENANT, *_BUDGETS)),
    OpSpec("chase", "shard", sheddable=True, traced=True,
           fields=(_string("query", True), *_TENANT, *_BUDGETS,
                   _choice("variant", ("R", "O")))),
    OpSpec("rewrite", "shard", sheddable=True, traced=True,
           fields=(_string("query", True), _string("views"),
                   _string("catalog_fp"), *_TENANT, *_BUDGETS),
           one_of=("views", "catalog_fp")),
    OpSpec("stats", "fanout"),
    OpSpec("ping", "pinned"),
    OpSpec("catalog.put", "broadcast", tier="admin", idempotent=False,
           sheddable=True,
           fields=(_string("views", True), _string("schema"), _string("name"))),
    OpSpec("catalog.list", "front", sheddable=True),
    OpSpec("catalog.drop", "broadcast", tier="admin", idempotent=False,
           sheddable=True, fields=(_string("catalog_fp", True),)),
    OpSpec("obs.metrics", "front", tier="admin",
           fields=(_choice("format", ("json", "prometheus")),)),
    OpSpec("obs.trace", "front", tier="admin",
           fields=(_string("trace_id"), _LIMIT)),
    OpSpec("obs.health", "front", tier="admin"),
    OpSpec("obs.profile", "front", tier="admin", idempotent=False,
           fields=(_choice("action", PROFILE_ACTIONS),
                   _positive_number("interval_s"), _LIMIT)),
    OpSpec("fleet.register", "coordinator", tier="admin", idempotent=False,
           fields=(_object(
               "node",
               Field("name", "a non-empty string", (str,), bool,
                     required=True),
               _string("host", True),
               Field("port", "a TCP port number", (int,),
                     lambda value: _not_bool(value) and 0 < value < 65536,
                     required=True),
               _positive_int("shard_count"),
               _object("capacity", _positive_int("total"),
                       _positive_number("over_commit_ratio")),
               required=True),)),
    OpSpec("fleet.heartbeat", "coordinator", tier="admin", idempotent=False,
           fields=(*_NODE_NAME,
                   Field("pending", "an integer", (int,), _not_bool))),
    OpSpec("fleet.drain", "coordinator", tier="admin", idempotent=False,
           fields=_NODE_NAME),
    OpSpec("fleet.evacuate", "coordinator", tier="admin", idempotent=False,
           fields=_NODE_NAME),
    OpSpec("fleet.quota", "coordinator", tier="admin", idempotent=False,
           fields=(*_TENANT, _string("schema_fp"), _string("deps_fp"),
                   _object("quota", _positive_int("max_request_cost"),
                           _positive_int("max_in_flight_cost")))),
    OpSpec("fleet.status", "coordinator", tier="admin"),
)}

#: Checked on every op: the trace context a client or front end minted.
_COMMON = (_object("trace_context", _string("id", True), _string("parent")),)


def op_spec(record: Dict[str, Any]) -> Optional[OpSpec]:
    """The table entry for a record's op (``contain`` when it has none).

    ``None`` for an unknown or non-string op, so a client can look up
    any record it is handed without validating it first.
    """
    op = record.get("op", "contain")
    return OPS.get(op) if isinstance(op, str) else None


@dataclass(frozen=True)
class ServiceDefaults:
    """Server-side default texts a request may omit."""

    schema_text: Optional[str] = None
    deps_text: Optional[str] = None


@dataclass(frozen=True)
class ServiceLimits:
    """Per-request budget ceilings the server enforces.

    Client-supplied budgets are clamped to these, so one tenant cannot
    buy an unbounded chase on a shared service.  Non-positive ceilings
    are a front-end misconfiguration; they fail here, at construction,
    rather than per-request deep inside a shard.
    """

    max_conjuncts: int = 100_000
    max_level: int = 64

    def __post_init__(self) -> None:
        if self.max_conjuncts <= 0:
            raise ReproError(
                f"ServiceLimits.max_conjuncts must be positive, got {self.max_conjuncts}")
        if self.max_level <= 0:
            raise ReproError(
                f"ServiceLimits.max_level must be positive, got {self.max_level}")


class TenantParser:
    """Memoised parsing of the texts a request carries.

    Tenants repeat: the same schema text arrives on every request of a
    tenant, and a warm tenant re-asks the same questions, so the router
    and each shard keep text→object memos instead of re-tokenizing per
    request — schema texts by text, Σ, view-catalog and query texts by
    (text, schema text).  A memoised object is shared by every request
    that sends the same text; that is safe because parsed queries are
    immutable and the fingerprint memos on schemas and queries are
    guarded against in-place mutation.  A text that fails to parse
    raises and is not memoised, so every such request gets its own
    ``parse`` error.

    Each memo holds at most ``max_entries`` objects: when one grows past
    that, its oldest half is dropped (tenant counts are small; precise
    LRU order is not worth the bookkeeping here).  ``query_parses``
    counts the query texts actually parsed, i.e. the query-memo misses.
    """

    def __init__(self, max_entries: int = 256):
        self._max_entries = max_entries
        self._schemas: Dict[str, Any] = {}
        self._dependencies: Dict[Tuple[str, str], Any] = {}
        self._catalogs: Dict[Tuple[str, str], Any] = {}
        self._queries: Dict[Tuple[str, str], Any] = {}
        self.query_parses = 0

    def _bound(self, memo: Dict) -> None:
        if len(memo) > self._max_entries:
            # pop, not del: two threads sharing a parser may both bound
            # the same memo, and the second must not fail on a gone key.
            for key in list(memo)[: self._max_entries // 2]:
                memo.pop(key, None)

    def schema(self, text: str):
        schema = self._schemas.get(text)
        if schema is None:
            schema = self._schemas[text] = parse_schema(text)
            self._bound(self._schemas)
        return schema

    def dependencies(self, text: Optional[str], schema_text: str) -> DependencySet:
        key = (text or "", schema_text)
        sigma = self._dependencies.get(key)
        if sigma is None:
            schema = self.schema(schema_text)
            if text is None or not text.strip():
                sigma = DependencySet(schema=schema)
            else:
                sigma = parse_dependencies(text, schema)
            self._dependencies[key] = sigma
            self._bound(self._dependencies)
        return sigma

    def catalog(self, text: str, schema_text: str):
        key = (text, schema_text)
        catalog = self._catalogs.get(key)
        if catalog is None:
            catalog = self._catalogs[key] = parse_views(text, self.schema(schema_text))
            self._bound(self._catalogs)
        return catalog

    def query(self, text: str, schema_text: str):
        key = (text, schema_text)
        query = self._queries.get(key)
        if query is None:
            self.query_parses += 1
            query = self._queries[key] = parse_query(text, self.schema(schema_text))
            self._bound(self._queries)
        return query


class CatalogStore:
    """Registered view catalogs, addressed by content fingerprint.

    ``catalog.put`` parses a views text once, fingerprints the parsed
    catalog (:func:`~repro.api.fingerprints.catalog_fingerprint`, so a
    tenant can compute the same handle locally), and keeps the text;
    a later ``rewrite`` record carrying ``catalog_fp`` is materialised
    back into a plain rewrite by :func:`resolve_catalog_record` before
    routing.  Thread-safe: the pool front end mutates it from whatever
    thread submits, while shard threads never see it at all.

    Registration is idempotent — re-putting identical views text lands
    on the same fingerprint and simply refreshes the entry.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries <= 0:
            raise ReproError(
                f"CatalogStore.max_entries must be positive, got {max_entries}")
        self._max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: Dict[str, Dict[str, Any]] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def put(self, views_text: str, schema_text: str, parser: TenantParser,
            name: Optional[str] = None) -> Dict[str, Any]:
        """Parse, fingerprint, and store one catalog; returns its entry."""
        catalog = parser.catalog(views_text, schema_text)
        if len(catalog) == 0:
            raise ProtocolError("protocol",
                                "catalog.put got an empty views text")
        fingerprint = catalog_fingerprint(catalog)
        entry = {
            "fingerprint": fingerprint,
            "name": name or fingerprint[:12],
            "view_count": len(catalog),
            "views_text": views_text,
            "schema_text": schema_text,
        }
        with self._lock:
            replaced = fingerprint in self._entries
            self._entries[fingerprint] = entry
            if len(self._entries) > self._max_entries:
                # Same bounding policy as TenantParser: drop the oldest
                # half (registration counts are small; precise LRU order
                # is not worth the bookkeeping).
                for key in list(self._entries)[: self._max_entries // 2]:
                    del self._entries[key]
        return dict(entry, replaced=replaced)

    def get(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            return self._entries.get(fingerprint)

    def drop(self, fingerprint: str) -> bool:
        with self._lock:
            return self._entries.pop(fingerprint, None) is not None

    def rows(self) -> List[Dict[str, Any]]:
        """Public listing rows — everything except the (large) texts."""
        with self._lock:
            return [{"fingerprint": entry["fingerprint"],
                     "name": entry["name"],
                     "view_count": entry["view_count"]}
                    for entry in self._entries.values()]

    def entries(self) -> List[Dict[str, Any]]:
        """Full entries (texts included) — how a coordinator replays its
        registered catalogs to a node that joined after the ``put``."""
        with self._lock:
            return [dict(entry) for entry in self._entries.values()]


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------


def parse_line(line: str, coordinator: bool = False) -> Dict[str, Any]:
    """One wire line → a validated record dict (op resolved and checked)."""
    stripped = line.strip()
    if not stripped:
        raise ProtocolError("protocol", "empty request line")
    try:
        record = json.loads(stripped)
    except json.JSONDecodeError as error:
        raise ProtocolError("protocol", f"request is not valid JSON: {error}")
    if not isinstance(record, dict):
        raise ProtocolError(
            "protocol", f"request must be a JSON object, got {type(record).__name__}")
    return validate_record(record, coordinator)


def validate_record(record: Dict[str, Any],
                    coordinator: bool = False) -> Dict[str, Any]:
    """Check a record against its op's table entry.

    Returns a copy with ``op`` made explicit.  A worker knows every op
    except the coordinator-only ``fleet.*`` ones; ``coordinator=True``
    accepts those too.
    """
    spec = op_spec(record)
    if spec is None or (spec.answered_by == "coordinator" and not coordinator):
        accepted = tuple(name for name, entry in OPS.items()
                         if coordinator or entry.answered_by != "coordinator")
        raise ProtocolError(
            "protocol",
            f"unknown op {record.get('op')!r}; expected one of {accepted}")
    _check_fields(spec.name, record, _COMMON)
    _check_fields(spec.name, record, spec.fields)
    if spec.one_of and all(record.get(key) is None for key in spec.one_of):
        raise ProtocolError(
            "protocol",
            f"op {spec.name!r} requires one of the fields {spec.one_of}")
    return dict(record, op=spec.name)


def _check_fields(op: str, record: Dict[str, Any], fields: Tuple[Field, ...],
                  prefix: str = "") -> None:
    for field in fields:
        value = record.get(field.name)
        if value is None:
            if field.required:
                raise ProtocolError(
                    "protocol",
                    f"op {op!r} requires a {prefix + field.name!r} field")
            continue
        # field.accepts, inlined: a request is validated up to three
        # times (server, pool, shard), and most fields are plain strings.
        if not isinstance(value, field.types) or (
                field.check is not None and not field.check(value)):
            raise ProtocolError(
                field.kind,
                f"{prefix + field.name!r} must be {field.expected}, "
                f"got {type(value).__name__} {value!r:.40}")
        if field.fields:
            _check_fields(op, value, field.fields, f"{prefix}{field.name}.")


def _schema_text(record: Dict[str, Any], defaults: ServiceDefaults) -> str:
    text = record.get("schema") or defaults.schema_text
    if text is None:
        raise ProtocolError(
            "protocol",
            "request carries no 'schema' and the server has no default schema")
    return text


# ---------------------------------------------------------------------------
# Ops answered by a front end (catalog registration, observability)
# ---------------------------------------------------------------------------


def answer_front(record: Dict[str, Any], front: Any) -> Dict[str, Any]:
    """The result of one validated ``catalog.*`` or ``obs.*`` record.

    ``front`` is the answering pool or coordinator: its ``catalogs``
    store, its ``defaults`` and its ``parser``.  Observability answers
    reflect the *answering process*: under process-pool shards that does
    not include counters incremented inside shard subprocesses (thread
    shards and the coordinator, which absorbs node spans, see
    everything).  Raises on bad input; the caller maps the exception to
    an error envelope.
    """
    op = record["op"]
    if op == "catalog.put":
        entry = front.catalogs.put(record["views"],
                                   _schema_text(record, front.defaults),
                                   front.parser, name=record.get("name"))
        return {key: entry[key]
                for key in ("fingerprint", "name", "view_count", "replaced")}
    if op == "catalog.list":
        return {"catalogs": front.catalogs.rows(), "count": len(front.catalogs)}
    if op == "catalog.drop":
        return {"fingerprint": record["catalog_fp"],
                "dropped": front.catalogs.drop(record["catalog_fp"])}
    if op == "obs.metrics":
        if record.get("format") == "prometheus":
            return {"format": "prometheus",
                    "text": get_registry().render_prometheus()}
        return {"format": "json", "metrics": get_registry().snapshot()}
    if op == "obs.trace":
        return _obs_trace_result(record)
    if op == "obs.health":
        return obs_health()
    return _obs_profile_result(record)


def _obs_trace_result(record: Dict[str, Any]) -> Dict[str, Any]:
    tracer = get_tracer()
    trace_id = record.get("trace_id")
    if trace_id is not None:
        spans = tracer.store.get(trace_id)
        return {"trace_id": trace_id, "found": spans is not None,
                "spans": spans or []}
    limit = record.get("limit") or 20
    if record.get("slow"):
        return {"slow_ops": tracer.slow_log.entries(limit),
                "threshold_s": tracer.slow_log.threshold_s}
    return {"traces": tracer.store.recent(limit)}


def _obs_profile_result(record: Dict[str, Any]) -> Dict[str, Any]:
    profiler = get_profiler()
    action = record.get("action") or "status"
    if action == "start":
        interval = record.get("interval_s")
        started = profiler.start(float(interval) if interval else None)
        return {"action": "start", "started": started,
                "running": profiler.running}
    if action == "stop":
        stopped = profiler.stop()
        return {"action": "stop", "stopped": stopped,
                "running": profiler.running}
    if action == "reset":
        profiler.reset()
        return {"action": "reset", "running": profiler.running}
    if action == "top":
        return dict(profiler.top(record.get("limit") or 20), action="top")
    return {"action": "status", "running": profiler.running,
            "interval_s": profiler.interval_s}


def resolve_catalog_record(record: Dict[str, Any],
                           store: CatalogStore) -> Dict[str, Any]:
    """Materialise a rewrite-by-fingerprint record into a plain rewrite.

    Returns the record unchanged unless it is a ``rewrite`` carrying a
    ``catalog_fp`` and no inline ``views``; then the registered
    catalog's views text (and its schema text, when the record names
    none) is substituted in, so routing and the shard solver see the
    record a text-carrying tenant would have sent.  An unregistered
    fingerprint raises :class:`ProtocolError` — the tenant must
    ``catalog.put`` first.
    """
    if record.get("op") != "rewrite" or record.get("views") is not None:
        return record
    fingerprint = record.get("catalog_fp")
    if not isinstance(fingerprint, str):
        return record
    entry = store.get(fingerprint)
    if entry is None:
        raise ProtocolError(
            "protocol",
            f"unknown catalog fingerprint {fingerprint!r}; register the "
            "catalog with catalog.put first")
    resolved = dict(record, views=entry["views_text"])
    if resolved.get("schema") is None:
        resolved["schema"] = entry["schema_text"]
    return resolved


# ---------------------------------------------------------------------------
# Shard routing
# ---------------------------------------------------------------------------


def routing_fingerprints(record: Dict[str, Any], defaults: ServiceDefaults,
                         parser: TenantParser) -> Tuple[str, str]:
    """The (schema, Σ) fingerprints identifying a record's tenant."""
    schema_text = _schema_text(record, defaults)
    schema = parser.schema(schema_text)
    sigma = parser.dependencies(record.get("deps", defaults.deps_text), schema_text)
    return schema_fingerprint(schema), dependency_fingerprint(sigma)


def shard_for(schema_fp: str, deps_fp: str, shard_count: int) -> int:
    """``hash(schema_fingerprint, dependency_fingerprint) % shard_count``.

    SHA-256 over the two fingerprints rather than ``hash()``: the
    builtin is salted per process, and routing must agree between the
    front end, restarted front ends, and the tests.

    ``shard_count`` is validated where pools are *constructed*
    (:class:`~repro.service.pool.ShardedSolverPool` refuses a
    non-positive count), so a misconfigured front end fails at startup;
    the guard here is a last-resort invariant check for direct callers.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    digest = hashlib.sha256(f"{schema_fp}|{deps_fp}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def error_envelope(identifier: Optional[Any], kind: str, message: str,
                   shard: Optional[int] = None) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "id": identifier,
        "ok": False,
        "error": {"kind": kind if kind in ERROR_KINDS else "internal",
                  "message": message},
    }
    if shard is not None:
        envelope["shard"] = shard
    return envelope


def failure_envelope(identifier: Optional[Any], error: Exception,
                     shard: Optional[int] = None) -> Dict[str, Any]:
    """The error envelope for an exception raised while answering a record.

    The one place exceptions become error kinds: a :class:`ProtocolError`
    carries its own kind, any other :class:`ReproError` is tenant text
    that did not parse (or a budget the solver refused), and anything
    else is a server bug reported as ``internal``.
    """
    if isinstance(error, ProtocolError):
        return error_envelope(identifier, error.kind, str(error), shard)
    if isinstance(error, ReproError):
        return error_envelope(identifier, "parse", str(error), shard)
    return error_envelope(identifier, "internal",
                          f"{type(error).__name__}: {error}", shard)


def success_envelope(record: Dict[str, Any], result: Dict[str, Any],
                     elapsed_s: float = 0.0, cache_hit: Optional[bool] = None,
                     shard: Optional[int] = None) -> Dict[str, Any]:
    envelope: Dict[str, Any] = {
        "id": record.get("id"),
        "ok": True,
        "op": record["op"],
        "result": result,
        "elapsed_s": round(elapsed_s, 6),
    }
    if cache_hit is not None:
        envelope["cache_hit"] = cache_hit
    if shard is not None:
        envelope["shard"] = shard
    return envelope


# ---------------------------------------------------------------------------
# Worker-side execution
# ---------------------------------------------------------------------------


def handle_record(record: Dict[str, Any], solver: Solver,
                  defaults: ServiceDefaults = ServiceDefaults(),
                  limits: ServiceLimits = ServiceLimits(),
                  parser: Optional[TenantParser] = None,
                  shard: Optional[int] = None) -> Dict[str, Any]:
    """Execute one validated record against a shard's solver.

    Never raises: every failure — unparsable tenant text, budget abuse,
    an unexpected engine error — becomes an error envelope, because on
    the wire an exception has nowhere else to go.

    A record carrying a valid ``trace_context`` executes under a root
    span adopted from it (``service.<op>``), so the phase spans the
    engines open land in this process's trace store; the envelope then
    carries the ``trace_id``, plus the serialized spans when the context
    asked to ``collect`` (how a coordinator absorbs a node's spans).
    """
    context = record.get("trace_context")
    tracer = get_tracer()
    if (tracer.enabled and isinstance(context, dict)
            and isinstance(context.get("id"), str)):
        op = record.get("op", "contain")
        parent = context.get("parent")
        with tracer.start_trace(
                f"service.{op}", trace_id=context["id"],
                parent_id=parent if isinstance(parent, str) else None,
                op=op) as root:
            if shard is not None:
                root.tags["shard"] = shard
            envelope = _execute_record(record, solver, defaults, limits,
                                       parser, shard)
            root.tags["ok"] = bool(envelope.get("ok"))
        envelope["trace_id"] = root.trace_id
        if context.get("collect"):
            spans = tracer.store.get(root.trace_id)
            if spans:
                envelope["spans"] = spans
        return envelope
    return _execute_record(record, solver, defaults, limits, parser, shard)


def _execute_record(record: Dict[str, Any], solver: Solver,
                    defaults: ServiceDefaults, limits: ServiceLimits,
                    parser: Optional[TenantParser],
                    shard: Optional[int]) -> Dict[str, Any]:
    parser = parser if parser is not None else TenantParser()
    identifier = record.get("id")
    try:
        record = validate_record(record)
        if OPS[record["op"]].at_front:
            raise ProtocolError(
                "protocol",
                f"op {record['op']!r} is answered by a front end (pool or "
                "coordinator), not a shard solver")
        return _dispatch(record, solver, defaults, limits, parser, shard)
    except Exception as error:
        return failure_envelope(identifier, error, shard)


def _dispatch(record: Dict[str, Any], solver: Solver, defaults: ServiceDefaults,
              limits: ServiceLimits, parser: TenantParser,
              shard: Optional[int]) -> Dict[str, Any]:
    op = record["op"]
    if op == "ping":
        return success_envelope(record, {"pong": True,
                                         "protocol_version": PROTOCOL_VERSION},
                                shard=shard)
    if op == "stats":
        return success_envelope(
            record,
            {"cache_stats": solver.cache_stats(),
             "requests": solver.stats.total_requests},
            shard=shard)

    with maybe_span("parse") as span:
        parses = parser.query_parses
        schema_text = _schema_text(record, defaults)
        schema = parser.schema(schema_text)
        sigma = parser.dependencies(record.get("deps", defaults.deps_text),
                                    schema_text)
        query = parser.query(record["query"], schema_text)
        if op == "contain":
            query_prime = parser.query(record["query_prime"], schema_text)
        if span is not None:
            span.tags.update(relations=len(schema), dependencies=len(sigma),
                             query_memo_hit=parser.query_parses == parses)
    max_conjuncts = min(record.get("max_conjuncts") or limits.max_conjuncts,
                        limits.max_conjuncts)

    if op == "contain":
        # The level ceiling also caps the termination-certified deepening
        # for general Σ, so a tenant whose weakly-acyclic rules saturate
        # very deep cannot monopolise a shard.
        max_level = min(record.get("max_level") or limits.max_level,
                        limits.max_level)
        config = solver.config.derive(max_conjuncts=max_conjuncts,
                                      saturation_level_cap=max_level)
        response = solver.solve(ContainmentRequest(
            query, query_prime, sigma, config=config, tag=record.get("id")))
        result = containment_result_to_dict(response.result)
        result["budget"] = response.budget.as_dict()
        return success_envelope(record, result, response.elapsed_s,
                                 response.cache_hit, shard)

    if op == "chase":
        max_level = min(record.get("max_level") or limits.max_level,
                        limits.max_level)
        variant = ChaseVariant(record.get("variant") or "R")
        config = solver.config.derive(variant=variant,
                                      chase_max_conjuncts=max_conjuncts)
        response = solver.solve(ChaseRequest(
            query, sigma, max_level=max_level, config=config,
            tag=record.get("id")))
        result = chase_result_to_dict(response.result,
                                      include_trace=bool(record.get("trace")))
        return success_envelope(record, result, response.elapsed_s,
                                 response.cache_hit, shard)

    # op == "rewrite"
    views_text = record.get("views")
    if views_text is None:
        # A rewrite-by-fingerprint record reached a bare shard solver:
        # only a catalog-owning front end can resolve it (the pool does,
        # before routing — see resolve_catalog_record).
        raise ProtocolError(
            "protocol",
            f"catalog fingerprint {record.get('catalog_fp')!r} cannot be "
            "resolved here; route rewrite-by-fingerprint records through a "
            "pool or coordinator front end")
    catalog = parser.catalog(views_text, schema_text)
    config = solver.config.derive(max_conjuncts=max_conjuncts)
    response = solver.solve(RewriteRequest(
        query, catalog, sigma, config=config, tag=record.get("id")))
    result = response.report.as_dict()
    return success_envelope(record, result, response.elapsed_s,
                             response.cache_hit, shard)


def make_worker_solver(config: Optional[SolverConfig] = None,
                       persistent_cache=None) -> Solver:
    """One shard's solver: the given config with serial execution forced.

    A shard is itself the unit of parallelism; nested thread pools
    inside a shard would only fight the other shards for cores.
    """
    base = config or SolverConfig()
    return Solver(base.derive(parallelism=None, executor="serial"),
                  persistent_cache=persistent_cache)
