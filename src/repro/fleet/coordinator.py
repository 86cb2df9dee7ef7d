"""The fleet coordinator: affinity routing, admission, and failover.

One asyncio front end speaking the same NDJSON protocol as every
worker, so a :class:`~repro.service.client.ServiceClient` pointed at a
coordinator cannot tell it from a single node — except that the fleet
behind it scales and survives node deaths.

**Routing** reuses the service's shard affinity verbatim: a tenant is
``(schema_fingerprint, Σ_fingerprint)``, and
:func:`~repro.service.protocol.shard_for` picks a *slot* in the ring of
registered nodes.  Slots are registration-ordered and are kept (not
compacted) when a node dies, so a death moves only the dead node's
tenants: they probe linearly to the next alive slot, and every other
tenant keeps its warm node.  Explicit ``fleet.evacuate`` removes the
slot (a deliberate, rare rebalance); drain keeps the slot but stops
admitting to it.

**Admission** is termination-aware (see :mod:`repro.fleet.capacity`):
each tenant's Σ is analysed once — weakly acyclic Σ gets a finite
chase-size estimate charged against the target node's MAAS-style
chase-node budget; uncertified Σ is forwarded with clamped
``max_conjuncts``/``max_level`` and charged the clamp.  A request the
target node cannot hold is answered immediately with a structured
``capacity`` envelope (never a hang, and never silently spilled to a
cold node — affinity is the point of the fleet).

**Failover**: the coordinator keeps one pipelined connection per node
(the node's server answers a connection strictly in order, so responses
match requests FIFO).  A connection failure fails the in-flight
requests on it; each such request marks the node dead and retries on
the tenant's rerouted node.  Workers are pure (every data-plane op is
idempotent), so the retry is safe, and a response acknowledged to a
client was by construction computed exactly somewhere.

**Tiers**: each op's tier is its entry in the operation table
(:data:`~repro.service.protocol.OPS`).  Admin-tier ops — ``fleet.*``,
``obs.*`` and the ``catalog.put``/``catalog.drop`` mutations — need the
coordinator's admin token (a kuberdock-style split); the rest are user
tier.
"""

from __future__ import annotations

import asyncio
import functools
import hmac
import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.chase.termination import ChaseSizeEstimate, estimate_chase_size
from repro.exceptions import ReproError
from repro.fleet.capacity import (
    AdmissionDecision,
    AdmissionPolicy,
    NodeCapacity,
    TenantKey,
    TenantLedger,
    TenantQuota,
)
from repro.obs import ensure_default_probe
from repro.obs.clock import Stopwatch
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer, maybe_span, new_trace_id
from repro.service.protocol import (
    OPS,
    PROTOCOL_VERSION,
    STREAM_LIMIT,
    CatalogStore,
    ProtocolError,
    ServiceDefaults,
    TenantParser,
    answer_front,
    error_envelope,
    parse_line,
    resolve_catalog_record,
    routing_fingerprints,
    shard_for,
    success_envelope,
)
from repro.service.server import ServiceThread, serve_connection


class NodeConnection:
    """One pipelined NDJSON connection from the coordinator to a node.

    The node's server answers a connection strictly in order, so the
    connection keeps a FIFO of response futures: request *k* resolves
    from response line *k*.  Any transport failure fails every pending
    future with :class:`ConnectionError` — the forwarding loop above
    turns that into mark-dead-and-reroute.
    """

    def __init__(self, host: str, port: int):
        self._host = host
        self._port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Deque["asyncio.Future[Dict[str, Any]]"] = deque()
        self._send_lock = asyncio.Lock()
        self._closed = False

    async def _ensure_connected(self) -> None:
        if self._writer is not None and not self._closed:
            return
        self._closed = False
        self._reader, self._writer = await asyncio.open_connection(
            self._host, self._port, limit=STREAM_LIMIT)
        self._reader_task = asyncio.create_task(self._read_loop())

    async def request(self, record: Dict[str, Any]) -> Dict[str, Any]:
        await self._ensure_connected()
        future: "asyncio.Future[Dict[str, Any]]" = (
            asyncio.get_running_loop().create_future())
        # Lock so the write order matches the future-queue order even
        # when many forwards target this node concurrently.
        async with self._send_lock:
            if self._closed or self._writer is None:
                raise ConnectionError(
                    f"connection to {self._host}:{self._port} is closed")
            self._pending.append(future)
            try:
                self._writer.write(json.dumps(record).encode("utf-8") + b"\n")
                await self._writer.drain()
            except OSError as error:
                self._fail_pending(error)
                raise ConnectionError(str(error)) from error
        return await future

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    self._fail_pending(ConnectionError(
                        f"node {self._host}:{self._port} closed the connection"))
                    return
                try:
                    envelope = json.loads(line)
                except json.JSONDecodeError as error:
                    self._fail_pending(ConnectionError(
                        f"node {self._host}:{self._port} broke the protocol: "
                        f"{error}"))
                    return
                if self._pending:
                    future = self._pending.popleft()
                    if not future.done():
                        future.set_result(envelope)
        except asyncio.CancelledError:
            self._fail_pending(ConnectionError("coordinator shutting down"))
        except Exception as error:
            # OSError, an over-limit line, anything: a reader that dies
            # silently would leave every pending forward hanging forever.
            self._fail_pending(error)

    def _fail_pending(self, error: BaseException) -> None:
        self._closed = True
        while self._pending:
            future = self._pending.popleft()
            if not future.done():
                future.set_exception(
                    error if isinstance(error, ConnectionError)
                    else ConnectionError(str(error)))

    def close(self) -> None:
        self._fail_pending(ConnectionError("connection closed"))
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None


class NodeHandle:
    """The coordinator's view of one registered node."""

    def __init__(self, name: str, host: str, port: int,
                 capacity: NodeCapacity, shard_count: int,
                 protocol_version: int, now: float):
        self.name = name
        self.host = host
        self.port = port
        self.capacity = capacity
        self.shard_count = shard_count
        self.protocol_version = protocol_version
        self.status = "alive"  # alive | draining | dead
        self.last_heartbeat = now
        self.pending = 0
        self.connection: Optional[NodeConnection] = None

    @property
    def alive(self) -> bool:
        return self.status == "alive"

    def drop_connection(self) -> None:
        if self.connection is not None:
            self.connection.close()
            self.connection = None

    def snapshot(self, now: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "address": f"{self.host}:{self.port}",
            "status": self.status,
            "shard_count": self.shard_count,
            "protocol_version": self.protocol_version,
            "heartbeat_age_s": round(now - self.last_heartbeat, 3),
            "pending": self.pending,
            "capacity": self.capacity.snapshot(),
        }


class FleetCoordinator:
    """The NDJSON front end over a ring of registered solver nodes.

    ``heartbeat_timeout`` is how long a silent node stays routable; the
    sweeper marks it dead after that, and its tenants probe onward.
    ``defaults`` plays the same role as on a single service: schema and
    Σ texts requests may omit.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 admin_token: str = "", *,
                 policy: AdmissionPolicy = AdmissionPolicy(),
                 default_quota: TenantQuota = TenantQuota(),
                 defaults: ServiceDefaults = ServiceDefaults(),
                 heartbeat_timeout: float = 6.0,
                 slow_op_threshold: Optional[float] = None):
        if heartbeat_timeout <= 0:
            raise ReproError(
                f"heartbeat_timeout must be positive, got {heartbeat_timeout}")
        if slow_op_threshold is not None and slow_op_threshold <= 0:
            raise ReproError(
                f"slow_op_threshold must be positive (or None to disable "
                f"the slow-op log), got {slow_op_threshold}")
        # A coordinator is a server too: same observability opt-in as
        # SolverService (default probe, optional slow-op log arming).
        ensure_default_probe()
        if slow_op_threshold is not None:
            get_tracer().slow_log.threshold_s = slow_op_threshold
        self._host = host
        self._port = port
        self._admin_token = admin_token
        self.policy = policy
        self.defaults = defaults
        self._heartbeat_timeout = heartbeat_timeout
        # Sized for the query memo, which admission pricing reads once
        # per data-plane record (one entry per distinct query text).
        self.parser = TenantParser(max_entries=4096)
        self.ledger = TenantLedger(default_quota)
        self.ring: List[NodeHandle] = []
        self._by_name: Dict[str, NodeHandle] = {}
        # Per-tenant certification is priced once and reused: the memo
        # key is the routing identity, which already pins Σ exactly.
        self._estimates: Dict[TenantKey, ChaseSizeEstimate] = {}
        # The fleet's registered catalogs.  The coordinator is the
        # source of truth: catalog.put/drop are admin-gated here, applied
        # locally, then broadcast to every alive node (and replayed to
        # late registrants), so any node can resolve a tenant's
        # rewrite-by-fingerprint without the coordinator resending the
        # views text per request.
        self.catalogs = CatalogStore()
        self.counters = {
            "forwarded": 0,
            "rerouted": 0,
            "capacity_rejections": 0,
            "quota_rejections": 0,
            "forbidden": 0,
            "admitted_certified": 0,
            "admitted_clamped": 0,
            "catalog_broadcasts": 0,
        }
        self._server: Optional[asyncio.AbstractServer] = None
        self._sweeper_task: Optional[asyncio.Task] = None
        # The ops the coordinator answers itself; data-plane ops are
        # forwarded and catalog/obs ops answered from the table's front
        # handlers.
        self._handlers = {
            "ping": self._pong,
            "stats": self._fleet_stats,
            "fleet.register": self._admin_register,
            "fleet.heartbeat": self._admin_heartbeat,
            "fleet.drain": self._admin_drain,
            "fleet.evacuate": self._admin_evacuate,
            "fleet.quota": self._admin_quota,
            "fleet.status": self._admin_status,
        }

    # -- lifecycle -----------------------------------------------------------

    @property
    def address(self) -> Tuple[str, Any]:
        if self._server is not None and self._server.sockets:
            return ("tcp", self._server.sockets[0].getsockname()[:2])
        return ("tcp", (self._host, self._port))

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            functools.partial(serve_connection, self._answer),
            host=self._host, port=self._port, limit=STREAM_LIMIT)
        self._sweeper_task = asyncio.create_task(self._sweep_heartbeats())

    async def stop(self) -> None:
        if self._sweeper_task is not None:
            self._sweeper_task.cancel()
            try:
                await self._sweeper_task
            except asyncio.CancelledError:
                pass
            self._sweeper_task = None
        for handle in self.ring:
            handle.drop_connection()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    def run_in_thread(self) -> ServiceThread:
        """The coordinator on its own daemon event-loop thread."""
        return ServiceThread(self)

    async def _sweep_heartbeats(self) -> None:
        interval = max(0.25, self._heartbeat_timeout / 4)
        while True:
            await asyncio.sleep(interval)
            now = asyncio.get_running_loop().time()
            for handle in self.ring:
                if (handle.alive
                        and now - handle.last_heartbeat > self._heartbeat_timeout):
                    self._mark_dead(handle)

    def _mark_dead(self, handle: NodeHandle) -> None:
        """Stop routing to a node; its in-flight forwards fail and reroute.

        The slot stays in the ring so every *other* tenant keeps its
        node; only the dead node's tenants probe onward.
        """
        handle.status = "dead"
        handle.drop_connection()

    # -- answering one request ------------------------------------------------

    async def _answer(self, line: str) -> Dict[str, Any]:
        record = parse_line(line, coordinator=True)
        op = record["op"]
        spec = OPS[op]
        if spec.tier == "admin" and not self._authorized(record):
            self.counters["forbidden"] += 1
            raise ProtocolError(
                "forbidden",
                f"op {op!r} is admin-tier at a coordinator and requires "
                "its admin token")
        if spec.answered_by == "shard":
            return await self._forward(record)
        watch = Stopwatch()
        handler = self._handlers.get(op)
        if handler is not None:
            result = await handler(record)
        else:
            self._sync_fleet_gauges()
            result = answer_front(record, self)
        envelope = success_envelope(record, result, watch.elapsed_s)
        if spec.answered_by == "broadcast":
            # Nodes never see the admin token; their catalog tier is
            # inside the trust boundary, like their obs tier.
            envelope["nodes"] = await self._broadcast_catalog(
                {key: value for key, value in record.items()
                 if key != "admin_token"})
        return envelope

    def _sync_fleet_gauges(self) -> None:
        """Mirror the routing counters and ring health into the registry.

        The counters dict stays the source of truth (``stats`` and
        ``fleet.status`` read it directly); gauges are refreshed lazily,
        before each op answered from the coordinator's own state, so a
        metrics scrape always sees them current.
        """
        registry = get_registry()
        counters = registry.gauge(
            "repro_fleet_coordinator", "Coordinator routing counters.",
            labels=("counter",))
        for name, value in self.counters.items():
            counters.set(float(value), counter=name)
        nodes = registry.gauge(
            "repro_fleet_nodes", "Registered nodes by status.",
            labels=("status",))
        by_status = {"alive": 0, "draining": 0, "dead": 0}
        for handle in self.ring:
            by_status[handle.status] = by_status.get(handle.status, 0) + 1
        for status, count in by_status.items():
            nodes.set(float(count), status=status)

    # -- catalog tier --------------------------------------------------------

    async def _broadcast_catalog(self,
                                 record: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Apply one catalog mutation on every alive node (best-effort).

        A node that fails mid-broadcast is marked dead exactly as a
        failed forward would; it re-learns the full catalog set when it
        re-registers (see :meth:`_replay_catalogs`).
        """
        results: List[Dict[str, Any]] = []
        for handle in list(self.ring):
            if not handle.alive:
                continue
            try:
                node_envelope = await self._request_on(handle, record)
            except ConnectionError as error:
                self._mark_dead(handle)
                results.append({"node": handle.name, "ok": False,
                                "error": str(error)})
                continue
            self.counters["catalog_broadcasts"] += 1
            results.append({"node": handle.name,
                            "ok": bool(node_envelope.get("ok"))})
        return results

    async def _replay_catalogs(self, handle: NodeHandle) -> int:
        """Push every registered catalog to one (re-)registered node."""
        replayed = 0
        for entry in self.catalogs.entries():
            record = {"op": "catalog.put", "views": entry["views_text"],
                      "schema": entry["schema_text"], "name": entry["name"]}
            try:
                envelope = await self._request_on(handle, record)
            except ConnectionError:
                self._mark_dead(handle)
                break
            if envelope.get("ok"):
                replayed += 1
        return replayed

    # -- user tier -----------------------------------------------------------

    async def _pong(self, record: Dict[str, Any]) -> Dict[str, Any]:
        return {"pong": True, "protocol_version": PROTOCOL_VERSION,
                "role": "coordinator",
                "fleet_size": sum(1 for h in self.ring if h.alive)}

    async def _fleet_stats(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Fleet-wide stats: the coordinator's counters plus every node's own."""
        nodes = []
        for handle in list(self.ring):
            if not handle.alive:
                nodes.append({"name": handle.name, "status": handle.status})
                continue
            try:
                envelope = await self._request_on(handle, {"op": record["op"]})
                nodes.append({"name": handle.name, "status": handle.status,
                              "capacity": handle.capacity.snapshot(),
                              "stats": envelope.get("result")})
            except ConnectionError as error:
                self._mark_dead(handle)
                nodes.append({"name": handle.name, "status": "dead",
                              "error": str(error)})
        return {"coordinator": dict(self.counters),
                "ledger": self.ledger.snapshot(),
                "nodes": nodes}

    def _decide(self, record: Dict[str, Any],
                tenant: TenantKey) -> AdmissionDecision:
        """Price one data-plane record (certification memoised per tenant)."""
        schema_text = record.get("schema") or self.defaults.schema_text
        if tenant not in self._estimates:
            schema = self.parser.schema(schema_text)
            sigma = self.parser.dependencies(
                record.get("deps", self.defaults.deps_text), schema_text)
            self._estimates[tenant] = estimate_chase_size(sigma, schema)
        estimate = self._estimates[tenant]
        atoms = sum(len(self.parser.query(record[key], schema_text).conjuncts)
                    for key in ("query", "query_prime")
                    if key in OPS[record["op"]].required)
        return self.policy.decide(
            certified=estimate.bounded, estimate=estimate,
            query_atoms=max(1, atoms),
            requested_max_conjuncts=record.get("max_conjuncts"),
            requested_max_level=record.get("max_level"))

    async def _forward(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Route one data-plane record, under a root span.

        The span adopts the client's ``trace_context`` when one arrived
        (so the client's trace id is the one the whole fleet shares) and
        mints a fresh id otherwise; either way the chosen node is told
        to ``collect``, its returned spans are absorbed into this
        process's trace store, and the client's envelope carries the
        ``trace_id`` — one ``obs.trace`` lookup here then shows the
        coordinator's routing phases *and* the node's engine phases.
        """
        tracer = get_tracer()
        if not (tracer.enabled and OPS[record["op"]].traced):
            return await self._forward_inner(record, None)
        context = record.get("trace_context")
        adopted = context is not None
        with tracer.start_trace(
                "fleet.forward",
                trace_id=context["id"] if adopted else new_trace_id(),
                parent_id=context.get("parent") if adopted else None,
                op=record["op"]) as root:
            envelope = await self._forward_inner(record, root)
            root.tags["ok"] = bool(envelope.get("ok"))
        envelope.setdefault("trace_id", root.trace_id)
        if adopted and context.get("collect"):
            spans = tracer.store.get(root.trace_id)
            if spans:
                envelope["spans"] = spans
        return envelope

    async def _forward_inner(self, record: Dict[str, Any],
                             root) -> Dict[str, Any]:
        resolved = resolve_catalog_record(record, self.catalogs)
        if resolved is not record:
            # Route and price by the registered schema, but forward the
            # slim record: the node resolves the fingerprint from its own
            # store, so the views text never travels per request.
            record = dict(record, schema=resolved["schema"])
        identifier = record.get("id")
        with maybe_span("fleet.admission") as span:
            schema_fp, deps_fp = routing_fingerprints(record, self.defaults,
                                                      self.parser)
            tenant = (schema_fp, deps_fp)
            decision = self._decide(record, tenant)
            if span is not None:
                span.tags.update(certified=decision.certified,
                                 cost=decision.cost)

        reason = self.ledger.deny_reason(tenant, decision.cost)
        if reason is not None:
            self.counters["quota_rejections"] += 1
            self.ledger.quota_rejections += 1
            envelope = error_envelope(identifier, "capacity", reason)
            envelope["error"]["detail"] = {
                "scope": "tenant",
                "quota": self.ledger.quota_for(tenant).as_dict(),
                "admission": decision.describe(),
            }
            return envelope

        slot_count = len(self.ring)
        if slot_count == 0:
            return error_envelope(identifier, "capacity",
                                  "the fleet has no registered nodes")
        start = shard_for(schema_fp, deps_fp, slot_count)
        outgoing = dict(record, **decision.clamps)
        if root is not None:
            # The node adopts the same trace id, parents its root span
            # under this forward, and returns its spans for absorption.
            outgoing["trace_context"] = {"id": root.trace_id,
                                         "parent": root.span_id,
                                         "collect": True}
        for probe in range(slot_count):
            handle = self.ring[(start + probe) % slot_count]
            if not handle.alive:
                continue
            if not handle.capacity.admit(decision.cost):
                # At capacity is a *final* answer, not a probe-onward:
                # spilling a too-big request to the next node would turn
                # one hot node into a fleet-wide cascade.
                self.counters["capacity_rejections"] += 1
                capacity = handle.capacity.snapshot()
                envelope = error_envelope(
                    identifier, "capacity",
                    f"node {handle.name!r} has {capacity['available']} of "
                    f"{capacity['effective_total']} chase nodes available; "
                    f"this request needs {decision.cost}")
                envelope["error"]["detail"] = {
                    "scope": "node", "node": handle.name,
                    "capacity": capacity, "admission": decision.describe(),
                }
                return envelope
            self.ledger.charge(tenant, decision.cost)
            envelope: Optional[Dict[str, Any]] = None
            try:
                envelope = await self._request_on(handle, outgoing)
            except ConnectionError:
                self._mark_dead(handle)
                self.counters["rerouted"] += 1
            finally:
                handle.capacity.release(decision.cost)
                self.ledger.release(tenant, decision.cost)
            if envelope is None:
                continue  # probe the rerouted node; the op is idempotent
            self.counters["forwarded"] += 1
            self.counters["admitted_certified" if decision.certified
                          else "admitted_clamped"] += 1
            envelope["node"] = handle.name
            if root is not None:
                root.tags["node"] = handle.name
                spans = envelope.pop("spans", None)
                if spans:
                    get_tracer().absorb(root.trace_id, spans)
            return envelope
        return error_envelope(identifier, "capacity",
                              "the fleet has no alive nodes to serve this tenant")

    async def _request_on(self, handle: NodeHandle,
                          record: Dict[str, Any]) -> Dict[str, Any]:
        if handle.connection is None:
            handle.connection = NodeConnection(handle.host, handle.port)
        try:
            return await handle.connection.request(record)
        except OSError as error:
            raise ConnectionError(str(error)) from error

    # -- admin tier ----------------------------------------------------------

    def _authorized(self, record: Dict[str, Any]) -> bool:
        token = record.get("admin_token")
        return isinstance(token, str) and hmac.compare_digest(
            token, self._admin_token)

    def _now(self) -> float:
        return asyncio.get_running_loop().time()

    def _named_handle(self, record: Dict[str, Any]) -> NodeHandle:
        handle = self._by_name.get(record["node"])
        if handle is None:
            raise ProtocolError("protocol", f"unknown node {record['node']!r}")
        return handle

    async def _admin_register(self, record: Dict[str, Any]) -> Dict[str, Any]:
        info = record["node"]
        name, host, port = info["name"], info["host"], info["port"]
        version = info.get("protocol_version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                "protocol",
                f"node {name!r} speaks protocol version {version!r}; this "
                f"coordinator requires {PROTOCOL_VERSION}")
        declared = info.get("capacity") or {}
        capacity = NodeCapacity(
            total=declared.get("total") or 1,
            over_commit_ratio=declared.get("over_commit_ratio") or 1.0)
        shard_count = info.get("shard_count") or 1
        now = self._now()
        existing = self._by_name.get(name)
        if existing is not None:
            # A re-registration is a restarted (or resurrected) node:
            # refresh its address and start its accounting from zero —
            # whatever was in flight on the old incarnation is gone.
            existing.drop_connection()
            existing.host, existing.port = host, port
            existing.capacity = capacity
            existing.shard_count = shard_count
            existing.status = "alive"
            existing.last_heartbeat = now
            slot = self.ring.index(existing)
        else:
            handle = NodeHandle(name, host, port, capacity, shard_count,
                                version, now)
            self.ring.append(handle)
            self._by_name[name] = handle
            slot = len(self.ring) - 1
        result = {"registered": name, "slot": slot,
                  "fleet_size": sum(1 for h in self.ring if h.alive)}
        if len(self.catalogs):
            # A (re-)registered node starts with an empty catalog store;
            # replay the fleet's registrations before it can be handed
            # rewrite-by-fingerprint traffic.
            result["catalogs_replayed"] = await self._replay_catalogs(
                self._by_name[name])
        return result

    async def _admin_heartbeat(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.last_heartbeat = self._now()
        if record.get("pending") is not None:
            handle.pending = record["pending"]
        if handle.status == "dead":
            # The heartbeat proves it is back; dead was the sweeper's
            # inference, not an operator decision (draining sticks).
            handle.status = "alive"
        return {"acknowledged": True, "status": handle.status}

    async def _admin_drain(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.status = "draining"
        return {"node": handle.name, "status": handle.status,
                "slot_kept": True}

    async def _admin_evacuate(self, record: Dict[str, Any]) -> Dict[str, Any]:
        handle = self._named_handle(record)
        handle.drop_connection()
        self.ring.remove(handle)
        del self._by_name[handle.name]
        return {"node": handle.name, "evacuated": True,
                "fleet_size": sum(1 for h in self.ring if h.alive)}

    async def _admin_quota(self, record: Dict[str, Any]) -> Dict[str, Any]:
        tenant = self._quota_tenant(record)
        raw = record.get("quota")
        if raw is None:  # null clears
            self.ledger.set_quota(tenant, None)
            applied = self.ledger.default_quota
        else:
            applied = TenantQuota(
                max_request_cost=raw.get("max_request_cost"),
                max_in_flight_cost=raw.get("max_in_flight_cost"))
            self.ledger.set_quota(tenant, applied)
        return {"tenant": list(tenant), "quota": applied.as_dict()}

    def _quota_tenant(self, record: Dict[str, Any]) -> TenantKey:
        explicit = record.get("schema_fp"), record.get("deps_fp")
        if None not in explicit:
            return explicit  # type: ignore[return-value]
        if record.get("schema") or self.defaults.schema_text:
            return routing_fingerprints(record, self.defaults, self.parser)
        raise ProtocolError(
            "protocol",
            "fleet.quota needs either schema_fp/deps_fp or schema/deps texts")

    async def _admin_status(self, record: Dict[str, Any]) -> Dict[str, Any]:
        now = self._now()
        return {
            "role": "coordinator",
            "protocol_version": PROTOCOL_VERSION,
            "heartbeat_timeout_s": self._heartbeat_timeout,
            "policy": {
                "uncertified_max_conjuncts": self.policy.uncertified_max_conjuncts,
                "uncertified_max_level": self.policy.uncertified_max_level,
            },
            "counters": dict(self.counters),
            "ledger": self.ledger.snapshot(),
            "ring": [handle.name for handle in self.ring],
            "nodes": [handle.snapshot(now) for handle in self.ring],
        }
