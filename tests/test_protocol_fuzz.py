"""Protocol fuzzing: every front end answers every line with one envelope.

The operation table (:data:`repro.service.OPS`) lists every op and the
fields each reads, so the fuzzer can start from one valid record per op
and change it one field at a time: to a value of every JSON type, and
to a missing value.  It also sends unknown and non-string ops, and varies the admin
token, the ``trace_context`` and the ``id``.  Three front ends are
driven over real sockets:

* an inline-pool :class:`SolverService`;
* a :class:`FleetCoordinator` with one registered :class:`FleetNode`;
* the same coordinator through a :class:`FleetClient`, which stamps the
  admin token on admin-tier ops that carry none.

Whatever the record, exactly one JSON object comes back within the
client timeout, it echoes the ``id``, ``ok`` is a bool, and a failure
carries a known error kind that is never ``internal``.  A value the
table's check refuses is never answered ``ok``.  Every envelope the
pool answers for the corpus encodes, through ``encode_envelope``, to
the same bytes as ``json.dumps``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import FleetClient, FleetCoordinator, FleetNode
from repro.service import (
    ERROR_KINDS,
    OPS,
    ServiceClient,
    ShardedSolverPool,
    SolverService,
    encode_envelope,
)

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"
VIEWS_TEXT = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)"
TOKEN = "fuzz-token"
TIMEOUT = 10.0

class _Missing:
    """Stands for "leave the key out of the record"."""

    def __repr__(self) -> str:
        return "MISSING"


MISSING = _Missing()

#: JSON values of every type, each sent in place of every field.
JSON_SAMPLES = (None, True, 0, -3, 2.5, "", "text", [], {})

UNKNOWN_OPS = ("nope", "obs.nonsense", "fleet.", "", None, 5, True, [],
               {"a": 1})


def valid_record(op, node_address):
    """A record every front end that knows ``op`` answers successfully."""
    host, port = node_address
    fields = {
        "contain": {"query": QUERY, "query_prime": QUERY_PRIME,
                    "schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                    "max_level": 3},
        "chase": {"query": QUERY, "schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                  "max_conjuncts": 50, "variant": "O"},
        "rewrite": {"query": QUERY_PRIME, "views": VIEWS_TEXT,
                    "schema": SCHEMA_TEXT, "deps": DEPS_TEXT},
        "stats": {},
        "ping": {},
        "catalog.put": {"views": VIEWS_TEXT, "schema": SCHEMA_TEXT,
                        "name": "intro"},
        "catalog.list": {},
        "catalog.drop": {"catalog_fp": "0" * 64},
        "obs.metrics": {"format": "json"},
        "obs.trace": {"limit": 3},
        "obs.health": {},
        "obs.profile": {"action": "status"},
        "fleet.register": {"node": {
            "name": "node-0", "host": host, "port": port,
            "shard_count": 1, "protocol_version": 2,
            "capacity": {"total": 10_000, "over_commit_ratio": 1.0}}},
        "fleet.heartbeat": {"node": "node-0", "pending": 0},
        "fleet.drain": {"node": "node-0"},
        "fleet.evacuate": {"node": "node-0"},
        "fleet.quota": {"schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                        "quota": {"max_request_cost": 10_000}},
        "fleet.status": {},
    }[op]
    return {"op": op, **fields}


def field_paths(fields, prefix=()):
    """(path, field) for every field of a spec, nested fields included."""
    for field in fields:
        path = prefix + (field.name,)
        yield path, field
        yield from field_paths(field.fields, path)


def mutated(record, path, value):
    """A copy of ``record`` with ``path`` set to ``value`` (or removed)."""
    record = dict(record)
    target = record
    for key in path[:-1]:
        target[key] = dict(target[key])
        target = target[key]
    if value is MISSING:
        target.pop(path[-1], None)
    else:
        target[path[-1]] = value
    return record


@pytest.fixture(scope="module")
def fronts():
    """The three front ends, with one client each, for the whole module."""
    pool = ShardedSolverPool(shard_count=2, mode="inline")
    node_pool = ShardedSolverPool(shard_count=1, mode="inline")
    coordinator = FleetCoordinator(admin_token=TOKEN, heartbeat_timeout=60.0)
    threads = []
    clients = {}
    try:
        threads.append(SolverService(pool).run_in_thread())
        service_port = threads[-1].address[1][1]
        threads.append(coordinator.run_in_thread())
        coordinator_port = threads[-1].address[1][1]
        node = FleetNode("node-0", node_pool, "127.0.0.1", coordinator_port,
                         TOKEN, capacity_total=10_000, heartbeat_interval=60.0)
        threads.append(node.run_in_thread())
        clients = {
            "service": ServiceClient(port=service_port, timeout=TIMEOUT),
            "coordinator": ServiceClient(port=coordinator_port,
                                         timeout=TIMEOUT),
            "fleet-client": FleetClient(port=coordinator_port,
                                        timeout=TIMEOUT, admin_token=TOKEN),
        }
        yield SimpleNamespace(clients=clients, pool=pool,
                              node_address=node.address[1])
    finally:
        for client in clients.values():
            client.close()
        for thread in reversed(threads):
            thread.stop()
        pool.close()
        node_pool.close()


def exchange(client, record):
    """Send ``record``, then a sentinel ping that must be answered next.

    The sentinel's envelope arriving as the very next line proves the
    record got exactly one response line.
    """
    envelope = client.request(record)
    sentinel = client.request({"op": "ping", "id": "sentinel"})
    assert sentinel["id"] == "sentinel" and sentinel["op"] == "ping", sentinel
    return envelope


def assert_well_formed(envelope, record):
    assert isinstance(envelope, dict)
    assert envelope["id"] == record.get("id")
    assert isinstance(envelope["ok"], bool)
    if not envelope["ok"]:
        kind = envelope["error"]["kind"]
        assert kind in ERROR_KINDS
        assert kind != "internal", envelope


# ---------------------------------------------------------------------------
# Success envelopes: one shape on every front end
# ---------------------------------------------------------------------------

#: Registration first (so the node is alive whatever ran before), the
#: ops that take the node out of the ring last.
SHAPE_ORDER = ("fleet.register",) + tuple(
    op for op in OPS if op not in ("fleet.register", "fleet.drain",
                                   "fleet.evacuate")) + (
    "fleet.drain", "fleet.evacuate")

SUCCESS_KEYS = {"id", "ok", "op", "result", "elapsed_s"}


def test_table_lists_every_op_once():
    assert sorted(SHAPE_ORDER) == sorted(OPS)
    assert len(OPS) == 18


@pytest.mark.parametrize("front", ["pool", "service", "coordinator"])
def test_every_success_envelope_carries_the_common_keys(fronts, front):
    for op in SHAPE_ORDER:
        spec = OPS[op]
        if front != "coordinator" and spec.answered_by == "coordinator":
            continue
        record = dict(valid_record(op, fronts.node_address), id=f"{op}-1")
        if front == "pool":
            envelope = fronts.pool.execute(record)
        else:
            client = fronts.clients[
                "fleet-client" if front == "coordinator" else "service"]
            envelope = client.request(record)
        assert envelope["ok"], (front, op, envelope)
        assert SUCCESS_KEYS <= set(envelope), (front, op, envelope)
        assert envelope["id"] == f"{op}-1" and envelope["op"] == op
        assert isinstance(envelope["elapsed_s"], float)


# ---------------------------------------------------------------------------
# The fuzzer
# ---------------------------------------------------------------------------

ids = st.one_of(st.just(MISSING), st.none(), st.integers(-5, 5),
                st.text(max_size=4), st.just(["x", 1]))
tokens = st.sampled_from([MISSING, TOKEN, "wrong", 7])
contexts = st.sampled_from([MISSING, {"id": "fuzz-trace"}, 5, {"id": 7},
                            {"id": "t", "parent": 3}])


def mutations(spec):
    """The unbroken record, then each field set to each JSON value or removed.

    A node's ``host`` never gets a string: the coordinator would dial it.
    """
    yield None
    for path, field in field_paths(spec.fields):
        for value in JSON_SAMPLES + (MISSING,):
            if path[-1] != "host" or not isinstance(value, str):
                yield path, field, value


def refused(field, value):
    """Whether the table's check must refuse ``value`` for ``field``."""
    if value is MISSING or value is None:
        return field.required
    return not field.accepts(value)


def decorate(record, identifier, token, context):
    for key, value in (("id", identifier), ("admin_token", token),
                       ("trace_context", context)):
        if value is not MISSING:
            record[key] = value
    return record


FUZZ = settings(max_examples=3, deadline=None, derandomize=True,
               database=None)


@pytest.mark.parametrize("front", ["service", "coordinator", "fleet-client"])
@pytest.mark.parametrize("op", list(OPS))
@FUZZ
@given(data=st.data())
def test_every_field_mutation_gets_one_well_formed_envelope(fronts, front, op,
                                                            data):
    for mutation in mutations(OPS[op]):
        record = valid_record(op, fronts.node_address)
        if mutation is not None:
            path, field, value = mutation
            record = mutated(record, path, value)
        record = decorate(record, data.draw(ids), data.draw(tokens),
                          data.draw(contexts))
        envelope = exchange(fronts.clients[front], record)
        assert_well_formed(envelope, record)
        if mutation is not None and refused(field, value):
            assert not envelope["ok"], (record, envelope)


@pytest.mark.parametrize("front", ["service", "coordinator", "fleet-client"])
@FUZZ
@given(data=st.data())
def test_unknown_ops_get_one_well_formed_envelope(fronts, front, data):
    for op in (MISSING, *UNKNOWN_OPS):
        record = {} if op is MISSING else {"op": op}
        record = decorate(record, data.draw(ids), data.draw(tokens),
                          data.draw(contexts))
        envelope = exchange(fronts.clients[front], record)
        assert_well_formed(envelope, record)
        assert not envelope["ok"]


# ---------------------------------------------------------------------------
# The envelope encoder over the corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("op", [op for op, spec in OPS.items()
                                if spec.answered_by != "coordinator"])
def test_every_corpus_envelope_encodes_like_json_dumps(fronts, op):
    for mutation in mutations(OPS[op]):
        record = valid_record(op, fronts.node_address)
        if mutation is not None:
            path, _, value = mutation
            record = mutated(record, path, value)
        for context in (MISSING, {"id": "fuzz-trace", "collect": True}):
            envelope = fronts.pool.execute(
                decorate(dict(record), f"{op}-enc", MISSING, context))
            assert encode_envelope(envelope) == json.dumps(
                envelope, sort_keys=True, default=str).encode() + b"\n"
