"""Tests for the service layer: persistence, protocol, routing, serving.

Covers the four satellite requirements of PR 4: ServiceClient
round-trips for containment/chase/rewrite, shard-routing determinism,
persistent-cache reuse across a simulated restart, and malformed-request
error envelopes — plus the protocol/pool/persistent plumbing they sit
on.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import socket
import sys
import threading
import time

import pytest

from repro.api import (
    ContainmentRequest,
    OptimizeRequest,
    PersistentCache,
    Solver,
    SolverConfig,
)
from repro.api.cache import LRUCache, MemoryMiss
from repro.api.fingerprints import query_fingerprint
from repro.api.persistent import PersistentCacheError, stable_key_digest
from repro.chase.engine import ChaseVariant
from repro.parser import parse_dependencies, parse_query, parse_schema
from repro.obs import probe as probe_module
from repro.obs.metrics import MetricsRegistry
from repro.obs.probe import MetricsProbe
from repro.obs.tracing import get_tracer, new_trace_id
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceClientError,
    ServiceDefaults,
    ServiceLimits,
    ShardedSolverPool,
    SolverService,
    TenantParser,
    handle_record,
    make_worker_solver,
    parse_line,
    pool as pool_module,
    protocol,
    routing_fingerprints,
    shard_for,
    validate_record,
)
from repro.workloads import TrafficGenerator

SCHEMA_TEXT = "EMP(emp, sal, dept)\nDEP(dept, loc)"
DEPS_TEXT = "EMP[dept] <= DEP[dept]"
VIEWS_TEXT = "DEPT_EMP(e, d, l) :- EMP(e, s, d), DEP(d, l)"
QUERY = "Q2(e) :- EMP(e, s, d)"
QUERY_PRIME = "Q1(e) :- EMP(e, s, d), DEP(d, l)"


def contain_record(**overrides):
    record = {"id": "q1", "query": QUERY, "query_prime": QUERY_PRIME,
              "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}
    record.update(overrides)
    return record


# ---------------------------------------------------------------------------
# PersistentCache
# ---------------------------------------------------------------------------


class TestPersistentCache:
    def test_roundtrip_and_counters(self, tmp_path):
        with PersistentCache(str(tmp_path / "c.sqlite")) as cache:
            key = ("a", 1, None, True, ChaseVariant.RESTRICTED)
            assert cache.get("chase", key) is None
            cache.put("chase", key, {"payload": [1, 2, 3]})
            assert cache.get("chase", key) == {"payload": [1, 2, 3]}
            info = cache.info()
            assert (info.hits, info.misses, info.size) == (1, 1, 1)
            assert cache.sizes() == {"containment": 0, "chase": 1, "rewrite": 0}

    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        with PersistentCache(path) as cache:
            cache.put("containment", ("k",), "answer")
        with PersistentCache(path) as reopened:
            assert reopened.get("containment", ("k",)) == "answer"
            assert len(reopened) == 1

    def test_corrupt_value_becomes_miss_and_is_evicted(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentCache(path)
        cache.put("chase", ("k",), "value")
        digest = stable_key_digest(("k",))
        with cache._connection:
            cache._connection.execute(
                "UPDATE entries SET value = ? WHERE key = ?",
                (b"not a pickle", digest))
        assert cache.get("chase", ("k",)) is None
        assert len(cache) == 0
        cache.close()

    def test_format_version_mismatch_clears_store(self, tmp_path):
        path = str(tmp_path / "c.sqlite")
        cache = PersistentCache(path)
        cache.put("chase", ("k",), "value")
        with cache._connection:
            cache._connection.execute(
                "UPDATE meta SET value = '0' WHERE key = 'format_version'")
        cache.close()
        with PersistentCache(path) as reopened:
            assert reopened.get("chase", ("k",)) is None
            assert len(reopened) == 0

    def test_stable_key_digest(self):
        key = (("Q", "abc"), None, True, 5, ChaseVariant.OBLIVIOUS)
        assert stable_key_digest(key) == stable_key_digest(
            (("Q", "abc"), None, True, 5, ChaseVariant.OBLIVIOUS))
        assert stable_key_digest(key) != stable_key_digest(key[:-1])
        # bool/int and str/bytes must not collide
        assert stable_key_digest((1,)) != stable_key_digest((True,))
        assert stable_key_digest(("a",)) != stable_key_digest((b"a",))
        with pytest.raises(PersistentCacheError):
            stable_key_digest((object(),))

    def test_clear(self, tmp_path):
        with PersistentCache(str(tmp_path / "c.sqlite")) as cache:
            cache.put("rewrite", ("k",), "v")
            cache.clear()
            assert len(cache) == 0

    def test_value_pickled_without_memo_fields_reads_correctly(self, tmp_path):
        # Stores written before the fingerprint memos existed hold schemas
        # and queries without the memo attributes; they must still load
        # into objects whose signature and fingerprint work.
        schema = parse_schema(SCHEMA_TEXT)
        query = parse_query(QUERY_PRIME, schema)
        expected = query_fingerprint(query)
        vars(schema).pop("_signature", None)
        vars(schema).pop("_fingerprint_memo", None)
        vars(query).pop("_fingerprint_memo", None)
        payload = pickle.dumps(query, protocol=pickle.HIGHEST_PROTOCOL)
        assert b"_fingerprint_memo" not in payload
        assert b"_signature" not in payload
        path = str(tmp_path / "c.sqlite")
        with PersistentCache(path) as cache:
            cache.put("containment", ("k",), query)
        with PersistentCache(path) as reopened:
            loaded = reopened.get("containment", ("k",))
        assert loaded == query
        assert loaded.input_schema.signature() == schema.signature()
        assert query_fingerprint(loaded) == expected


class TestSolverPersistence:
    def make_queries(self):
        schema = parse_schema(SCHEMA_TEXT)
        sigma = parse_dependencies(DEPS_TEXT, schema)
        return (parse_query(QUERY, schema), parse_query(QUERY_PRIME, schema),
                sigma)

    def test_warm_restart(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        first = Solver(config)
        cold = first.solve(ContainmentRequest(query, query_prime, sigma))
        assert cold.result.holds and not cold.cache_hit
        first.close()

        restarted = Solver(config)
        warm = restarted.solve(ContainmentRequest(query, query_prime, sigma))
        assert warm.cache_hit
        assert warm.result.holds == cold.result.holds
        assert warm.result.method == cold.result.method
        restarted.close()

    def test_cache_stats_includes_persistent(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        solver = Solver(config)
        solver.is_contained(query, query_prime, sigma)
        stats = solver.cache_stats()
        assert stats["persistent"]["writes"] > 0
        assert stats["persistent"]["namespaces"]["containment"] == 1
        # a second solver over the same store reports the hit both in the
        # persistent entry and in the rolled-up total
        solver.close()
        second = Solver(config)
        second.is_contained(query, query_prime, sigma)
        stats = second.cache_stats()
        assert stats["persistent"]["hits"] == 1
        assert stats["total"]["hits"] >= 1
        second.close()

    def test_without_persistence_no_entry(self):
        stats = Solver().cache_stats()
        assert "persistent" not in stats
        assert set(stats) == {"containment", "chase", "rewrite", "total"}

    def test_clear_caches_can_wipe_store(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        config = SolverConfig(persistent_cache_path=str(tmp_path / "s.sqlite"))
        solver = Solver(config)
        solver.is_contained(query, query_prime, sigma)
        assert len(solver.persistent_cache) > 0
        solver.clear_caches(persistent=True)
        assert len(solver.persistent_cache) == 0
        solver.close()

    def test_shared_store_between_solvers(self, tmp_path):
        query, query_prime, sigma = self.make_queries()
        store = PersistentCache(str(tmp_path / "shared.sqlite"))
        writer = Solver(persistent_cache=store)
        reader = Solver(persistent_cache=store)
        writer.is_contained(query, query_prime, sigma)
        writer_totals = writer.cache_stats()["total"].copy()
        response = reader.solve(ContainmentRequest(query, query_prime, sigma))
        assert response.cache_hit
        # the reader's disk hit is its own: per-solver persistent
        # counters, not the store's globals, feed each solver's totals
        assert writer.cache_stats()["total"] == writer_totals
        reader_stats = reader.cache_stats()["persistent"]
        assert reader_stats["hits"] == 1 and reader_stats["misses"] == 0
        assert reader_stats["store"]["hits"] == 1
        # close() must not steal the shared store from its sibling
        writer.close()
        assert reader.solve(ContainmentRequest(query, query_prime, sigma)).result.holds
        store.close()


# ---------------------------------------------------------------------------
# Protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_parse_line_defaults_to_contain(self):
        record = parse_line(json.dumps({"query": QUERY, "query_prime": QUERY_PRIME}))
        assert record["op"] == "contain"

    @pytest.mark.parametrize("line, kind", [
        ("", "protocol"),
        ("not json", "protocol"),
        ("[1, 2]", "protocol"),
        (json.dumps({"op": "nope"}), "protocol"),
        (json.dumps({"op": "contain", "query": QUERY}), "protocol"),
        (json.dumps({"op": "chase"}), "protocol"),
        (json.dumps({"op": "rewrite", "query": QUERY}), "protocol"),
        (json.dumps({"op": "chase", "query": 7}), "protocol"),
        (json.dumps({"op": "chase", "query": QUERY, "max_level": "x"}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "max_level": 0}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "max_conjuncts": True}), "budget"),
        (json.dumps({"op": "chase", "query": QUERY, "variant": "Z"}), "protocol"),
        (json.dumps({"op": "chase", "query": None}), "protocol"),
        (json.dumps({"op": "fleet.status"}), "protocol"),
    ])
    def test_parse_line_rejects(self, line, kind):
        with pytest.raises(ProtocolError) as excinfo:
            parse_line(line)
        assert excinfo.value.kind == kind

    def test_handle_record_never_raises(self):
        solver = Solver()
        # schema text that does not parse → parse-kind envelope
        envelope = handle_record(contain_record(schema="NOT A SCHEMA(("), solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"
        # structurally bad record → protocol-kind envelope
        envelope = handle_record({"op": "contain"}, solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"
        # no schema anywhere → protocol-kind envelope
        envelope = handle_record({"query": QUERY, "query_prime": QUERY_PRIME},
                                 solver)
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"

    def test_handle_contain_matches_direct_solver(self):
        solver = Solver()
        envelope = handle_record(contain_record(), solver, shard=3)
        assert envelope["ok"] and envelope["op"] == "contain"
        assert envelope["shard"] == 3 and envelope["id"] == "q1"
        schema = parse_schema(SCHEMA_TEXT)
        direct = Solver().is_contained(
            parse_query(QUERY, schema), parse_query(QUERY_PRIME, schema),
            parse_dependencies(DEPS_TEXT, schema))
        assert envelope["result"]["holds"] == direct.holds
        assert envelope["result"]["method"] == direct.method

    def test_handle_chase_and_rewrite(self):
        solver = Solver()
        chase = handle_record({"op": "chase", "query": QUERY,
                               "schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                               "max_level": 3, "variant": "O"}, solver)
        assert chase["ok"] and chase["result"]["variant"] == "O"
        assert chase["result"]["max_level"] >= 1
        rewrite = handle_record({"op": "rewrite", "query": QUERY_PRIME,
                                 "views": VIEWS_TEXT, "schema": SCHEMA_TEXT,
                                 "deps": DEPS_TEXT}, solver)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]

    def test_defaults_supply_schema(self):
        defaults = ServiceDefaults(schema_text=SCHEMA_TEXT, deps_text=DEPS_TEXT)
        envelope = handle_record({"query": QUERY, "query_prime": QUERY_PRIME},
                                 Solver(), defaults)
        assert envelope["ok"] and envelope["result"]["holds"]

    def test_budget_clamped_to_limits(self):
        limits = ServiceLimits(max_conjuncts=50, max_level=2)
        envelope = handle_record(
            {"op": "chase", "query": QUERY, "schema": SCHEMA_TEXT,
             "deps": DEPS_TEXT, "max_level": 99, "max_conjuncts": 10 ** 9},
            Solver(), limits=limits)
        assert envelope["ok"]
        assert envelope["result"]["max_level"] <= 2

    def test_ping_and_stats(self):
        solver = Solver()
        assert handle_record({"op": "ping"}, solver)["result"]["pong"]
        stats = handle_record({"op": "stats"}, solver)["result"]
        assert "cache_stats" in stats and "requests" in stats


# ---------------------------------------------------------------------------
# Shard routing
# ---------------------------------------------------------------------------


class TestRouting:
    def test_shard_for_is_deterministic_and_in_range(self):
        assert shard_for("a", "b", 4) == shard_for("a", "b", 4)
        for count in (1, 2, 7):
            assert 0 <= shard_for("a", "b", count) < count
        with pytest.raises(ValueError):
            shard_for("a", "b", 0)

    def test_routing_fingerprints_track_tenant(self):
        parser = TenantParser()
        defaults = ServiceDefaults()
        base = routing_fingerprints(contain_record(), defaults, parser)
        same = routing_fingerprints(contain_record(id="other"), defaults, parser)
        assert base == same
        other_deps = routing_fingerprints(contain_record(deps=None), defaults,
                                          parser)
        assert other_deps != base

    def test_tenants_spread_and_pin(self):
        traffic = TrafficGenerator(tenant_count=12, seed=5)
        with ShardedSolverPool(shard_count=4, mode="inline") as pool:
            routes = {}
            for record in traffic.requests(60, stream_seed=0):
                tenant = record["id"].split("/", 1)[0]
                routes.setdefault(tenant, set()).add(
                    pool.shard_for_record(record))
        assert all(len(shards) == 1 for shards in routes.values())
        assert len({next(iter(s)) for s in routes.values()}) > 1

    def test_control_ops_route_to_shard_zero(self):
        with ShardedSolverPool(shard_count=3, mode="inline") as pool:
            assert pool.execute({"op": "ping"})["shard"] == 0
            assert pool.execute({"op": "stats"})["shard"] == 0


# ---------------------------------------------------------------------------
# The front-end query memo
# ---------------------------------------------------------------------------


def _result_without_timings(envelope):
    """An envelope's result minus the wall-clock fields that differ run to run."""
    result = dict(envelope.get("result") or {})
    result.pop("stage_timings", None)
    return envelope["ok"], result


class TestQueryMemo:
    def test_repeat_query_returns_the_identical_object(self):
        parser = TenantParser()
        first = parser.query(QUERY, SCHEMA_TEXT)
        assert parser.query(QUERY, SCHEMA_TEXT) is first
        assert parser.query(QUERY, SCHEMA_TEXT + "\n") is not first
        assert parser.query_parses == 2

    def test_parse_failures_are_not_memoised(self):
        parser = TenantParser()
        solver = Solver()
        record = contain_record(query="Q(e) :- NOPE(e")
        for _ in range(2):
            envelope = handle_record(record, solver, parser=parser)
            assert not envelope["ok"]
            assert envelope["error"]["kind"] == "parse"
        assert parser.query_parses == 2

    def test_query_memo_stays_within_its_bound(self):
        parser = TenantParser(max_entries=8)
        for index in range(50):
            parser.query(f"Q{index}(e) :- EMP(e, s, d)", SCHEMA_TEXT)
            assert len(parser._queries) <= 8
        # An evicted text is parsed again, not lost.
        parsed = parser.query_parses
        parser.query("Q0(e) :- EMP(e, s, d)", SCHEMA_TEXT)
        assert parser.query_parses == parsed + 1

    def test_shared_parser_survives_concurrent_use(self):
        # Threads sharing one parser race on the query memo and its
        # bounding; every call must still return the right query, and
        # its memoised fingerprint must match a fresh parse.
        parser = TenantParser(max_entries=4)
        texts = [f"Q{index}(e) :- EMP(e, s, d), DEP(d, l)" for index in range(12)]
        expected = query_fingerprint(parse_query(texts[0],
                                                 parse_schema(SCHEMA_TEXT)))
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    for text in texts:
                        query = parser.query(text, SCHEMA_TEXT)
                        assert query.name == text.split("(", 1)[0]
                        assert query_fingerprint(query) == expected
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_parse_span_tags_query_memo_hits(self):
        parser = TenantParser()
        solver = make_worker_solver()
        tags = []
        for _ in range(2):
            record = contain_record(trace_context={"id": new_trace_id(),
                                                   "collect": True})
            envelope = handle_record(record, solver, parser=parser)
            assert envelope["ok"]
            tags += [span["tags"]["query_memo_hit"]
                     for span in envelope["spans"] if span["name"] == "parse"]
        assert tags == [False, True]

    def test_warm_replay_parses_no_query_text(self, monkeypatch):
        """The tier-1 twin of the benchmark's ``parser.query_parses_per_op``."""
        records = TrafficGenerator(tenant_count=8, seed=0).requests(2000)
        distinct = {(record[field], record["schema"]) for record in records
                    for field in ("query", "query_prime") if field in record}
        real_parse_query = protocol.parse_query
        calls = []

        def counting_parse_query(text, schema):
            calls.append(text)
            return real_parse_query(text, schema)

        monkeypatch.setattr(protocol, "parse_query", counting_parse_query)
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            first = pool.execute_all(records)
            first_calls = len(calls)
            second = pool.execute_all(records)
        # An inline pool's shards share the front end's parser, so each
        # distinct (text, schema) is parsed exactly once — inside the
        # one-per-shard allowance — and the replay parses nothing.
        assert first_calls == len(distinct)
        assert len(calls) == first_calls

        monkeypatch.setattr(
            TenantParser, "query",
            lambda self, text, schema_text: real_parse_query(
                text, self.schema(schema_text)))
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            bypassed = pool.execute_all(records)
        assert all(envelope["ok"] for envelope in first)
        for memoised, again, unmemoised in zip(first, second, bypassed):
            expected = _result_without_timings(unmemoised)
            assert _result_without_timings(memoised) == expected
            assert _result_without_timings(again) == expected


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


class TestShardedSolverPool:
    def test_inline_and_thread_agree(self):
        records = [contain_record(id=str(index)) for index in range(4)]
        records.append({"op": "chase", "query": QUERY, "schema": SCHEMA_TEXT,
                        "deps": DEPS_TEXT, "max_level": 2, "id": "c"})
        with ShardedSolverPool(shard_count=2, mode="inline") as inline_pool:
            inline = inline_pool.execute_all(records)
        with ShardedSolverPool(shard_count=2, mode="thread") as thread_pool:
            threaded = thread_pool.execute_all(records)
        for first, second in zip(inline, threaded):
            assert first["ok"] and second["ok"]
            assert first["result"] == second["result"]
            assert first["shard"] == second["shard"]

    def test_process_mode_round_trip(self):
        with ShardedSolverPool(shard_count=2, mode="process") as pool:
            envelope = pool.execute(contain_record())
            assert envelope["ok"] and envelope["result"]["holds"]
            stats = pool.stats()
            assert stats["mode"] == "process"
            assert len(stats["shards"]) == 2

    def test_execute_all_preserves_order(self):
        records = [contain_record(id=f"r{index}") for index in range(6)]
        with ShardedSolverPool(shard_count=3, mode="thread") as pool:
            envelopes = pool.execute_all(records)
        assert [envelope["id"] for envelope in envelopes] == [
            record["id"] for record in records]

    def test_invalid_construction(self):
        from repro.exceptions import ReproError
        with pytest.raises(ReproError):
            ShardedSolverPool(shard_count=0)
        with pytest.raises(ReproError):
            ShardedSolverPool(mode="quantum")
        with pytest.raises(ReproError):
            ShardedSolverPool(max_pending=0)

    @pytest.mark.parametrize("record", [
        {"id": "n", "op": None},
        {"id": "o", "op": {"a": 1}},
        contain_record(id="s", schema=5),
        contain_record(id="d", deps=7),
    ])
    def test_invalid_records_get_envelopes_not_exceptions(self, record):
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            for envelope in (pool.execute(record),
                             pool.execute_all([record])[0]):
                assert envelope["id"] == record["id"]
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"

    def test_obs_ops_are_answered_at_the_pool_front(self):
        # No schema anywhere: an obs op must not reach affinity routing.
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            for envelope in (pool.execute({"op": "obs.health", "id": "h"}),
                             pool.execute_all([{"op": "obs.health"}])[0]):
                assert envelope["ok"], envelope
                assert envelope["result"]["pid"] > 0
                assert "shard" not in envelope

    def test_explicit_and_bad_routing(self):
        from repro.exceptions import ReproError
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            assert pool.execute(contain_record(), routing=1)["shard"] == 1
            with pytest.raises(ReproError):
                pool.execute(contain_record(), routing=9)
            with pytest.raises(ReproError):
                pool.execute(contain_record(), routing="psychic")


# ---------------------------------------------------------------------------
# Server + client (the full wire)
# ---------------------------------------------------------------------------


@pytest.fixture()
def served_pool(tmp_path):
    """A thread-sharded service on a Unix socket, plus a connected client."""
    socket_path = str(tmp_path / "repro.sock")
    pool = ShardedSolverPool(shard_count=2, mode="thread")
    service = SolverService(pool, unix_path=socket_path)
    with service.run_in_thread():
        with ServiceClient(unix_path=socket_path) as client:
            yield pool, client, socket_path
    pool.close()


class TestServiceWire:
    def test_round_trips(self, served_pool):
        _, client, _ = served_pool
        assert client.ping()

        contain = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT,
                                 deps=DEPS_TEXT, identifier="w1")
        assert contain["ok"] and contain["result"]["holds"]
        assert contain["id"] == "w1" and "shard" in contain

        # the repeat is answered by the same shard's cache
        repeat = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT,
                                deps=DEPS_TEXT)
        assert repeat["cache_hit"] and repeat["shard"] == contain["shard"]

        chase = client.chase(QUERY, schema=SCHEMA_TEXT, deps=DEPS_TEXT,
                             max_level=3)
        assert chase["ok"] and chase["result"]["statistics"]["total_steps"] >= 0

        rewrite = client.rewrite(QUERY_PRIME, VIEWS_TEXT, schema=SCHEMA_TEXT,
                                 deps=DEPS_TEXT)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]

        without_deps = client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT)
        assert without_deps["ok"] and not without_deps["result"]["holds"]

    def test_malformed_requests_get_error_envelopes(self, served_pool):
        _, client, socket_path = served_pool
        envelope = client.request({"op": "contain", "query": QUERY})
        assert not envelope["ok"] and envelope["error"]["kind"] == "protocol"

        envelope = client.request({"id": "bad", "op": "mystery"})
        assert not envelope["ok"] and envelope["id"] == "bad"

        envelope = client.contain("Q(x :- broken(", QUERY_PRIME,
                                  schema=SCHEMA_TEXT)
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"

        # unparsable *schema* text fails on the front end (during shard
        # routing, before any worker runs) — still kind "parse", not
        # "internal": it is a client input problem either way
        envelope = client.contain(QUERY, QUERY_PRIME,
                                  schema="this is :::: not a schema")
        assert not envelope["ok"] and envelope["error"]["kind"] == "parse"

        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.connect(socket_path)
        raw.sendall(b"this is not json\n")
        reply = json.loads(raw.makefile().readline())
        raw.close()
        assert not reply["ok"] and reply["error"]["kind"] == "protocol"
        with pytest.raises(ServiceClientError):
            ServiceClient.check(reply)

    def test_stats_merges_all_shards(self, served_pool):
        pool, client, _ = served_pool
        client.contain(QUERY, QUERY_PRIME, schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        stats = client.stats()
        assert stats["pool"]["shard_count"] == pool.shard_count
        assert len(stats["shards"]) == pool.shard_count
        assert all("cache_stats" in shard for shard in stats["shards"])

    def test_admission_control_rejects_when_full(self, tmp_path):
        socket_path = str(tmp_path / "busy.sock")
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, unix_path=socket_path, max_pending=0)
        with service.run_in_thread():
            with ServiceClient(unix_path=socket_path) as client:
                envelope = client.request(contain_record())
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "overloaded"
                # control plane ops stay answerable under load shedding
                assert client.ping()
        pool.close()

    def test_tcp_transport(self):
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, host="127.0.0.1", port=0)
        with service.run_in_thread() as handle:
            _, (host, port) = handle.address
            with ServiceClient(host=host, port=port) as client:
                envelope = client.contain(QUERY, QUERY_PRIME,
                                          schema=SCHEMA_TEXT, deps=DEPS_TEXT)
                assert envelope["ok"] and envelope["result"]["holds"]
        pool.close()

    def test_server_side_defaults(self, tmp_path):
        socket_path = str(tmp_path / "defaults.sock")
        defaults = ServiceDefaults(schema_text=SCHEMA_TEXT, deps_text=DEPS_TEXT)
        pool = ShardedSolverPool(shard_count=1, mode="inline", defaults=defaults)
        service = SolverService(pool, unix_path=socket_path)
        with service.run_in_thread():
            with ServiceClient(unix_path=socket_path) as client:
                envelope = client.contain(QUERY, QUERY_PRIME)
                assert envelope["ok"] and envelope["result"]["holds"]
        pool.close()

    def test_persistent_reuse_across_service_restart(self, tmp_path):
        socket_path = str(tmp_path / "persist.sock")
        config = SolverConfig(
            persistent_cache_path=str(tmp_path / "service.sqlite"))

        def one_lifetime():
            pool = ShardedSolverPool(shard_count=2, mode="thread", config=config)
            service = SolverService(pool, unix_path=socket_path)
            with service.run_in_thread():
                with ServiceClient(unix_path=socket_path) as client:
                    envelope = client.contain(QUERY, QUERY_PRIME,
                                              schema=SCHEMA_TEXT,
                                              deps=DEPS_TEXT)
            pool.close()
            return envelope

        cold = one_lifetime()
        assert cold["ok"] and not cold["cache_hit"]
        warm = one_lifetime()
        assert warm["ok"] and warm["cache_hit"]
        assert warm["result"]["holds"] == cold["result"]["holds"]


# ---------------------------------------------------------------------------
# Traffic generation
# ---------------------------------------------------------------------------


class TestTrafficGenerator:
    def test_deterministic_streams(self):
        first = TrafficGenerator(tenant_count=5, seed=9).requests(25)
        second = TrafficGenerator(tenant_count=5, seed=9).requests(25)
        assert first == second
        different = TrafficGenerator(tenant_count=5, seed=9).requests(
            25, stream_seed=1)
        assert different != first

    def test_records_validate_and_execute(self):
        traffic = TrafficGenerator(tenant_count=3, seed=4)
        records = traffic.requests(12)
        for record in records:
            validate_record(record)
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            envelopes = pool.execute_all(records)
        assert all(envelope["ok"] for envelope in envelopes)
        # known-positive containment pairs must actually hold
        for record, envelope in zip(records, envelopes):
            if record["op"] == "contain":
                assert envelope["result"]["holds"]

    def test_zipf_skew(self):
        traffic = TrafficGenerator(tenant_count=6, seed=3)
        shares = traffic.tenant_shares(traffic.requests(300))
        assert shares["tenant-0"] == max(shares.values())
        assert shares["tenant-0"] > 1.5 * shares["tenant-5"]
        assert abs(sum(shares.values()) - 1.0) < 1e-9

    def test_mix_controls_ops(self):
        traffic = TrafficGenerator(tenant_count=2, seed=1)
        records = traffic.requests(10, mix={"chase": 1.0})
        assert {record["op"] for record in records} == {"chase"}
        with pytest.raises(ValueError):
            traffic.requests(5, mix={"dance": 1.0})

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TrafficGenerator(tenant_count=0)
        with pytest.raises(ValueError):
            TrafficGenerator(zipf_exponent=0)
        with pytest.raises(ValueError):
            TrafficGenerator(tenant_count=2).requests(-1)


# ---------------------------------------------------------------------------
# PR 5 hardening: construction-time validation and UTF-8 handling
# ---------------------------------------------------------------------------


class TestStartupValidation:
    """Misconfigured front ends must fail at startup, not per request."""

    def test_pool_rejects_non_positive_shard_count(self):
        from repro.exceptions import ReproError
        for count in (0, -1):
            with pytest.raises(ReproError):
                ShardedSolverPool(shard_count=count, mode="inline")

    def test_service_limits_reject_non_positive_ceilings(self):
        from repro.exceptions import ReproError
        with pytest.raises(ReproError):
            ServiceLimits(max_conjuncts=0)
        with pytest.raises(ReproError):
            ServiceLimits(max_conjuncts=-5)
        with pytest.raises(ReproError):
            ServiceLimits(max_level=0)
        assert ServiceLimits(max_conjuncts=10, max_level=1).max_level == 1

    def test_server_rejects_negative_max_pending(self):
        from repro.exceptions import ReproError
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        with pytest.raises(ReproError):
            SolverService(pool, max_pending=-1)
        pool.close()

    def test_cli_serve_with_bad_shards_exits_with_error(self, capsys):
        from repro.cli import main
        assert main(["serve", "--shards", "0", "--port", "0"]) == 2
        assert "shard_count" in capsys.readouterr().err


class TestInvalidUTF8Requests:
    def test_invalid_utf8_line_gets_protocol_envelope(self, tmp_path):
        """Invalid UTF-8 must not be silently mangled by errors='replace'
        and routed as if it were valid tenant text."""
        socket_path = str(tmp_path / "utf8.sock")
        pool = ShardedSolverPool(shard_count=1, mode="inline")
        service = SolverService(pool, unix_path=socket_path)
        with service.run_in_thread():
            raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            raw.connect(socket_path)
            try:
                # A contain record whose deps text carries an invalid byte.
                payload = (b'{"id": "bad", "query": "Q(e) :- EMP(e, s, d)", '
                           b'"query_prime": "Q(e) :- EMP(e, s, d)", '
                           b'"schema": "EMP(emp, sal, dept)", '
                           b'"deps": "EMP: emp -> \xff sal"}\n')
                raw.sendall(payload)
                buffered = raw.makefile("rb")
                envelope = json.loads(buffered.readline())
                assert not envelope["ok"]
                assert envelope["error"]["kind"] == "protocol"
                assert "UTF-8" in envelope["error"]["message"]
                # The connection survives; a valid request still answers.
                raw.sendall((json.dumps(contain_record()) + "\n").encode("utf-8"))
                follow_up = json.loads(buffered.readline())
                assert follow_up["ok"] and follow_up["result"]["holds"]
            finally:
                raw.close()
        pool.close()


# ---------------------------------------------------------------------------
# Catalog registration (PR 10): catalog.put/list/drop + rewrite-by-fp
# ---------------------------------------------------------------------------


class TestCatalogStore:
    def test_put_get_drop_round_trip(self):
        from repro.service import CatalogStore
        store = CatalogStore()
        parser = TenantParser()
        entry = store.put(VIEWS_TEXT, SCHEMA_TEXT, parser, name="intro")
        assert entry["view_count"] == 1 and entry["name"] == "intro"
        assert not entry["replaced"]
        assert store.get(entry["fingerprint"])["views_text"] == VIEWS_TEXT
        assert len(store) == 1
        # Re-putting the same catalog replaces in place.
        again = store.put(VIEWS_TEXT, SCHEMA_TEXT, parser)
        assert again["fingerprint"] == entry["fingerprint"]
        assert again["replaced"] and len(store) == 1
        assert store.drop(entry["fingerprint"])
        assert not store.drop(entry["fingerprint"])
        assert len(store) == 0

    def test_fingerprint_matches_the_client_side_computation(self):
        from repro.api.fingerprints import catalog_fingerprint
        from repro.parser.view_parser import parse_views
        from repro.service import CatalogStore
        store = CatalogStore()
        entry = store.put(VIEWS_TEXT, SCHEMA_TEXT, TenantParser())
        local = catalog_fingerprint(
            parse_views(VIEWS_TEXT, parse_schema(SCHEMA_TEXT)))
        assert entry["fingerprint"] == local

    def test_empty_catalog_is_rejected(self):
        from repro.service import CatalogStore
        with pytest.raises(ProtocolError):
            CatalogStore().put("", SCHEMA_TEXT, TenantParser())

    def test_store_is_bounded(self):
        from repro.service import CatalogStore
        store = CatalogStore(max_entries=4)
        parser = TenantParser()
        for index in range(9):
            views = f"V{index}(e, s, d) :- EMP(e, s, d)"
            store.put(views, SCHEMA_TEXT, parser)
        assert len(store) <= 4

    def test_validate_record_accepts_catalog_ops(self):
        validate_record({"op": "catalog.put", "views": VIEWS_TEXT,
                         "schema": SCHEMA_TEXT})
        validate_record({"op": "catalog.list"})
        validate_record({"op": "catalog.drop", "catalog_fp": "abc"})
        with pytest.raises(ProtocolError):
            validate_record({"op": "catalog.put"})  # views missing
        with pytest.raises(ProtocolError):
            validate_record({"op": "catalog.drop"})  # catalog_fp missing
        # rewrite needs views OR catalog_fp — neither is a protocol error
        validate_record({"op": "rewrite", "query": QUERY,
                         "catalog_fp": "abc"})
        with pytest.raises(ProtocolError):
            validate_record({"op": "rewrite", "query": QUERY})


class TestCatalogService:
    def test_pool_round_trip_and_rewrite_by_fp(self, served_pool):
        pool, client, _ = served_pool
        put = client.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT,
                                 name="intro", identifier="cp1")
        assert put["ok"] and put["id"] == "cp1"
        fingerprint = put["result"]["fingerprint"]
        assert put["result"]["view_count"] == 1

        listed = client.catalog_list()
        assert listed["ok"]
        assert [row["fingerprint"] for row in listed["result"]["catalogs"]] \
            == [fingerprint]

        # Rewrite referencing the registered catalog by fingerprint only.
        rewrite = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                                 schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        assert rewrite["ok"] and rewrite["result"]["rewritings"]
        assert pool.counters()["catalogs"] == 1

        dropped = client.catalog_drop(fingerprint)
        assert dropped["ok"] and dropped["result"]["dropped"]
        gone = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                              schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        assert not gone["ok"] and gone["error"]["kind"] == "protocol"
        assert "catalog.put" in gone["error"]["message"]

    def test_rewrite_records_are_answered_by_bucketed(self, served_pool):
        _, client, _ = served_pool
        put = client.catalog_put(VIEWS_TEXT, schema=SCHEMA_TEXT)
        fingerprint = put["result"]["fingerprint"]
        envelope = client.rewrite(QUERY_PRIME, catalog_fp=fingerprint,
                                  schema=SCHEMA_TEXT, deps=DEPS_TEXT)
        assert envelope["ok"], envelope
        assert envelope["result"]["strategy"] == "bucketed"
        assert envelope["result"]["rewritings"]
        # A stray "strategy" field is an unlisted field like any other:
        # ignored, not an error, and it selects nothing.
        stray = client.request({"op": "rewrite", "query": QUERY_PRIME,
                                "catalog_fp": fingerprint,
                                "schema": SCHEMA_TEXT, "deps": DEPS_TEXT,
                                "strategy": "exhaustive"})
        assert stray["ok"], stray
        assert stray["result"]["strategy"] == "bucketed"

    def test_catalog_traffic_replays_through_a_pool(self):
        traffic = TrafficGenerator(tenant_count=3, seed=11)
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            for registration in traffic.catalog_registrations():
                envelope = pool.submit(registration).result()
                assert envelope["ok"], envelope
            assert pool.counters()["catalogs"] == 3
            responses = pool.execute_all(traffic.catalog_requests(12))
            assert len(responses) == 12
            assert all(envelope["ok"] for envelope in responses)
            assert all(envelope["result"]["strategy"] == "bucketed"
                       for envelope in responses)


# ---------------------------------------------------------------------------
# Warm hits: the envelope encoder, the payload and config memos, and
# validating each record once
# ---------------------------------------------------------------------------


def as_json_line(envelope):
    """What every front end wrote before ``encode_envelope`` existed."""
    return json.dumps(envelope, sort_keys=True, default=str).encode() + b"\n"


def chase_record(**overrides):
    record = {"op": "chase", "id": "c1", "query": QUERY, "schema": SCHEMA_TEXT,
              "deps": DEPS_TEXT, "max_level": 3}
    record.update(overrides)
    return record


def rewrite_record(**overrides):
    record = {"op": "rewrite", "id": "r1", "query": QUERY_PRIME,
              "views": VIEWS_TEXT, "schema": SCHEMA_TEXT, "deps": DEPS_TEXT}
    record.update(overrides)
    return record


DATA_PLANE_RECORDS = {"contain": contain_record, "chase": chase_record,
                      "rewrite": rewrite_record}


def every_op_record(fingerprint):
    """One valid record per op a pool answers (no coordinator ops)."""
    return [
        contain_record(id="contain"), chase_record(id="chase"),
        rewrite_record(id="rewrite"),
        {"op": "rewrite", "id": "by-fp", "query": QUERY_PRIME,
         "catalog_fp": fingerprint, "deps": DEPS_TEXT},
        {"op": "stats", "id": 7}, {"op": "ping", "id": None},
        {"op": "catalog.put", "views": VIEWS_TEXT, "schema": SCHEMA_TEXT},
        {"op": "catalog.list", "id": ["a", 1]},
        {"op": "catalog.drop", "catalog_fp": "0" * 64},
        {"op": "obs.metrics"}, {"op": "obs.metrics", "format": "prometheus"},
        {"op": "obs.trace", "limit": 2}, {"op": "obs.health"},
        {"op": "obs.profile"},
    ]


def without_timings(envelope):
    """An envelope minus the wall-clock fields that differ run to run."""
    envelope = dict(envelope)
    envelope.pop("elapsed_s", None)
    if isinstance(envelope.get("result"), dict):
        envelope["result"] = dict(envelope["result"])
        envelope["result"].pop("stage_timings", None)
    return envelope


class TestEncodeEnvelope:
    def test_every_op_encodes_like_json_dumps_fresh_and_memoised(self):
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            fingerprint = pool.execute({
                "op": "catalog.put", "views": VIEWS_TEXT,
                "schema": SCHEMA_TEXT})["result"]["fingerprint"]
            fresh = [pool.execute(record)
                     for record in every_op_record(fingerprint)]
            warm = [pool.execute(record)
                    for record in every_op_record(fingerprint)]
        for first, second in zip(fresh, warm):
            assert first["ok"] and second["ok"], (first, second)
            for envelope in (first, second):
                assert protocol.encode_envelope(envelope) == as_json_line(
                    envelope)
            if first["op"] in DATA_PLANE_RECORDS:
                # The warm answer is the memoised payload itself.
                assert second["cache_hit"]
                assert isinstance(second["result"], protocol.Payload)
                assert second["result"] is first["result"]
        assert not any(envelope["cache_hit"] for envelope in fresh[:3])
        assert {envelope["op"] for envelope in warm} == {
            op for op, spec in protocol.OPS.items()
            if spec.answered_by != "coordinator"}

    def test_failure_envelopes_encode_like_json_dumps(self):
        solver = Solver()
        envelopes = [
            handle_record(contain_record(max_conjuncts=-1), solver),
            handle_record(contain_record(query="Q(e) :- NOPE(e"), solver),
            handle_record({"op": "catalog.put", "views": VIEWS_TEXT}, solver),
            handle_record({"op": "rewrite", "query": QUERY,
                           "catalog_fp": "abc", "schema": SCHEMA_TEXT},
                          solver),
            protocol.failure_envelope("x", ValueError("boom"), shard=1),
            protocol.error_envelope({"nested": [1, 2]}, "overloaded", "busy"),
        ]
        for envelope in envelopes:
            assert not envelope["ok"]
            assert protocol.encode_envelope(envelope) == as_json_line(envelope)

    @pytest.mark.parametrize("op", sorted(DATA_PLANE_RECORDS))
    def test_traced_envelopes_encode_like_json_dumps(self, op):
        solver = Solver()
        for _ in range(2):  # fresh, then memoised
            record = DATA_PLANE_RECORDS[op](trace_context={
                "id": new_trace_id(), "collect": True})
            envelope = handle_record(record, solver, shard=0)
            assert envelope["ok"] and envelope["trace_id"] and envelope["spans"]
            assert protocol.encode_envelope(envelope) == as_json_line(envelope)

    @pytest.mark.parametrize("envelope", [
        {"result": {"b": 1, "a": [2.5, None]}},
        {"ok": True, "result": {}},
        {"result": {"x": "é\n"}, "zz": {"result": 1}},
        {"id": '", "result": null, "x": "', "result": {"a": 1},
         "spans": [{"result": "s"}], "trace_id": "t"},
        {"id": {"result": {"k": 1}}, "op": "contain", "result": {"z": 0}},
        {"cache_hit": True, "result": {"object": object.__name__},
         "shard": 3, "elapsed_s": 1e-7},
    ])
    def test_spliced_payload_keeps_key_order_and_escaping(self, envelope):
        spliced = dict(envelope, result=protocol.Payload(envelope["result"]))
        assert protocol.encode_envelope(spliced) == as_json_line(envelope)
        assert protocol.encode_envelope(spliced) == as_json_line(spliced)

    def test_payload_keeps_its_text_across_a_pickle(self):
        envelope = handle_record(contain_record(), Solver())
        loaded = pickle.loads(pickle.dumps(envelope))
        assert isinstance(loaded["result"], protocol.Payload)
        assert loaded["result"].text == envelope["result"].text
        assert loaded == envelope
        assert protocol.encode_envelope(loaded) == as_json_line(envelope)


class TestWarmHitMemo:
    @pytest.mark.parametrize("op", sorted(DATA_PLANE_RECORDS))
    def test_warm_reply_equals_the_memo_bypassed_reply(self, op, monkeypatch):
        solver, parser = Solver(), TenantParser()
        record = DATA_PLANE_RECORDS[op]()
        cold = handle_record(record, solver, parser=parser)
        warm = handle_record(record, solver, parser=parser)
        monkeypatch.setattr(protocol, "_memoised",
                            lambda owner, key, render: render())
        monkeypatch.setattr(Solver, "derive_config",
                            lambda self, **changes: self.config.derive(**changes))
        bypassed = handle_record(record, solver, parser=parser)
        assert not isinstance(bypassed["result"], protocol.Payload)
        assert warm["cache_hit"] and bypassed["cache_hit"]
        # The same cached result underlies all three, so even the rewrite
        # stage timings agree; only the envelope's own elapsed_s moves.
        for envelope in (cold, warm):
            assert {**envelope, "elapsed_s": 0, "cache_hit": True} == {
                **bypassed, "elapsed_s": 0}

    def test_traced_chase_is_rendered_fresh_not_from_the_memo(self):
        solver = Solver()
        plain = handle_record(chase_record(), solver)
        traced = [handle_record(chase_record(trace=True), solver)
                  for _ in range(2)]
        again = handle_record(chase_record(), solver)
        assert again["result"] is plain["result"]
        assert "trace" not in plain["result"]
        assert traced[0]["result"] is not traced[1]["result"]
        for envelope in traced:
            assert envelope["cache_hit"]
            assert not isinstance(envelope["result"], protocol.Payload)
            assert envelope["result"]["trace"]
            assert {**envelope["result"], "trace": None} == {
                **plain["result"], "trace": None}
            assert protocol.encode_envelope(envelope) == as_json_line(envelope)

    def test_memo_is_rerendered_for_another_key(self):
        calls = []

        class Owner(protocol.WireMemo):
            pass

        owner = Owner()

        def render():
            calls.append(1)
            return {"n": len(calls)}

        first = protocol._memoised(owner, 1, render)
        assert protocol._memoised(owner, 1, render) is first
        second = protocol._memoised(owner, 2, render)
        assert second == {"n": 2} and len(calls) == 2

    def test_derived_config_memo_stays_within_its_bound(self):
        solver = Solver()
        bound = sys.modules[Solver.__module__]._DERIVED_CONFIG_MEMO_SIZE
        for budget in range(1, 5001):
            envelope = handle_record(
                contain_record(deps="", max_conjuncts=budget), solver)
            assert envelope["ok"], envelope
            assert len(solver._derived_configs) <= bound
            assert envelope["result"]["budget"]["max_conjuncts"] == budget
        # An evicted override derives again, equal to a fresh derivation.
        assert solver.derive_config(max_conjuncts=1) == solver.config.derive(
            max_conjuncts=1)

    def test_shared_solver_survives_concurrent_warm_hits(self):
        # Threads sharing one solver race on the derived-config memo (its
        # bound churns: more budgets than it holds) and on the payload
        # memos; every reply must still carry its own request's budget
        # and encode like json.dumps.
        solver, parser = Solver(), TenantParser()
        budgets = range(1, 400)
        errors = []

        def hammer(offset):
            try:
                for index in range(150):
                    budget = budgets[(offset * 37 + index) % len(budgets)]
                    envelope = handle_record(
                        contain_record(deps="", max_conjuncts=budget),
                        solver, parser=parser)
                    assert envelope["ok"], envelope
                    assert envelope["result"]["budget"]["max_conjuncts"] == budget
                    assert protocol.encode_envelope(envelope) == as_json_line(
                        envelope)
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(offset,))
                       for offset in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        bound = sys.modules[Solver.__module__]._DERIVED_CONFIG_MEMO_SIZE
        assert len(solver._derived_configs) <= bound

    def test_refused_override_is_not_memoised(self):
        solver = Solver()
        from repro.exceptions import ReproError
        for _ in range(2):
            with pytest.raises(ReproError):
                solver.derive_config(max_conjuncts=0)
        assert solver._derived_configs == {}


class TestValidateOnce:
    @pytest.fixture()
    def counted(self, monkeypatch):
        calls = []
        original = protocol._check_fields

        def check_fields(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(protocol, "_check_fields", check_fields)
        return calls

    @pytest.mark.parametrize("validate", [
        lambda record: validate_record(record),
        lambda record: parse_line(json.dumps(record)),
    ])
    def test_revalidating_a_validated_record_checks_nothing(self, counted,
                                                            validate):
        record = validate(contain_record(
            trace_context={"id": "t", "parent": "p"}))
        assert isinstance(record, protocol.ValidatedRecord) and counted
        counted.clear()
        assert validate_record(record) is record
        solver = Solver()
        assert handle_record(record, solver)["ok"]
        with ShardedSolverPool(shard_count=2, mode="inline") as pool:
            assert pool.execute(record)["ok"]
        assert counted == []

    @pytest.mark.parametrize("overrides, kind", [
        ({"max_conjuncts": -1}, "budget"),
        ({"max_level": 0}, "budget"),
        ({"query": 5}, "protocol"),
        ({"trace_context": {"id": 7}}, "protocol"),
    ])
    def test_plain_dicts_are_still_fully_checked(self, overrides, kind,
                                                 counted):
        envelope = handle_record(contain_record(**overrides), Solver())
        assert not envelope["ok"] and envelope["error"]["kind"] == kind
        assert counted

    def test_validated_record_is_read_only(self):
        record = validate_record(contain_record())
        for mutate in (lambda: record.__setitem__("max_conjuncts", -1),
                       lambda: record.update(max_conjuncts=-1),
                       lambda: record.pop("query"),
                       lambda: record.setdefault("deps", 5),
                       lambda: record.__delitem__("query"),
                       record.clear, record.popitem):
            with pytest.raises(TypeError):
                mutate()
        copy = dict(record, max_conjuncts=-1)
        assert type(copy) is dict
        with pytest.raises(ProtocolError):
            validate_record(copy)

    def test_coordinator_validated_records_are_rechecked_at_a_worker(self):
        record = validate_record({"op": "fleet.status"}, coordinator=True)
        assert validate_record(record, coordinator=True) is record
        with pytest.raises(ProtocolError, match="unknown op"):
            validate_record(record)

    def test_catalog_resolution_keeps_the_record_validated(self, counted):
        store, parser = protocol.CatalogStore(), TenantParser()
        fingerprint = store.put(VIEWS_TEXT, SCHEMA_TEXT, parser)["fingerprint"]
        record = validate_record({"op": "rewrite", "query": QUERY_PRIME,
                                  "catalog_fp": fingerprint})
        counted.clear()
        resolved = protocol.resolve_catalog_record(record, store)
        assert isinstance(resolved, protocol.ValidatedRecord)
        assert resolved["views"] == VIEWS_TEXT
        assert resolved["schema"] == SCHEMA_TEXT
        assert validate_record(resolved) is resolved and counted == []
        plain = protocol.resolve_catalog_record(dict(record), store)
        assert type(plain) is dict and plain == resolved

    def test_validated_record_pickles_as_itself(self):
        record = validate_record(contain_record())
        loaded = pickle.loads(pickle.dumps(record))
        assert type(loaded) is protocol.ValidatedRecord and loaded == record


class TestProcessAndPersistenceParity:
    def test_process_shards_answer_warm_traffic_like_thread_shards(self):
        stream = TrafficGenerator(tenant_count=8, seed=0).requests(
            300, stream_seed=0)
        answers = {}
        for mode in ("thread", "process"):
            with ShardedSolverPool(shard_count=2, mode=mode) as pool:
                pool.execute_all(stream)
                answers[mode] = pool.execute_all(stream)
        for threaded, processed in zip(answers["thread"], answers["process"]):
            assert threaded["ok"] and threaded["cache_hit"], threaded
            assert isinstance(processed["result"], protocol.Payload)
            assert without_timings(processed) == without_timings(threaded)
            # The payload text crossed the process boundary with it.
            assert protocol.encode_envelope(processed) == as_json_line(
                processed)

    def test_wire_memos_never_reach_a_persistent_pickle(self, tmp_path):
        store = PersistentCache(str(tmp_path / "memo.sqlite"))
        solver = Solver(persistent_cache=store)
        for make in DATA_PLANE_RECORDS.values():
            handle_record(make(), solver)
            handle_record(make(), solver)
        results = [entry for cache in (solver._containment_cache,
                                       solver._chase_cache,
                                       solver._rewrite_cache)
                   for entry in cache._data.values() if entry._wire_memo]
        assert {type(result).__name__ for result in results} == {
            "ContainmentResult", "ChaseResult", "RewriteReport"}
        for result in results:
            assert b"_wire_memo" not in pickle.dumps(result)
            store.put("chase", ("memo", id(result)), result)
        rows = store._connection.execute("SELECT value FROM entries").fetchall()
        assert rows and not any(b"_wire_memo" in bytes(row[0]) for row in rows)
        for result in results:
            loaded = store.get("chase", ("memo", id(result)))
            assert loaded._wire_memo is None and type(loaded) is type(result)
            assert set(vars(loaded)) == set(vars(result)) - {"_wire_memo"}
        store.close()

    def test_value_pickled_before_the_memo_existed_loads_and_serves(
            self, tmp_path, monkeypatch):
        # Stores written before the memo slot existed pickled a result's
        # whole __dict__; such a value must load and answer over the
        # wire, so PERSISTENT_FORMAT_VERSION stays 1.
        from repro.api.persistent import PERSISTENT_FORMAT_VERSION
        from repro.memo import WireMemo
        path = str(tmp_path / "old.sqlite")
        config = SolverConfig(persistent_cache_path=path)
        with monkeypatch.context() as old_pickling:
            old_pickling.delattr(WireMemo, "__getstate__")
            writer = Solver(config)
            fresh = handle_record(contain_record(), writer)
            writer.close()
        reader = Solver(config)
        warm = handle_record(contain_record(), reader)
        reader.close()
        assert PERSISTENT_FORMAT_VERSION == 1
        assert warm["cache_hit"]
        assert without_timings({**warm, "cache_hit": False}) == without_timings(
            fresh)


# ---------------------------------------------------------------------------
# Thread shards answer warm hits on the caller's thread
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def private_metrics():
    """A MetricsProbe on a private registry, installed for the block."""
    previous = probe_module.uninstall()
    probe = probe_module.install(MetricsProbe(MetricsRegistry()))
    try:
        yield probe.registry
    finally:
        probe_module.uninstall()
        if previous is not None:
            probe_module.install(previous)


def counted_series(registry):
    """The probe's request and chase-run counters, by label set."""
    snapshot = registry.snapshot()
    return {name: snapshot[name]["series"]
            for name in ("repro_requests_total", "repro_chase_runs_total")}


def pool_counters(pool):
    """Per shard: each cache's (hits, misses, size), requests, submitted."""
    return [({name: (info.hits, info.misses, info.size)
              for name, info in shard.solver.cache_info().items()},
             shard.solver.stats.total_requests, shard.submitted)
            for shard in pool.shards]


#: A chase whose R-chase doubles every level (each fresh atom needs two
#: more), cut off by its conjunct budget: a second or so of shard time.
HEAVY_CHASE = {"op": "chase", "id": "cold", "query": "Q(x) :- R(x, y, z)",
               "schema": "R(a, b, c)", "deps": "R[b] <= R[a]\nR[c] <= R[a]",
               "max_level": 64, "max_conjuncts": 15_000}


class TestMemoryFirstParity:
    def test_thread_pool_counts_and_answers_like_the_inline_pool(self):
        stream = TrafficGenerator(tenant_count=8, seed=0).requests(
            400, stream_seed=0)
        runs = {}
        for mode in ("inline", "thread"):
            with private_metrics() as registry, ShardedSolverPool(
                    shard_count=2, mode=mode) as pool:
                envelopes = pool.execute_all(stream)
                envelopes += [pool.execute(record) for record in stream[:100]]
                runs[mode] = (envelopes, pool_counters(pool),
                              counted_series(registry))
        inline, thread = runs["inline"], runs["thread"]
        hits = [envelope["cache_hit"] for envelope in inline[0]]
        assert True in hits and False in hits  # a mixed cold/warm stream
        assert [without_timings(envelope) for envelope in thread[0]] == [
            without_timings(envelope) for envelope in inline[0]]
        assert thread[1] == inline[1]
        assert thread[2] == inline[2]

    def test_a_memory_only_miss_changes_no_counter(self, tmp_path):
        store = PersistentCache(str(tmp_path / "untouched.sqlite"))
        solver, parser = make_worker_solver(persistent_cache=store), TenantParser()
        tracer = get_tracer()
        threshold = tracer.slow_log.threshold_s
        tracer.slow_log.threshold_s = 1e-9
        trace_id = new_trace_id()
        try:
            with private_metrics() as registry:
                for make in DATA_PLANE_RECORDS.values():
                    with pytest.raises(MemoryMiss):
                        handle_record(make(trace_context={"id": trace_id}),
                                      solver, parser=parser, memory_only=True)
        finally:
            tracer.slow_log.threshold_s = threshold
        assert all((info.hits, info.misses, info.size) == (0, 0, 0)
                   for info in solver.cache_info().values())
        assert solver.stats.total_requests == 0
        untouched = MetricsProbe(MetricsRegistry()).registry
        assert registry.snapshot() == untouched.snapshot()
        persistent = solver.cache_stats()["persistent"]
        assert (persistent["hits"], persistent["misses"], persistent["writes"],
                persistent["size"]) == (0, 0, 0, 0)
        assert store.info().requests == 0
        assert tracer.store.get(trace_id) is None
        assert trace_id not in {entry["trace_id"]
                                for entry in tracer.slow_log.entries()}
        store.close()

    def test_a_memory_only_hit_counts_like_a_queued_hit(self):
        solvers = [make_worker_solver(), make_worker_solver()]
        for memory_only, solver in zip((False, True), solvers):
            for make in DATA_PLANE_RECORDS.values():
                cold = handle_record(make(), solver)
                warm = handle_record(make(), solver, memory_only=memory_only)
                assert warm["cache_hit"] and not cold["cache_hit"]
                assert without_timings(warm) == without_timings(
                    {**cold, "cache_hit": True})
        queued, memory = (solver.stats for solver in solvers)
        assert solvers[0].cache_info() == solvers[1].cache_info()
        assert (memory.containment_requests, memory.chase_requests,
                memory.rewrite_requests) == (queued.containment_requests,
                                             queued.chase_requests,
                                             queued.rewrite_requests)

    def test_uncached_answers_always_miss(self):
        sized_zero = make_worker_solver(SolverConfig(
            containment_cache_size=0, chase_cache_size=0,
            rewrite_cache_size=0))
        solver = make_worker_solver()
        for make in DATA_PLANE_RECORDS.values():
            for target in (solver, sized_zero):
                assert handle_record(make(), target)["ok"]
            with pytest.raises(MemoryMiss):
                handle_record(make(), sized_zero, memory_only=True)
        with pytest.raises(MemoryMiss):  # a trace is rendered afresh
            handle_record(chase_record(trace=True), solver, memory_only=True)
        schema = parse_schema(SCHEMA_TEXT)
        sigma = parse_dependencies(DEPS_TEXT, schema)
        query, query_prime = (parse_query(QUERY, schema),
                              parse_query(QUERY_PRIME, schema))
        certified = solver.config.derive(with_certificate=True)
        solver.solve(ContainmentRequest(query, query_prime, sigma,
                                        config=certified))
        with pytest.raises(MemoryMiss):
            solver.solve(ContainmentRequest(query, query_prime, sigma,
                                            config=certified), memory_only=True)
        solver.solve(OptimizeRequest(query, sigma))
        with pytest.raises(MemoryMiss):
            solver.solve(OptimizeRequest(query, sigma), memory_only=True)

    def test_a_miss_parses_its_texts_once(self, monkeypatch):
        # The memory-only attempt parses on the caller's thread, into the
        # pool's parser, which the shard thread then reads.
        parsed = []
        real_parse_query = protocol.parse_query
        monkeypatch.setattr(protocol, "parse_query", lambda text, schema: (
            parsed.append(text), real_parse_query(text, schema))[1])
        with ShardedSolverPool(shard_count=1, mode="thread") as pool:
            envelope = pool.execute(contain_record())
        assert envelope["ok"] and not envelope["cache_hit"]
        assert sorted(parsed) == sorted([QUERY, QUERY_PRIME])

    def test_ping_and_stats_still_cross_the_shard_inbox(self, monkeypatch):
        queued = []
        original = protocol.handle_record

        def spy(record, *args, **kwargs):
            queued.append((record["op"], kwargs.get("memory_only", False),
                           threading.current_thread().name))
            return original(record, *args, **kwargs)

        monkeypatch.setattr(pool_module, "handle_record", spy)
        with ShardedSolverPool(shard_count=1, mode="thread") as pool:
            pool.execute({"op": "ping"})
            pool.stats()
            pool.execute(contain_record())
        shard_thread = "repro-shard-0"
        assert queued[:2] == [("ping", False, shard_thread),
                              ("stats", False, shard_thread)]
        # A cold record: one memory-only attempt here, then the shard run.
        assert [entry[:2] for entry in queued[2:]] == [
            ("contain", True), ("contain", False)]
        assert queued[2][2] != shard_thread and queued[3][2] == shard_thread


class TestMemoryFirstConcurrency:
    def test_warm_hit_does_not_wait_behind_a_cold_chase(self):
        with ShardedSolverPool(shard_count=1, mode="thread") as pool:
            warm = contain_record(id="warm")
            assert not pool.execute(warm)["cache_hit"]
            cold = pool.submit(HEAVY_CHASE)
            started = time.perf_counter()
            envelope = pool.submit(warm).result(timeout=60)
            waited = time.perf_counter() - started
            assert not cold.done()
            chased = cold.result(timeout=300)
        assert envelope["ok"] and envelope["cache_hit"]
        assert waited < 0.05
        assert chased["ok"] and chased["elapsed_s"] >= 0.2
        assert [shard.submitted for shard in pool.shards] == [3]

    def test_concurrent_callers_match_the_inline_pool(self, monkeypatch):
        stream = TrafficGenerator(tenant_count=8, seed=0).requests(
            240, stream_seed=1)
        # One tenant per thread: a tenant's caches answer its own stream
        # in its own order, so every envelope is determined.
        tenants = {}
        for record in stream:
            tenants.setdefault(record["schema"], []).append(record)
        with private_metrics() as registry, ShardedSolverPool(
                shard_count=2, mode="inline") as pool:
            expected = {tenant: [pool.execute(record) for record in records]
                        for tenant, records in tenants.items()}
            inline = (pool_counters(pool), counted_series(registry))

        lookups = {}
        lock = threading.Lock()
        real_get = LRUCache.get

        def counting_get(cache, key, memory_only=False):
            value = real_get(cache, key, memory_only)
            with lock:  # reached only by a lookup that counted
                lookups[id(cache)] = lookups.get(id(cache), 0) + 1
            return value

        monkeypatch.setattr(LRUCache, "get", counting_get)
        answers, errors = {}, []
        with private_metrics() as registry, ShardedSolverPool(
                shard_count=2, mode="thread") as pool:

            def serve(tenant):
                try:
                    answers[tenant] = [pool.execute(record)
                                       for record in tenants[tenant]]
                except Exception as error:  # surfaced by the assertion below
                    errors.append(error)

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threads = [threading.Thread(target=serve, args=(tenant,))
                           for tenant in tenants]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
            finally:
                sys.setswitchinterval(interval)
            threaded = (pool_counters(pool), counted_series(registry))
            caches = [cache for shard in pool.shards
                      for cache in (shard.solver._containment_cache,
                                    shard.solver._chase_cache,
                                    shard.solver._rewrite_cache)]
        assert len(threads) == 8
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for tenant, envelopes in expected.items():
            assert [without_timings(envelope) for envelope in answers[tenant]] == [
                without_timings(envelope) for envelope in envelopes]
        assert threaded == inline
        for cache in caches:
            info = cache.info()
            assert info.hits + info.misses == lookups.get(id(cache), 0)
