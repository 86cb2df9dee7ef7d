"""The four workloads: seeded inputs, program set-up, ops and answer checks.

Every input is generated with :mod:`repro.workloads` from the workload
seed before anything is timed; the program is handed only wire records
or typed request objects.  Each workload also knows which public
functions of the program its traced run wraps and which per-layer
figures it can report.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import repro.api.solver as solver_module
import repro.containment.finite as finite_module
import repro.service.pool as pool_module
import repro.service.protocol as protocol_module
import repro.workloads.database_generator as database_generator_module
from repro.api import Solver, SolverConfig
from repro.api.fingerprints import catalog_fingerprint
from repro.api.requests import ChaseRequest, ContainmentRequest, RewriteRequest
from repro.chase.engine import ChaseVariant
from repro.containment.finite import section4_counterexample
from repro.dependencies.violations import database_satisfies
from repro.parser.dependency_parser import parse_dependencies
from repro.parser.query_parser import parse_query
from repro.parser.schema_parser import parse_schema
from repro.parser.view_parser import parse_views
from repro.service import ShardedSolverPool
from repro.workloads import (
    DatabaseGenerator,
    DependencyGenerator,
    EmbeddedDependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
    TrafficGenerator,
    ViewCatalogGenerator,
)
from repro.workloads.paper_examples import figure1_example, intro_example

from harness import (
    LoopResult,
    Op,
    cpu_seconds_of,
    median,
    peak_rss_mb_of,
    peak_rss_mb_self,
    perf,
)
from ledger import Ledger, wall

#: The reference chase engine the oracle re-derives answers with.
ORACLE_ENGINE = "legacy"


def oracle_solver() -> Solver:
    return Solver(SolverConfig(chase_engine=ORACLE_ENGINE))


def schema_text(schema) -> str:
    return "\n".join(f"{relation.name}({', '.join(relation.attribute_names)})"
                     for relation in schema)


def instrument_solver(ledger: Ledger) -> None:
    """Wrap the solver-side public functions every in-process op reaches."""
    ledger.wrap(Solver, "solve", "api.solver:solve")
    ledger.wrap(Solver, "is_contained", "api.solver:is_contained")
    ledger.wrap(solver_module, "build_engine", "chase:build")
    for kind in ("query", "dependency", "catalog"):
        ledger.wrap(solver_module, f"{kind}_fingerprint",
                    f"api.fingerprints:{kind}")
    for decide in ("contained_under_bounded_chase", "contained_under_fds",
                   "contained_without_dependencies"):
        ledger.wrap(solver_module, decide, "containment:decide")
    ledger.wrap(solver_module, "build_catalog_index", "views:index_build")


def instrument_front_end(ledger: Ledger) -> None:
    """Wrap the protocol and pool functions a record passes through."""
    ledger.wrap(protocol_module, "parse_line", "service.protocol:parse_line")
    ledger.wrap(pool_module, "handle_record", "service.protocol:handle_record")
    for method in ("schema", "dependencies", "catalog"):
        ledger.wrap(protocol_module.TenantParser, method,
                    "service.protocol:tenant", outermost=True)
    for parse in ("parse_schema", "parse_dependencies", "parse_views"):
        ledger.wrap(protocol_module, parse, "parser:tenant_text")
    ledger.wrap(protocol_module, "parse_query", "parser:query")
    ledger.wrap(protocol_module, "schema_fingerprint", "api.fingerprints:schema")
    ledger.wrap(protocol_module, "dependency_fingerprint",
                "api.fingerprints:dependency")
    ledger.wrap(protocol_module, "catalog_fingerprint",
                "api.fingerprints:catalog")
    ledger.wrap(ShardedSolverPool, "shard_for_record", "service.pool:route")
    ledger.wrap(pool_module, "resolve_catalog_record",
                "service.pool:catalog_resolve")


def cache_totals(solvers) -> Dict[str, Tuple[int, int, int]]:
    """(hits, misses, size) per answer cache, summed over solvers."""
    totals: Dict[str, List[int]] = {}
    for solver in solvers:
        for name, info in solver.cache_info().items():
            entry = totals.setdefault(name, [0, 0, 0])
            entry[0] += info.hits
            entry[1] += info.misses
            entry[2] += info.size
    return {name: tuple(entry) for name, entry in totals.items()}


def cache_layer_metrics(before: Dict[str, Tuple[int, int, int]],
                        after: Dict[str, Tuple[int, int, int]]
                        ) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    evictions = 0
    for name in ("containment", "chase", "rewrite"):
        hits0, misses0, size0 = before.get(name, (0, 0, 0))
        hits1, misses1, size1 = after.get(name, (0, 0, 0))
        hits, misses = hits1 - hits0, misses1 - misses0
        metrics[f"cache.{name}_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0)
        # Every miss inserts one entry; inserts the size did not grow by
        # were evictions.
        evictions += max(0, misses - (size1 - size0))
    metrics["cache.evictions"] = float(evictions)
    return metrics


def contain_answer(response) -> Tuple[bool, bool, int, int]:
    result = response.result
    return (result.holds, result.certain, result.levels_built,
            result.chase_size)


def chase_answer(response) -> Tuple[int, bool, bool]:
    result = response.result
    return (len(result), result.saturated, result.failed)


def rewrite_answer(response) -> Dict[str, Any]:
    return envelope_answer({"op": "rewrite", "result": response.report.as_dict()})


def decode_envelope(reply: bytes) -> Dict[str, Any]:
    envelope = json.loads(reply)
    if not envelope.get("ok"):
        raise RuntimeError(f"error envelope: {envelope.get('error')}")
    return envelope


def envelope_answer(envelope: Dict[str, Any]) -> Any:
    """The compact answer of a contain/chase/rewrite envelope."""
    op, result = envelope["op"], envelope["result"]
    if op == "contain":
        return (result["holds"], result["certain"], result["levels_built"],
                result["chase_size"])
    if op == "chase":
        return (len(result["conjuncts"]), result["saturated"], result["failed"])
    rewritings = result["rewritings"]
    best = ((rewritings[0]["query"], rewritings[0]["expansion"])
            if rewritings else None)
    return {"best": best, "candidates": result["candidates_tried"],
            "certified": len(rewritings), "pruned": result["views_pruned"]}


#: A chase-labelled variable as printed (``n0@n1.a2#L1``): the parser
#: reads it back only under a plain name.
LABELLED_VARIABLE = re.compile(r"[^\s,()]+@[^\s,()]+")


def certify_rewriting(checker: Solver, query_text: str, expansion_text: str,
                      schema, sigma) -> bool:
    """Re-certify a rewriting's expansion as equivalent to its query."""
    names: Dict[str, str] = {}
    expansion_text = LABELLED_VARIABLE.sub(
        lambda match: names.setdefault(match.group(), f"u{len(names)}"),
        expansion_text)
    query = parse_query(query_text, schema)
    expansion = parse_query(expansion_text, schema)
    forward = checker.is_contained(expansion, query, sigma)
    backward = checker.is_contained(query, expansion, sigma)
    return (forward.certain and forward.holds
            and backward.certain and backward.holds)


class Workload:
    """Base class: a workload with seeded inputs and an answer oracle."""

    name = ""
    #: True when set-up is timed in this process (a child server);
    #: otherwise it is timed in fresh processes (see ``run.py``).
    setup_in_parent = False

    def __init__(self, seed: int):
        self.seed = seed

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def generate(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def check(self, loop: LoopResult) -> int:
        """Number of wrong answers among the loop's successful samples."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def cpu_seconds(self) -> float:
        """CPU seconds used so far by the process that runs the program."""
        return time.process_time()

    def instrument(self, ledger: Ledger) -> None:
        instrument_solver(ledger)

    def timed_call(self, ledger: Ledger):
        return lambda op: ledger.run_in_process(op.call)

    def cache_snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        """(hits, misses, size) per answer cache of the program."""
        return cache_totals(self.solvers())

    def solvers(self) -> List[Solver]:
        return []

    def layer_metrics(self, ledger: Ledger, loop: LoopResult,
                      traced_seconds: float) -> Dict[str, float]:
        return {}

    def uncertain_ratio(self, loop: LoopResult) -> Optional[float]:
        verdicts = [sample.answer for sample in loop.samples
                    if sample.ok and sample.kind == "contain"]
        if not verdicts:
            return None
        return sum(1 for answer in verdicts if not answer[1]) / len(verdicts)

    def containment_counts(self, loop: LoopResult,
                           first: int = 100) -> Tuple[int, int]:
        """Sums of levels built and chase sizes over the first contain ops."""
        verdicts = [sample.answer for sample in loop.samples
                    if sample.ok and sample.kind == "contain"][:first]
        return (sum(answer[2] for answer in verdicts),
                sum(answer[3] for answer in verdicts))


# ---------------------------------------------------------------------------
# service-zipf-warm
# ---------------------------------------------------------------------------


class ServiceZipfWarm(Workload):
    """Zipf tenant traffic over one socket connection, answered from caches."""

    name = "service-zipf-warm"
    setup_in_parent = True
    TENANTS = 8
    ZIPF = 1.2
    STREAM = 2000
    SHARDS = 2

    #: Seed of the tenant universe.  It is fixed, and the workload seed
    #: draws the request stream from it: the hottest tenant's texts set
    #: most of a warm request's cost, so a per-seed universe would make
    #: the seed, not the program, decide the figures.
    TENANT_SEED = 0

    def params(self) -> Dict[str, Any]:
        return {"generator": "TrafficGenerator", "tenant_count": self.TENANTS,
                "tenant_seed": self.TENANT_SEED, "stream_seed": self.seed,
                "zipf_exponent": self.ZIPF,
                "mix": {"contain": 0.6, "chase": 0.2, "rewrite": 0.2},
                "stream_length": self.STREAM, "shards": self.SHARDS,
                "distinct_records": len(getattr(self, "distinct", ()))}

    def generate(self) -> None:
        generator = TrafficGenerator(tenant_count=self.TENANTS,
                                     seed=self.TENANT_SEED,
                                     zipf_exponent=self.ZIPF)
        self.stream = generator.requests(self.STREAM, stream_seed=self.seed)
        keys: Dict[str, int] = {}
        self.distinct: List[Dict[str, Any]] = []
        self.stream_keys: List[int] = []
        for record in self.stream:
            content = json.dumps({k: v for k, v in record.items() if k != "id"},
                                 sort_keys=True)
            if content not in keys:
                keys[content] = len(self.distinct)
                self.distinct.append(record)
            self.stream_keys.append(keys[content])
        self.lines = [json.dumps(record).encode() + b"\n"
                      for record in self.stream]
        self.server = None
        self.connection = None

    def setup(self) -> None:
        from service import Connection, ServerProcess
        self.close()
        self.server = ServerProcess(shards=self.SHARDS)
        self.server.wait_ready()
        self.connection = Connection(self.server.path)
        # The first pass over the distinct requests is set-up: after it
        # every timed request is a cache hit.
        for record in self.distinct:
            decode_envelope(self.connection.exchange(
                json.dumps(record).encode() + b"\n"))

    def ops(self) -> Iterator[Op]:
        for index in itertools.cycle(range(len(self.stream))):
            yield Op(self.stream[index]["op"],
                     lambda line=self.lines[index]: self.connection.exchange(line),
                     lambda reply: envelope_answer(decode_envelope(reply)),
                     key=index)

    def timed_call(self, ledger: Ledger):
        from repro.obs.tracing import new_trace_id

        def call(op: Op):
            # A traced request asks the server to return its spans.
            line = json.dumps(dict(self.stream[op.key], trace_context={
                "id": new_trace_id(), "collect": True})).encode() + b"\n"
            start = wall()
            started = perf()
            reply = self.connection.exchange(line)
            duration = perf() - started
            spans = json.loads(reply).get("spans") or ()
            ledger.close_op(start, duration, spans)
            return reply, duration
        return call

    def instrument(self, ledger: Ledger) -> None:
        # The server's functions run in the child: a socket op's layers
        # come from the spans its envelope carries.
        pass

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.server.pid)

    def cpu_seconds(self) -> float:
        return cpu_seconds_of(self.server.pid)

    def close(self) -> None:
        if getattr(self, "connection", None) is not None:
            self.connection.close()
            self.connection = None
        if getattr(self, "server", None) is not None:
            self.server.stop()
            self.server = None

    # -- answers ---------------------------------------------------------

    def expected(self) -> Dict[int, Any]:
        """Per distinct record: the answer it must get (or a checker)."""
        checker = oracle_solver()
        expected: Dict[int, Any] = {}
        for key, record in enumerate(self.distinct):
            schema = parse_schema(record["schema"])
            sigma = parse_dependencies(record["deps"], schema)
            if record["op"] == "contain":
                # (chain, weakened chain): contained by construction.
                expected[key] = ("contain", True)
            elif record["op"] == "chase":
                query = parse_query(record["query"], schema)
                config = checker.config.derive(
                    variant=ChaseVariant.RESTRICTED,
                    chase_max_conjuncts=protocol_module.ServiceLimits().max_conjuncts)
                result = checker.solve(ChaseRequest(
                    query, sigma, max_level=record["max_level"],
                    config=config)).result
                expected[key] = ("chase", len(list(result.graph)),
                                 result.saturated, result.failed)
            else:
                expected[key] = ("rewrite", schema, sigma)
        return expected

    def check(self, loop: LoopResult) -> int:
        expected = self.expected()
        checker = oracle_solver()
        certified: Dict[Any, bool] = {}
        wrong = 0
        for sample in loop.samples:
            if not sample.ok:
                continue
            key = self.stream_keys[sample.key]
            want = expected[key]
            answer = sample.answer
            if want[0] == "contain":
                good = answer[0] is True and answer[1] is True
            elif want[0] == "chase":
                good = tuple(answer) == want[1:]
            else:
                best = answer["best"]
                if best is None:
                    good = True
                else:
                    if (key, best) not in certified:
                        certified[(key, best)] = certify_rewriting(
                            checker, self.distinct[key]["query"], best[1],
                            want[1], want[2])
                    good = certified[(key, best)]
            wrong += 0 if good else 1
        return wrong

    # -- layers ----------------------------------------------------------

    def cache_snapshot(self) -> Dict[str, Tuple[int, int, int]]:
        envelope = decode_envelope(self.connection.exchange(
            b'{"op": "stats", "id": "perfbench-stats"}\n'))
        totals: Dict[str, List[int]] = {}
        for shard in envelope["result"]["shards"]:
            for name in ("containment", "chase", "rewrite"):
                info = shard["cache_stats"][name]
                entry = totals.setdefault(name, [0, 0, 0])
                entry[0] += info["hits"]
                entry[1] += info["misses"]
                entry[2] += info["size"]
        return {name: tuple(entry) for name, entry in totals.items()}

    def ping_us(self, count: int = 300) -> float:
        line = b'{"op": "ping", "id": "perfbench-ping"}\n'
        times = []
        for _ in range(count):
            started = perf()
            decode_envelope(self.connection.exchange(line))
            times.append(perf() - started)
        return median(times) * 1e6

    def replica_metrics(self, loop: LoopResult, seconds: float
                        ) -> Dict[str, float]:
        """Front-end layers timed on an in-process copy of the server path.

        An inline pool with the server's shard count answers the same
        warm records in this process, under wrappers: parse the wire
        line, route, handle the record, encode the envelope.  A
        thread-mode copy gives the shard queue wait.
        """
        replica = ShardedSolverPool(shard_count=self.SHARDS, mode="inline")
        threaded = ShardedSolverPool(shard_count=self.SHARDS, mode="thread")
        try:
            for record in self.distinct:
                replica.execute(record)
                threaded.execute(record)
            ledger = Ledger()
            instrument_solver(ledger)
            instrument_front_end(ledger)
            ledger.install()
            handled: Dict[int, List[float]] = {}
            try:
                deadline = perf() + seconds
                index = 0
                while perf() < deadline:
                    position = index % len(self.lines)
                    line = self.lines[position]
                    index += 1

                    def answer(line=line) -> None:
                        record = protocol_module.parse_line(line.decode())
                        envelope = replica.execute(record)
                        started = wall()
                        began = perf()
                        json.dumps(envelope, sort_keys=True, default=str)
                        ledger.record("service.protocol:encode", started,
                                      perf() - began)

                    total = ledger.totals["service.protocol:handle_record"]
                    ledger.run_in_process(answer)
                    handled.setdefault(self.stream_keys[position], []).append(
                        ledger.totals["service.protocol:handle_record"] - total)
                queue_waits = self._queue_waits(threaded, ledger)
            finally:
                ledger.uninstall()
        finally:
            replica.close()
            threaded.close()
        handle_by_key = {key: median(values) for key, values in handled.items()}
        wire = [sample.seconds - handle_by_key[self.stream_keys[sample.key]]
                for sample in loop.samples
                if sample.ok and self.stream_keys[sample.key] in handle_by_key]
        metrics = front_end_metrics(ledger)
        metrics["service.wire_us"] = median(wire) * 1e6 if wire else 0.0
        metrics["pool.queue_wait_us"] = median(queue_waits) * 1e6
        metrics["solver.solve_us"] = ledger.self_seconds.get(
            "api.solver", 0.0) / max(ledger.traced_ops, 1) * 1e6
        metrics["cache.lookup_us"] = per_lookup_us(ledger)
        return metrics

    def _queue_waits(self, pool: ShardedSolverPool, ledger: Ledger,
                     count: int = 300) -> List[float]:
        """Submit-to-start delay of records on thread shards."""
        entered: List[float] = []
        original = pool_module.handle_record

        def handle(*args: Any, **kwargs: Any):
            entered.append(perf())
            return original(*args, **kwargs)

        waits = []
        pool_module.handle_record = handle
        try:
            for position in range(count):
                record = self.stream[position % len(self.stream)]
                route_calls = ledger.calls["service.pool:route"]
                route_total = ledger.totals["service.pool:route"]
                submitted = perf()
                pool.submit(record).result()
                routing = (ledger.totals["service.pool:route"] - route_total
                           if ledger.calls["service.pool:route"] > route_calls
                           else 0.0)
                waits.append(entered[-1] - submitted - routing)
        finally:
            pool_module.handle_record = original
        return waits

    def layer_metrics(self, ledger: Ledger, loop: LoopResult,
                      traced_seconds: float) -> Dict[str, float]:
        metrics = self.replica_metrics(loop, traced_seconds / 2)
        metrics["service.ping_us"] = self.ping_us()
        levels, sizes = self.containment_counts(loop)
        metrics["containment.levels_built"] = float(levels)
        metrics["containment.chase_size"] = float(sizes)
        return metrics


def per_lookup_us(ledger: Ledger) -> float:
    calls = ledger.calls.get("program:cache.lookup", 0)
    return ledger.totals.get("program:cache.lookup", 0.0) / calls * 1e6 if calls else 0.0


def front_end_metrics(ledger: Ledger) -> Dict[str, float]:
    """Protocol, pool, parser and fingerprint figures, per traced op."""
    lookups = ledger.calls.get("service.protocol:tenant", 0)
    misses = ledger.calls.get("parser:tenant_text", 0)
    return {
        "protocol.parse_line_us": ledger.per_op_us("service.protocol:parse_line"),
        "protocol.encode_us": ledger.per_op_us("service.protocol:encode"),
        "protocol.tenant_parse_us": ledger.per_op_us("service.protocol:tenant"),
        "protocol.tenant_memo_hit_ratio": (
            1.0 - misses / lookups if lookups else 0.0),
        "protocol.handle_record_us": ledger.per_op_us(
            "service.protocol:handle_record"),
        "pool.route_us": ledger.per_op_us("service.pool:route"),
        "pool.catalog_resolve_us": ledger.per_op_us(
            "service.pool:catalog_resolve"),
        "parser.query_parse_us": ledger.per_op_us("parser:query"),
        "parser.query_parses_per_op": ledger.calls_per_op("parser:query"),
        "fingerprints.query_us": ledger.per_op_us("api.fingerprints:query"),
        "fingerprints.dependency_us": ledger.per_op_us(
            "api.fingerprints:dependency"),
        "fingerprints.catalog_us": ledger.per_op_us("api.fingerprints:catalog"),
    }


def views_metrics(ledger: Ledger, loop: LoopResult) -> Dict[str, float]:
    """Rewrite-pipeline figures: per rewrite op, or per traced op."""
    answers = [sample.answer for sample in loop.samples
               if sample.ok and sample.kind == "rewrite"]
    rewrites = max(len(answers), 1)
    candidates = sum(answer["candidates"] for answer in answers)
    return {
        "views.index_build_ms": ledger.totals.get("views:index_build", 0.0) * 1e3,
        "views.rewrite_ms": ledger.per_op_us("program:rewrite.search") / 1e3,
        "views.views_pruned": sum(a["pruned"] for a in answers) / rewrites,
        "views.candidates": candidates / rewrites,
        "views.certified_ratio": (sum(a["certified"] for a in answers) / candidates
                                  if candidates else 0.0),
        "views.certifications_per_op": ledger.calls_per_op(
            "api.solver:is_contained"),
    }


def engine_metrics(ledger: Ledger) -> Dict[str, float]:
    """Solver, termination, chase and homomorphism figures, per traced op."""
    probe = ledger.probe
    ops = max(ledger.traced_ops, 1)
    return {
        "solver.solve_us": ledger.self_seconds.get("api.solver", 0.0) / ops * 1e6,
        "cache.lookup_us": per_lookup_us(ledger),
        "termination.analysis_us": ledger.per_op_us("program:termination.analysis"),
        "termination.calls": ledger.calls_per_op("program:termination.analysis"),
        "chase.build_us": ledger.per_op_us("chase:build"),
        "chase.run_ms": ledger.per_op_us("program:chase.run") / 1e3,
        "chase.conjuncts": (probe.chase_conjuncts / probe.chases
                            if probe.chases else 0.0),
        "chase.conjuncts_per_s": (probe.chase_conjuncts / probe.chase_seconds
                                  if probe.chase_seconds else 0.0),
        "chase.runs_per_op": probe.chases / ops,
        "homomorphism.search_us": ledger.per_op_us("program:homomorphism.search"),
        "homomorphism.calls": probe.homomorphisms / ops,
    }


# ---------------------------------------------------------------------------
# solver-cold-mix
# ---------------------------------------------------------------------------


class SolverColdMix(Workload):
    """In-process ``Solver.solve`` on questions each asked exactly once."""

    name = "solver-cold-mix"
    #: One cycle of the question schedule; the seed varies the content.
    #: A fifth of the questions are deep chases, so ``op_p90_ms`` falls
    #: in the middle of them and ``op_p50_ms`` among the tiny ones.
    SCHEDULE = ("intro-sigma", "kb-contain", "emb-contain", "kb-chase",
                "deep", "intro-nosigma", "kb-contain", "emb-chase",
                "kb-contain", "deep", "intro-sigma", "emb-contain",
                "kb-chase", "kb-contain", "deep", "intro-nosigma",
                "emb-contain", "emb-chase", "kb-rewrite", "deep")
    #: (example, conjunct budget) of the deep chases, in rotation; the
    #: middle three take about the same time.
    DEEP = (("figure1", 200), ("section4", 1000), ("figure1", 2000),
            ("figure1", 1000), ("section4", 1000), ("section4", 200))
    UNIVERSES = 16
    CYCLES = 150

    def params(self) -> Dict[str, Any]:
        return {"schedule": list(self.SCHEDULE), "deep": [list(d) for d in self.DEEP],
                "universes": self.UNIVERSES, "questions": len(self.questions),
                "kb_schema": "uniform(5, 3)", "kb_foreign_keys": 3,
                "emb_rules": "weakly_acyclic(3 tgds, 1 egd)",
                "chain_lengths": [2, 5]}

    def generate(self) -> None:
        rng = random.Random(f"cold-mix:{self.seed}")
        kb, emb = [], []
        for index in range(self.UNIVERSES):
            schema = SchemaGenerator(seed=self.seed * 100 + index).uniform(
                5, 3, prefix=f"K{index}R")
            sigma = DependencyGenerator(schema, seed=self.seed * 100 + index
                                        ).key_based(3)
            kb.append((schema, sigma, QueryGenerator(
                schema, seed=self.seed * 100 + index),
                ViewCatalogGenerator(schema, seed=self.seed * 100 + index
                                     ).catalog(4, sigma)))
            schema = SchemaGenerator(seed=self.seed * 100 + 50 + index).uniform(
                5, 3, prefix=f"E{index}R")
            sigma = EmbeddedDependencyGenerator(
                schema, seed=self.seed * 100 + 50 + index).weakly_acyclic(3, 1)
            emb.append((schema, sigma, QueryGenerator(
                schema, seed=self.seed * 100 + 50 + index)))
        intro = intro_example()
        figure1 = figure1_example()
        section4 = section4_counterexample()
        deep_examples = {"figure1": (figure1.query, figure1.dependencies),
                         "section4": (section4.q1, section4.dependencies)}
        base = SolverConfig()
        self.questions: List[Tuple[str, Any, Any]] = []
        deep_turn = itertools.cycle(self.DEEP)
        serial = itertools.count()

        def chain(universe, low=2, high=5):
            schema, queries = universe[0], universe[2]
            length = rng.randint(low, high)
            names = [rng.choice(schema.relation_names) for _ in range(length)]
            query = queries.chain(length, names, name=f"Q{next(serial)}")
            return query, queries.weakened(query, name=f"W{next(serial)}")

        for _ in range(self.CYCLES):
            for kind in self.SCHEDULE:
                if kind in ("intro-sigma", "intro-nosigma"):
                    n = next(serial)
                    sigma = intro.dependencies if kind == "intro-sigma" else None
                    request = ContainmentRequest(
                        intro.q2.renamed(f"Q2_{n}"), intro.q1.renamed(f"Q1_{n}"),
                        sigma)
                    # The paper: Q2 ⊆ Q1 holds under the IND, fails without.
                    expected = ("paper", kind == "intro-sigma")
                elif kind == "kb-contain":
                    universe = rng.choice(kb)
                    query, weaker = chain(universe)
                    request = ContainmentRequest(query, weaker, universe[1])
                    expected = ("construction", True)
                elif kind == "emb-contain":
                    universe = rng.choice(emb)
                    query, weaker = chain(universe, 2, 4)
                    if rng.random() < 0.5:
                        request = ContainmentRequest(query, weaker, universe[1])
                        expected = ("construction", True)
                    else:
                        request = ContainmentRequest(weaker, query, universe[1])
                        expected = ("reference", None)
                elif kind == "kb-rewrite":
                    universe = rng.choice(kb)
                    query, _ = chain(universe, 2, 4)
                    request = RewriteRequest(query, universe[3], universe[1])
                    expected = ("recertify", universe[0], universe[1])
                elif kind in ("kb-chase", "emb-chase"):
                    universe = rng.choice(kb if kind == "kb-chase" else emb)
                    query, _ = chain(universe)
                    request = ChaseRequest(query, universe[1], max_level=3
                                           if kind == "kb-chase" else None)
                    expected = ("reference", None)
                else:  # deep
                    example, budget = next(deep_turn)
                    query, sigma = deep_examples[example]
                    request = ChaseRequest(
                        query.renamed(f"{query.name}_{next(serial)}"), sigma,
                        config=base.derive(chase_max_conjuncts=budget))
                    # The paper: both chases are infinite, so a chase cut
                    # at the budget has exactly ``budget`` conjuncts.
                    expected = ("paper-deep", example, budget)
                op = ("contain" if isinstance(request, ContainmentRequest)
                      else "rewrite" if isinstance(request, RewriteRequest)
                      else "chase")
                self.questions.append((op, request, expected))

    def setup(self) -> None:
        self.solver = Solver()
        # The first answer is part of set-up (lazy imports, registries).
        intro = intro_example()
        self.solver.solve(ContainmentRequest(
            intro.q1.renamed("Q1_setup"), intro.q2.renamed("Q2_setup"),
            intro.dependencies))

    def solvers(self) -> List[Solver]:
        return [self.solver]

    def ops(self) -> Iterator[Op]:
        answers = {"contain": contain_answer, "chase": chase_answer,
                   "rewrite": rewrite_answer}
        for index, (op, request, _) in enumerate(self.questions):
            yield Op(op, lambda request=request: self.solver.solve(request),
                     answers[op], key=index)
        raise RuntimeError("solver-cold-mix ran out of prepared questions")

    def check(self, loop: LoopResult) -> int:
        checker = oracle_solver()
        deep_reference: Dict[Tuple[str, int], Tuple[int, bool, bool]] = {}
        wrong = 0
        for sample in loop.samples:
            if not sample.ok:
                continue
            op, request, expected = self.questions[sample.key]
            answer = sample.answer
            if expected[0] == "paper":
                good = answer[0] == expected[1] and answer[1]
            elif expected[0] == "recertify":
                good = answer["best"] is None or certify_rewriting(
                    checker, str(request.query), answer["best"][1],
                    expected[1], expected[2])
            elif expected[0] == "paper-deep":
                _, example, budget = expected
                good = answer == (budget, False, False)
                # The reference engine agrees where it runs in reasonable
                # time (it is quadratic on Section 4's FD-heavy chase).
                if good and (example == "figure1" or budget <= 200):
                    if (example, budget) not in deep_reference:
                        deep_reference[(example, budget)] = chase_answer(
                            checker.solve(request))
                    good = deep_reference[(example, budget)] == answer
            else:
                reference = checker.solve(request)
                if op == "contain":
                    want = contain_answer(reference)
                    good = answer[:2] == want[:2]
                    if expected[0] == "construction":
                        good = good and answer[0] is True
                else:
                    good = answer == chase_answer(reference)
            wrong += 0 if good else 1
        return wrong

    def layer_metrics(self, ledger: Ledger, loop: LoopResult,
                      traced_seconds: float) -> Dict[str, float]:
        metrics = front_end_metrics(ledger)
        metrics.update(engine_metrics(ledger))
        metrics.update(views_metrics(ledger, loop))
        levels, sizes = self.containment_counts(loop)
        metrics["containment.levels_built"] = float(levels)
        metrics["containment.chase_size"] = float(sizes)
        return metrics


# ---------------------------------------------------------------------------
# catalog-rewrite
# ---------------------------------------------------------------------------


class CatalogRewrite(Workload):
    """Rewrite-by-fingerprint records over registered 500-view catalogs."""

    name = "catalog-rewrite"
    CATALOGS = 3
    VIEWS = 500
    RELATIONS = 22
    FOREIGN_KEYS = 4
    #: Chain lengths of successive queries, in rotation.
    LENGTHS = (1, 2, 2, 3)
    RECORDS = 600
    SHARDS = 2

    def params(self) -> Dict[str, Any]:
        return {"catalogs": self.CATALOGS, "views_per_catalog": self.VIEWS,
                "generator": "ViewCatalogGenerator.lav_catalog",
                "schema": f"uniform({self.RELATIONS}, 3)",
                "foreign_keys": self.FOREIGN_KEYS,
                "chain_lengths": list(self.LENGTHS), "shards": self.SHARDS,
                "pool_mode": "inline"}

    def generate(self) -> None:
        rng = random.Random(f"catalog-rewrite:{self.seed}")
        self.catalogs = []
        for index in range(self.CATALOGS):
            universe_seed = self.seed * 10 + index
            schema = SchemaGenerator(seed=universe_seed).uniform(
                self.RELATIONS, 3, prefix=f"C{index}R")
            sigma = DependencyGenerator(schema, seed=universe_seed).key_based(
                self.FOREIGN_KEYS)
            catalog = ViewCatalogGenerator(schema, seed=universe_seed).lav_catalog(
                self.VIEWS, sigma, prefix=f"C{index}V")
            texts = {"schema": schema_text(schema),
                     "deps": "\n".join(str(d) for d in sigma),
                     "views": "\n".join(str(view) for view in catalog)}
            parsed_schema = parse_schema(texts["schema"])
            fingerprint = catalog_fingerprint(
                parse_views(texts["views"], parsed_schema))
            self.catalogs.append({
                "schema": parsed_schema,
                "sigma": parse_dependencies(texts["deps"], parsed_schema),
                "texts": texts, "fingerprint": fingerprint,
                "queries": QueryGenerator(schema, seed=universe_seed)})
        self.records: List[Dict[str, Any]] = []
        self.warmups: List[Dict[str, Any]] = []
        seen = set()
        lengths = itertools.cycle(self.LENGTHS)
        while len(self.records) < self.RECORDS:
            index = len(self.records) % self.CATALOGS
            entry = self.catalogs[index]
            length = next(lengths)
            names = tuple(rng.choice(entry["schema"].relation_names)
                          for _ in range(length))
            if (index, names) in seen:
                continue
            seen.add((index, names))
            query = entry["queries"].chain(length, names,
                                           name=f"Q{len(self.records)}")
            self.records.append(self._record(index, query, f"r{len(self.records)}"))
        for index, entry in enumerate(self.catalogs):
            names = entry["schema"].relation_names[:2]
            query = entry["queries"].chain(2, names, name=f"Warm{index}")
            self.warmups.append(self._record(index, query, f"warm{index}"))

    def _record(self, index: int, query, identifier: str) -> Dict[str, Any]:
        entry = self.catalogs[index]
        return {"id": identifier, "op": "rewrite", "query": str(query),
                "catalog_fp": entry["fingerprint"],
                "schema": entry["texts"]["schema"],
                "deps": entry["texts"]["deps"], "catalog": index}

    def setup(self) -> None:
        self.pool = ShardedSolverPool(shard_count=self.SHARDS, mode="inline")
        for entry in self.catalogs:
            envelope = self.pool.execute({
                "op": "catalog.put", "views": entry["texts"]["views"],
                "schema": entry["texts"]["schema"]})
            if (not envelope.get("ok")
                    or envelope["result"]["fingerprint"] != entry["fingerprint"]):
                raise RuntimeError(f"catalog.put failed: {envelope}")
        # One rewrite per catalog (a query the timed loop never sends)
        # lets each shard parse its catalogs before timing starts.
        for record in self.warmups:
            envelope = self.pool.execute(record)
            if not envelope.get("ok"):
                raise RuntimeError(f"warm-up rewrite failed: {envelope}")

    def solvers(self) -> List[Solver]:
        return [shard.solver for shard in self.pool.shards]

    def ops(self) -> Iterator[Op]:
        for index, record in enumerate(self.records):
            yield Op("rewrite", lambda record=record: self.pool.execute(record),
                     self._answer, key=index)
        raise RuntimeError("catalog-rewrite ran out of prepared records")

    @staticmethod
    def _answer(envelope: Dict[str, Any]) -> Any:
        if not envelope.get("ok"):
            raise RuntimeError(f"error envelope: {envelope.get('error')}")
        return envelope_answer(envelope)

    def instrument(self, ledger: Ledger) -> None:
        instrument_solver(ledger)
        instrument_front_end(ledger)

    def close(self) -> None:
        if getattr(self, "pool", None) is not None:
            self.pool.close()
            self.pool = None

    def check(self, loop: LoopResult) -> int:
        checker = oracle_solver()
        wrong = 0
        for sample in loop.samples:
            if not sample.ok or sample.answer["best"] is None:
                continue
            entry = self.catalogs[self.records[sample.key]["catalog"]]
            query_text = self.records[sample.key]["query"]
            _, expansion_text = sample.answer["best"]
            if not certify_rewriting(checker, query_text, expansion_text,
                                     entry["schema"], entry["sigma"]):
                wrong += 1
        return wrong

    def layer_metrics(self, ledger: Ledger, loop: LoopResult,
                      traced_seconds: float) -> Dict[str, float]:
        metrics = front_end_metrics(ledger)
        metrics.update(engine_metrics(ledger))
        metrics.update(views_metrics(ledger, loop))
        return metrics


# ---------------------------------------------------------------------------
# finite-repair
# ---------------------------------------------------------------------------


class FiniteRepair(Workload):
    """Section 4 finite-containment sampling and Σ-satisfying instances."""

    name = "finite-repair"
    SCHEDULE = ("sample-section4", "satisfying-kb", "sample-ind",
                "satisfying-ind", "sample-kb", "satisfying-kb")
    SAMPLES = 6
    DOMAIN = 3
    TUPLES = 3
    ATTEMPTS = 2
    REPAIR_STEPS = 120
    UNIVERSES = 3
    OPS = 3000

    def params(self) -> Dict[str, Any]:
        return {"schedule": list(self.SCHEDULE), "samples_per_check": self.SAMPLES,
                "domain_size": self.DOMAIN, "tuples_per_relation": self.TUPLES,
                "attempts": self.ATTEMPTS, "repair_steps": self.REPAIR_STEPS,
                "schema": "uniform(4, 3)", "ind_only": "ind_only(3)",
                "key_based": "key_based(2)"}

    def generate(self) -> None:
        rng = random.Random(f"finite-repair:{self.seed}")
        section4 = section4_counterexample()
        universes = {"ind": [], "kb": []}
        for index in range(self.UNIVERSES):
            universe_seed = self.seed * 10 + index
            schema = SchemaGenerator(seed=universe_seed).uniform(
                4, 3, prefix=f"F{index}R")
            generator = DependencyGenerator(schema, seed=universe_seed)
            queries = QueryGenerator(schema, seed=universe_seed)
            universes["ind"].append((schema, generator.ind_only(3), queries))
            universes["kb"].append((schema, generator.key_based(2), queries))
        self.questions: List[Tuple[str, Tuple]] = []
        schedule = itertools.cycle(self.SCHEDULE)
        for _ in range(self.OPS):
            kind = next(schedule)
            op_seed = rng.randrange(2 ** 31)
            if kind == "sample-section4":
                self.questions.append(("sample", (
                    section4.q1, section4.q2, section4.dependencies, op_seed)))
                continue
            family = kind.split("-")[1]
            schema, sigma, queries = rng.choice(universes[family])
            if kind.startswith("sample"):
                length = rng.randint(2, 3)
                names = [rng.choice(schema.relation_names) for _ in range(length)]
                query = queries.chain(length, names)
                self.questions.append(("sample", (
                    query, queries.weakened(query), sigma, op_seed)))
            else:
                self.questions.append(("satisfying", (schema, sigma, op_seed)))

    def setup(self) -> None:
        # Nothing to build: the first answer is set-up.
        section4 = section4_counterexample()
        self._sample(section4.q1, section4.q2, section4.dependencies, 0)

    def _sample(self, query, query_prime, sigma, op_seed):
        return finite_module.finite_containment_sample(
            query, query_prime, sigma, domain_size=self.DOMAIN,
            exhaustive=False, samples=self.SAMPLES, repair=True, seed=op_seed)

    def _satisfying(self, schema, sigma, op_seed):
        return DatabaseGenerator(schema, seed=op_seed).satisfying(
            sigma, tuples_per_relation=self.TUPLES, domain_size=6,
            attempts=self.ATTEMPTS, repair_steps=self.REPAIR_STEPS)

    def _answer(self, kind: str, arguments: Tuple) -> Any:
        if kind == "sample":
            report = self._sample(*arguments)
            return (report.holds_on_sample, report.databases_checked,
                    report.databases_generated)
        return self._satisfying(*arguments)

    def ops(self) -> Iterator[Op]:
        # One op is one pass over the schedule: single repairs take from
        # a fraction of a millisecond to the whole step budget, so a
        # pass is the smallest unit whose cost is steady.
        width = len(self.SCHEDULE)
        for start in range(0, len(self.questions) - width + 1, width):
            batch = range(start, start + width)
            yield Op("repair-pass",
                     lambda batch=batch: [self._answer(*self.questions[index])
                                          for index in batch],
                     lambda answers: answers, key=start)
        raise RuntimeError("finite-repair ran out of prepared questions")

    def instrument(self, ledger: Ledger) -> None:
        def repaired(result) -> None:
            ledger.count("instance_chase.steps", result.steps)
            ledger.count("instance_chase.succeeded", result.succeeded)

        for module in (finite_module, database_generator_module):
            ledger.wrap(module, "chase_instance",
                        "chase.instance_chase:repair", on_result=repaired)
            ledger.wrap(module, "database_satisfies", "dependencies:satisfies")
        ledger.wrap(finite_module, "answers_contained_in",
                    "queries.evaluation:answers")
        ledger.wrap(finite_module, "finite_containment_sample",
                    "containment.finite:sample")
        ledger.wrap(DatabaseGenerator, "satisfying", "workloads:satisfying")

    def check(self, loop: LoopResult) -> int:
        wrong = 0
        for sample in loop.samples:
            if not sample.ok:
                continue
            for offset, answer in enumerate(sample.answer):
                kind, arguments = self.questions[sample.key + offset]
                if kind == "sample":
                    # Section 4: Q1 ⊆f Q2 (the paper); otherwise a chain is
                    # contained in its weakening on every database.
                    good = answer[0] is True
                else:
                    good = answer is None or database_satisfies(answer,
                                                                arguments[1])
                wrong += 0 if good else 1
        return wrong

    def layer_metrics(self, ledger: Ledger, loop: LoopResult,
                      traced_seconds: float) -> Dict[str, float]:
        repairs = ledger.calls.get("chase.instance_chase:repair", 0)
        samples = [answer for sample in loop.samples if sample.ok
                   for offset, answer in enumerate(sample.answer)
                   if self.questions[sample.key + offset][0] == "sample"]
        checked = sum(answer[1] for answer in samples)
        generated = sum(answer[2] for answer in samples)
        sample_seconds = ledger.totals.get("containment.finite:sample", 0.0)
        return {
            "instance_chase.repair_ms": ledger.per_op_us(
                "chase.instance_chase:repair") / 1e3,
            "instance_chase.steps": (ledger.counts["instance_chase.steps"] / repairs
                                     if repairs else 0.0),
            "instance_chase.success_ratio": (
                ledger.counts["instance_chase.succeeded"] / repairs
                if repairs else 0.0),
            "finite.databases_checked_per_s": (
                checked / sample_seconds if sample_seconds else 0.0),
            "finite.acceptance_ratio": checked / generated if generated else 0.0,
        }


WORKLOADS = {workload.name: workload for workload in
             (ServiceZipfWarm, SolverColdMix, CatalogRewrite, FiniteRepair)}
