"""E21 — the columnar interned-term core vs. the legacy object engine.

The columnar engine (``engine="columnar"``, the production default) runs
its hot loop entirely on dense integer term ids: an interner with lazy
NDV materialisation, flat append-only column stores, per-IND
satisfaction dicts keyed by id tuples, a union-find for FD/EGD merges,
and semi-naive FD deltas as integer watermark cursors.  The legacy
object engine (the reference oracle) pays Term hashing, Conjunct
allocation, and string-keyed index maintenance on every fact; the
columnar engine defers all of that to one materialisation pass at the
result boundary.

* **speedup** (the acceptance criterion): on a deep branching IND chase
  the columnar engine must finish at least ``COLUMNAR_SPEEDUP_FLOOR``
  times faster than the legacy engine, min-over-rounds against
  min-over-rounds (mins, not means, so scheduler noise on a loaded CI
  runner cannot manufacture or mask a regression).  The rounds are an
  interleaved A/B, as E20's are: each round runs both engines, and the
  engine that goes first alternates, so a slow spell on a shared runner
  lands on both sides rather than on whichever engine ran during it;
* **certification**: both engines build the identical chase node for
  node — same ids, levels, relations, and materialised terms;
* **no generality price**: E18's embedded-dependency workload (general
  TGDs) must cost at most ``EMBEDDED_PRICE_CEILING`` under the columnar
  engine relative to the legacy engine — the columnar core may not buy
  its IND speed by slowing the general path down.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.chase.engine import ChaseConfig, ChaseVariant, build_engine
from repro.chase.termination import analyse_termination
from repro.workloads import (
    DependencyGenerator,
    EmbeddedDependencyGenerator,
    QueryGenerator,
    SchemaGenerator,
)

#: The columnar engine must beat the legacy engine by at least this
#: factor on the deep-chase workload.  The floor keeps CI headroom while
#: still catching a slide back into object-per-fact territory.
COLUMNAR_SPEEDUP_FLOOR = 2.0

#: The columnar engine may cost at most this many times the legacy
#: engine on E18's general-TGD workload.
EMBEDDED_PRICE_CEILING = 1.2


@pytest.fixture(autouse=True)
def collect_after_test():
    """These chases allocate millions of objects per round; collect after
    each test so the garbage does not skew the benchmarks that follow."""
    yield
    gc.collect()


@pytest.fixture(scope="module")
def deep_ind_workload():
    """A branching, weakly-acyclic IND set whose R-chase fans out to the
    conjunct budget: 6 relations of arity 4, 16 width-<=2 INDs, and a
    4-atom chain query."""
    schema = SchemaGenerator(seed=11).uniform(6, 4)
    sigma = DependencyGenerator(schema, seed=111).ind_only(16, max_width=2)
    query = QueryGenerator(schema, seed=11).chain(4)
    return schema, sigma, query


@pytest.fixture(scope="module")
def embedded_workload():
    """E18's workload: a weakly-acyclic IND set and its TGD encoding."""
    schema = SchemaGenerator(seed=5).uniform(5, 3)
    inds, tgds = EmbeddedDependencyGenerator(schema, seed=5).ind_expressible(
        6, max_width=2)
    assert analyse_termination(inds, schema).weakly_acyclic
    query = QueryGenerator(schema, seed=5).chain(3, name="Qe")
    return schema, inds, tgds, query


def run_deep_chase(query, sigma, engine: str):
    config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=10,
                         max_conjuncts=8_000, record_trace=False,
                         engine=engine)
    return build_engine(query, sigma, config).run()


def run_embedded_chase(query, sigma, engine: str):
    config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=None,
                         max_conjuncts=5_000, record_trace=False,
                         engine=engine)
    return build_engine(query, sigma, config).run()


def interleaved_rounds(benchmark, columnar, legacy, rounds=5):
    """Time ``rounds`` A/B rounds of two engine runs under ``benchmark``.

    Even rounds run ``columnar`` first and odd rounds ``legacy`` first.
    Each run starts after a collection, with the previous round's chases
    released, so neither engine is timed collecting the other's garbage.
    Returns each side's per-round times and last result, keyed by
    engine name; the benchmark records the time of a whole round.
    """
    times = {"columnar": [], "legacy": []}
    results = {}
    sides = [("columnar", columnar), ("legacy", legacy)]

    def one_round():
        ordered = sides if len(times["columnar"]) % 2 == 0 else sides[::-1]
        results.clear()
        for name, run in ordered:
            gc.collect()
            started = time.perf_counter()
            results[name] = run()
            times[name].append(time.perf_counter() - started)

    benchmark.pedantic(one_round, rounds=rounds, iterations=1)
    return times, results


def node_signature(result):
    return [(node.node_id, node.level, node.relation, node.conjunct.terms)
            for node in result.graph.nodes(include_dead=True)]


@pytest.mark.benchmark(group="E21-columnar-chase")
@pytest.mark.parametrize("engine", ["legacy", "columnar"])
def test_e21_deep_chase_throughput(benchmark, deep_ind_workload, engine):
    """Time the budget-bounded deep chase under each engine."""
    _, sigma, query = deep_ind_workload
    result = benchmark(run_deep_chase, query, sigma, engine)
    assert result.hit_conjunct_budget


@pytest.mark.benchmark(group="E21-columnar-chase")
def test_e21_columnar_speedup_and_certification(benchmark, deep_ind_workload):
    """Acceptance: >= COLUMNAR_SPEEDUP_FLOOR on the deep chase, and the
    two engines' chases agree node for node."""
    _, sigma, query = deep_ind_workload
    times, results = interleaved_rounds(
        benchmark,
        lambda: run_deep_chase(query, sigma, "columnar"),
        lambda: run_deep_chase(query, sigma, "legacy"))
    columnar_result, legacy_result = results["columnar"], results["legacy"]

    # Node-for-node certification (ids, levels, relations, terms).
    assert node_signature(columnar_result) == node_signature(legacy_result)
    assert columnar_result.summary_row == legacy_result.summary_row

    statistics = columnar_result.statistics
    speedup = min(times["legacy"]) / max(min(times["columnar"]), 1e-9)
    benchmark.extra_info["experiment"] = "E21-columnar-vs-legacy"
    benchmark.extra_info["legacy_over_columnar_wall_clock"] = round(speedup, 2)
    benchmark.extra_info["chase_size"] = len(columnar_result)
    benchmark.extra_info["interned_terms"] = statistics.interned_terms
    benchmark.extra_info["union_find_unions"] = statistics.union_find_unions
    benchmark.extra_info["union_find_finds"] = statistics.union_find_finds
    benchmark.extra_info["column_probes"] = statistics.column_probes
    assert statistics.interned_terms > 0
    assert speedup >= COLUMNAR_SPEEDUP_FLOOR, (
        f"columnar engine was only {speedup:.2f}x faster than legacy; "
        f"floor is {COLUMNAR_SPEEDUP_FLOOR}x")


@pytest.mark.benchmark(group="E21-columnar-chase")
def test_e21_embedded_price_under_columnar(benchmark, embedded_workload):
    """The general-TGD path must not regress under the columnar engine."""
    _, inds, tgds, query = embedded_workload
    times, results = interleaved_rounds(
        benchmark,
        lambda: run_embedded_chase(query, tgds, "columnar"),
        lambda: run_embedded_chase(query, tgds, "legacy"))
    columnar_result, legacy_result = results["columnar"], results["legacy"]

    assert columnar_result.saturated and legacy_result.saturated
    assert node_signature(columnar_result) == node_signature(legacy_result)

    # The IND encoding of the same Σ rides the columnar fast path.
    ind_result = run_embedded_chase(query, inds, "columnar")
    assert ind_result.saturated

    price = min(times["columnar"]) / max(min(times["legacy"]), 1e-9)
    benchmark.extra_info["experiment"] = "E18-under-columnar"
    benchmark.extra_info["columnar_over_legacy_wall_clock"] = round(price, 2)
    benchmark.extra_info["chase_size"] = len(columnar_result)
    assert price <= EMBEDDED_PRICE_CEILING, (
        f"the columnar engine cost {price:.2f}x the legacy engine on the "
        f"embedded workload; ceiling is {EMBEDDED_PRICE_CEILING}x")
