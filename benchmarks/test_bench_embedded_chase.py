"""E18 — embedded-dependency chase: general TGDs vs. the IND fast path.

PR 5 opened the general-Σ scenario class: TGDs/EGDs with arbitrary CQ
bodies chase through a generic trigger search (homomorphism enumeration
per round) instead of the per-IND pending heap.  PR 8 made that search
semi-naive — per-rule delta cursors seed body matches from nodes touched
since the rule last ran, and head-satisfaction checks cache against
relation versions — which brought the measured TGD/IND ratio on this
workload from ~4.1x down to ~1.9x.  This benchmark prices that generality on the one workload where
both paths express the same constraints — a weakly-acyclic IND set and
its ``as_tgd`` normalization:

* **throughput**: both encodings are chased to saturation under both
  engines; the wall-clock ratio TGD/IND is recorded in ``extra_info``
  (the generic path is expected to be slower — the number is the price
  of generality, tracked so it cannot silently explode);
* **correctness** (the acceptance criterion): the two encodings build
  chases with identical atom structure per level and yield identical
  containment verdicts through ``Solver.is_contained``;
* **exactness**: the weakly-acyclic TGD encoding gets ``certain``
  verdicts in both directions — the dispatcher's termination-certified
  deepening at work.
"""

from __future__ import annotations

import time

import pytest

from repro.api import Solver, SolverConfig
from repro.chase.engine import ChaseConfig, ChaseVariant, build_engine
from repro.chase.termination import analyse_termination
from repro.workloads import EmbeddedDependencyGenerator, QueryGenerator, SchemaGenerator

#: TGD-path wall clock may cost up to this many times the IND fast path
#: before the benchmark fails; the measured ratio lands in extra_info.
#: PR 8's semi-naive trigger discovery measures ~1.9x on this workload;
#: the ceiling keeps CI-runner headroom while still catching a slide
#: back toward the pre-semi-naive ~4.1x.
GENERALITY_PRICE_CEILING = 3.0


@pytest.fixture(scope="module")
def embedded_workload():
    """A weakly-acyclic IND set, its TGD normalization, and a query."""
    schema = SchemaGenerator(seed=5).uniform(5, 3)
    inds, tgds = EmbeddedDependencyGenerator(schema, seed=5).ind_expressible(
        6, max_width=2)
    assert analyse_termination(inds, schema).weakly_acyclic
    query = QueryGenerator(schema, seed=5).chain(3, name="Qe")
    return schema, inds, tgds, query


def run_chase(query, sigma, engine: str = "columnar"):
    config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_level=None,
                         max_conjuncts=5_000, record_trace=False, engine=engine)
    return build_engine(query, sigma, config).run()


@pytest.mark.benchmark(group="E18-embedded-chase")
@pytest.mark.parametrize("encoding", ["ind", "tgd"])
def test_e18_weakly_acyclic_chase_throughput(benchmark, embedded_workload, encoding):
    """Time the saturating chase under each encoding of the same Σ."""
    _, inds, tgds, query = embedded_workload
    sigma = inds if encoding == "ind" else tgds
    result = benchmark(run_chase, query, sigma)
    assert result.saturated


@pytest.mark.benchmark(group="E18-embedded-chase")
def test_e18_encodings_build_the_same_chase(benchmark, embedded_workload):
    """Same atoms per (relation, level) under both encodings and engines;
    the TGD/IND wall-clock ratio is recorded as the price of generality."""
    _, inds, tgds, query = embedded_workload

    tgd_times = []

    def tgd_run():
        started = time.perf_counter()
        result = run_chase(query, tgds)
        tgd_times.append(time.perf_counter() - started)
        return result

    tgd_result = benchmark.pedantic(tgd_run, rounds=3, iterations=1)
    ind_times = []
    for _ in range(3):
        started = time.perf_counter()
        ind_result = run_chase(query, inds)
        ind_times.append(time.perf_counter() - started)

    # Both engines produce the identical chase for each encoding.
    for sigma, columnar in ((inds, ind_result), (tgds, tgd_result)):
        legacy = run_chase(query, sigma, engine="legacy")
        assert [(n.node_id, n.level, n.relation, n.conjunct.terms)
                for n in columnar.graph] == \
               [(n.node_id, n.level, n.relation, n.conjunct.terms)
                for n in legacy.graph]

    # Same saturation shape: one atom skeleton per (level, relation); only
    # the fresh-NDV *names* differ between the encodings (different
    # provenance strings), so compare name-insensitive skeletons.
    def skeleton(result):
        return sorted(
            (node.level, node.relation,
             tuple(term if term.is_constant else None for term in node.conjunct.terms))
            for node in result.graph)

    assert ind_result.saturated and tgd_result.saturated
    assert skeleton(ind_result) == skeleton(tgd_result)

    ratio = min(tgd_times) / max(min(ind_times), 1e-9)
    benchmark.extra_info["experiment"] = "E18-tgd-vs-ind-encoding"
    benchmark.extra_info["tgd_over_ind_wall_clock"] = round(ratio, 2)
    benchmark.extra_info["chase_size"] = len(ind_result)
    statistics = tgd_result.statistics
    benchmark.extra_info["tgd_delta_seeded_matches"] = statistics.delta_seeded_matches
    benchmark.extra_info["tgd_trigger_cache_hits"] = statistics.trigger_cache_hits
    assert ratio < GENERALITY_PRICE_CEILING, (
        f"the generic TGD path cost {ratio:.1f}x the IND fast path; "
        f"ceiling is {GENERALITY_PRICE_CEILING}x")


def test_e18_verdicts_agree_and_are_exact(embedded_workload):
    """Acceptance: identical, certain verdicts under both encodings."""
    schema, inds, tgds, query = embedded_workload
    query_prime = QueryGenerator(schema, seed=6).chain(2, name="Qp")
    solver = Solver(SolverConfig(containment_cache_size=0, chase_cache_size=0))
    for q, qp in ((query, query_prime), (query_prime, query),
                  (query, query), (query_prime, query_prime)):
        native = solver.is_contained(q, qp, inds)
        embedded = solver.is_contained(q, qp, tgds)
        assert native.holds == embedded.holds
        assert native.certain and embedded.certain
