"""The engine instrumentation hook: a probe the hot paths report into.

:class:`Probe` is both the interface and the no-op base.  The chase
engines, the homomorphism search, the rewrite path, and the solver's
request surface each call the **module-global** :data:`ACTIVE` probe —
guarded by a single ``is None`` attribute check, so an uninstrumented
process pays one pointer read per reporting site and nothing else.

The default :class:`MetricsProbe` folds the engines' existing
statistics objects (:class:`~repro.chase.engine.ChaseStatistics`,
solver response fields) into the process metrics registry rather than
keeping parallel counters: the engines keep reporting what they always
reported, and the probe is the one place that translation lives.
Probes receive *end-of-run* summaries, never per-trigger callbacks —
the grain at which reporting cannot distort what it measures.

This module deliberately imports nothing from ``repro.chase`` or
``repro.api``: statistics objects arrive duck-typed, which keeps the
dependency arrow pointing from the engines *into* obs and never back.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.obs.metrics import (
    DEFAULT_SIZE_BUCKETS,
    MetricsRegistry,
    get_registry,
)

__all__ = ["Probe", "MetricsProbe", "ACTIVE", "active", "install", "uninstall"]


class Probe:
    """No-op base; override any subset of the reporting hooks."""

    def request(self, op: str, elapsed_s: float,
                cache_hit: Optional[bool]) -> None:
        """One solver request finished (containment/chase/optimize/rewrite)."""

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        """One chase run finished; ``statistics`` is its ChaseStatistics."""

    def homomorphism(self, atoms: int, found: int) -> None:
        """One homomorphism search was exhausted or abandoned."""

    def rewrite(self, candidates_tried: int, certified: int,
                images: int, views_pruned: int = 0,
                candidates_skipped_unsafe: int = 0,
                candidates_deduped: int = 0) -> None:
        """One chase & backchase rewrite search finished.

        The last three arguments arrived with the staged rewriter
        pipeline (catalog-index view pruning, safety-check and dedup
        skips) and default to 0 so probes written against the original
        three-argument hook keep working.
        """


#: The installed probe, or ``None`` (the near-zero disabled state).
#: Reporting sites read this once per event: ``probe = ACTIVE`` /
#: ``if probe is not None: probe.chase(...)``.
ACTIVE: Optional[Probe] = None


def active() -> Optional[Probe]:
    return ACTIVE


def install(probe: Optional[Probe] = None) -> Probe:
    """Install (and return) a probe; default is a fresh :class:`MetricsProbe`."""
    global ACTIVE
    ACTIVE = probe if probe is not None else MetricsProbe()
    return ACTIVE


def uninstall() -> Optional[Probe]:
    """Remove the active probe, returning it (for later reinstall)."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = None
    return previous


class MetricsProbe(Probe):
    """The standard probe: every hook lands in the metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        registry = registry if registry is not None else get_registry()
        self.registry = registry
        self._requests = registry.counter(
            "repro_requests_total",
            "Solver requests by operation and cache outcome.",
            labels=("op", "cache_hit"))
        self._request_seconds = registry.histogram(
            "repro_request_seconds",
            "Solver request latency by operation.",
            labels=("op",))
        self._chase_runs = registry.counter(
            "repro_chase_runs_total",
            "Chase executions by engine and outcome.",
            labels=("engine", "outcome"))
        self._chase_seconds = registry.histogram(
            "repro_chase_seconds",
            "Chase wall-clock seconds by engine.",
            labels=("engine",))
        self._chase_conjuncts = registry.histogram(
            "repro_chase_conjuncts",
            "Live conjuncts per finished chase.",
            labels=(), buckets=DEFAULT_SIZE_BUCKETS)
        self._chase_steps = registry.counter(
            "repro_chase_steps_total",
            "Chase rule applications by kind (redundant ones included).",
            labels=("kind",))
        self._triggers = registry.counter(
            "repro_chase_triggers_examined_total",
            "Candidate triggers inspected across all chases.")
        self._index_hits = registry.counter(
            "repro_chase_index_hits_total",
            "Chase lookups answered by a persistent index.")
        self._delta_matches = registry.counter(
            "repro_chase_delta_seeded_matches_total",
            "Embedded-rule body matches discovered from the delta log.")
        self._trigger_cache_hits = registry.counter(
            "repro_chase_trigger_cache_hits_total",
            "Trigger re-derivations avoided by the semi-naive caches.")
        self._interned_terms = registry.counter(
            "repro_chase_interned_terms_total",
            "Terms interned into dense ids by the columnar engine.")
        self._union_find_unions = registry.counter(
            "repro_chase_union_find_unions_total",
            "EGD/FD merges recorded in the columnar union-find.")
        self._union_find_finds = registry.counter(
            "repro_chase_union_find_finds_total",
            "Canonical-id lookups served by the columnar union-find.")
        self._column_probes = registry.counter(
            "repro_chase_column_probes_total",
            "Per-column posting-list probes during columnar merges.")
        self._hom_searches = registry.counter(
            "repro_homomorphism_searches_total",
            "Homomorphism searches by whether a solution was found.",
            labels=("found",))
        self._rewrite_candidates = registry.counter(
            "repro_rewrite_candidates_total",
            "Rewrite candidates certified or refuted.")
        self._rewrite_certified = registry.counter(
            "repro_rewrite_certified_total",
            "Rewrite candidates that certified equivalent.")
        self._rewrite_views_pruned = registry.counter(
            "repro_rewrite_views_pruned_total",
            "Catalog views the rewriter's signature index pruned before "
            "any homomorphism search.")
        self._rewrite_unsafe = registry.counter(
            "repro_rewrite_candidates_unsafe_total",
            "Rewrite candidates skipped by the head-variable safety check.")
        self._rewrite_deduped = registry.counter(
            "repro_rewrite_candidates_deduped_total",
            "Rewrite candidates swallowed by the dedup set.")
        # Hot-path children: label resolution is paid once here (or on
        # first sight of a new label combination), not per event — the
        # probe rides inside every chase and request (benchmark E20).
        self._request_children: dict = {}
        self._chase_children: dict = {}
        self._chase_conjuncts_series = self._chase_conjuncts.labels()
        self._step_children = {
            kind: self._chase_steps.labels(kind=kind)
            for kind in ("fd", "egd", "ind", "tgd", "merged")}
        self._triggers_series = self._triggers.labels()
        self._index_hits_series = self._index_hits.labels()
        self._delta_matches_series = self._delta_matches.labels()
        self._trigger_cache_hits_series = self._trigger_cache_hits.labels()
        self._interned_terms_series = self._interned_terms.labels()
        self._union_find_unions_series = self._union_find_unions.labels()
        self._union_find_finds_series = self._union_find_finds.labels()
        self._column_probes_series = self._column_probes.labels()
        self._hom_children = {
            found: self._hom_searches.labels(found=found)
            for found in ("true", "false")}
        self._rewrite_candidates_series = self._rewrite_candidates.labels()
        self._rewrite_certified_series = self._rewrite_certified.labels()
        self._rewrite_views_pruned_series = self._rewrite_views_pruned.labels()
        self._rewrite_unsafe_series = self._rewrite_unsafe.labels()
        self._rewrite_deduped_series = self._rewrite_deduped.labels()

    def request(self, op: str, elapsed_s: float,
                cache_hit: Optional[bool]) -> None:
        hit = {True: "true", False: "false"}.get(cache_hit, "n/a")
        children = self._request_children.get((op, hit))
        if children is None:
            children = self._request_children[(op, hit)] = (
                self._requests.labels(op=op, cache_hit=hit),
                self._request_seconds.labels(op=op))
        children[0].inc()
        children[1].observe(elapsed_s)

    def chase(self, engine: str, elapsed_s: float, statistics: Any,
              conjuncts: int, saturated: bool, failed: bool) -> None:
        outcome = ("failed" if failed
                   else "saturated" if saturated else "truncated")
        children = self._chase_children.get((engine, outcome))
        if children is None:
            children = self._chase_children[(engine, outcome)] = (
                self._chase_runs.labels(engine=engine, outcome=outcome),
                self._chase_seconds.labels(engine=engine))
        children[0].inc()
        children[1].observe(elapsed_s)
        self._chase_conjuncts_series.observe(conjuncts)
        steps = self._step_children
        for kind, amount in (
                ("fd", statistics.fd_steps),
                ("egd", statistics.egd_steps),
                ("ind", statistics.ind_applications),
                ("tgd", statistics.tgd_applications),
                ("merged", statistics.merged_conjuncts)):
            if amount:
                steps[kind].inc(amount)
        if statistics.triggers_examined:
            self._triggers_series.inc(statistics.triggers_examined)
        if statistics.index_hits:
            self._index_hits_series.inc(statistics.index_hits)
        if statistics.delta_seeded_matches:
            self._delta_matches_series.inc(statistics.delta_seeded_matches)
        if statistics.trigger_cache_hits:
            self._trigger_cache_hits_series.inc(statistics.trigger_cache_hits)
        if statistics.interned_terms:
            self._interned_terms_series.inc(statistics.interned_terms)
        if statistics.union_find_unions:
            self._union_find_unions_series.inc(statistics.union_find_unions)
        if statistics.union_find_finds:
            self._union_find_finds_series.inc(statistics.union_find_finds)
        if statistics.column_probes:
            self._column_probes_series.inc(statistics.column_probes)

    def homomorphism(self, atoms: int, found: int) -> None:
        self._hom_children["true" if found else "false"].inc()

    def rewrite(self, candidates_tried: int, certified: int,
                images: int, views_pruned: int = 0,
                candidates_skipped_unsafe: int = 0,
                candidates_deduped: int = 0) -> None:
        if candidates_tried:
            self._rewrite_candidates_series.inc(candidates_tried)
        if certified:
            self._rewrite_certified_series.inc(certified)
        if views_pruned:
            self._rewrite_views_pruned_series.inc(views_pruned)
        if candidates_skipped_unsafe:
            self._rewrite_unsafe_series.inc(candidates_skipped_unsafe)
        if candidates_deduped:
            self._rewrite_deduped_series.inc(candidates_deduped)
