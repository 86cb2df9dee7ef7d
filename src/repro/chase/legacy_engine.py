"""The seed chase implementation, kept as the semantic reference.

This is the engine the repository shipped first: trigger discovery
scans pairs of conjuncts, and the term-keyed indexes are rebuilt from
scratch after every FD application.  It is retained — selectable with
``ChaseConfig(engine="legacy")`` or ``SolverConfig(chase_engine="legacy")``
— so the differential test harness can certify, case by case, that the
columnar engine produces the identical chase (same nodes, same levels,
same arcs, same summary row) and the identical containment verdicts.

Apart from the work-accounting counters (``triggers_examined``,
``index_hits``) and the general TGD/EGD support added to both engines at
the same time (trigger selection is shared via
``chase.embedded_triggers``; application and index upkeep are this
module's scan-and-rebuild style), the FD/IND algorithm is byte-for-byte
the seed behaviour.  Do not "optimise" this module; its value is being
the fixed point the fast engine is measured against.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.chase.chase_graph import ChaseGraph, ChaseNode
from repro.chase.embedded_triggers import (
    EGDTrigger,
    TGDTrigger,
    find_egd_trigger,
    find_tgd_trigger,
)
from repro.chase.engine import (
    ChaseConfig,
    ChaseResult,
    ChaseStatistics,
    ChaseVariant,
    run_with_instrumentation,
)
from repro.chase.events import (
    ChaseTrace,
    EGDApplication,
    FDApplication,
    INDApplication,
    TGDApplication,
)
from repro.chase.fd_chase import ConstantClash, resolve_merge
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.naming import FreshVariableFactory, NDVProvenance
from repro.terms.substitution import Substitution
from repro.terms.term import Term, Variable


class LegacyChaseEngine:
    """Builds the chase with the seed's scan-and-rebuild strategy."""

    engine_name = "legacy"

    def __init__(self, query: ConjunctiveQuery, dependencies: DependencySet,
                 config: Optional[ChaseConfig] = None):
        dependencies.validate(query.input_schema)
        self._query = query
        self._schema: DatabaseSchema = query.input_schema
        self._dependencies = dependencies
        self._fds = dependencies.functional_dependencies()
        self._inds = dependencies.inclusion_dependencies()
        self._tgds = dependencies.tgds()
        self._egds = dependencies.egds()
        self._config = config or ChaseConfig()
        self._graph = ChaseGraph()
        self._summary: Tuple[Term, ...] = query.summary_row
        self._fresh = FreshVariableFactory()
        self._trace = ChaseTrace()
        self._statistics = ChaseStatistics()
        self._failed = False
        self._truncated = False
        self._failure_dependency: Optional[str] = None
        self._failure_live_conjuncts = 0
        self._applied_tgds: Set[Tuple[int, Tuple[int, ...]]] = set()

        # Resolved column positions, one lookup per dependency.
        self._ind_positions: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._inds_by_source: Dict[str, List[int]] = {}
        for index, ind in enumerate(self._inds):
            self._ind_positions[index] = (
                ind.lhs_positions(self._schema), ind.rhs_positions(self._schema))
            self._inds_by_source.setdefault(ind.lhs_relation, []).append(index)
        self._fd_positions: Dict[FunctionalDependency, Tuple[Tuple[int, ...], int]] = {}
        self._fds_by_relation: Dict[str, List[FunctionalDependency]] = {}
        for fd in self._fds:
            relation = self._schema.relation(fd.relation)
            self._fd_positions[fd] = (fd.lhs_positions(relation), fd.rhs_position(relation))
            self._fds_by_relation.setdefault(fd.relation, []).append(fd)

        # Work queue and indexes (rebuilt after every FD application).
        self._pending: List[Tuple[int, int, int]] = []        # (level, node_id, ind index)
        self._applied: Set[Tuple[int, int]] = set()            # (node_id, ind index)
        self._satisfied_by: Dict[Tuple[int, Tuple[Term, ...]], int] = {}  # (ind idx, Y-values) -> node id
        self._atom_index: Dict[Tuple[str, Tuple[Term, ...]], int] = {}    # (relation, terms) -> node id
        self._fd_dirty: List[int] = []                          # node ids needing an FD scan

    # -- public entry point ---------------------------------------------------

    @property
    def graph(self) -> ChaseGraph:
        """The chase graph built so far (the ``ChaseEngineProtocol`` surface)."""
        return self._graph

    @property
    def statistics(self) -> ChaseStatistics:
        """Work counters accumulated so far (the ``ChaseEngineProtocol`` surface)."""
        return self._statistics

    def run(self) -> ChaseResult:
        """Execute the chase until saturation, failure, or a budget limit."""
        return run_with_instrumentation(self)

    def _run(self) -> ChaseResult:
        for conjunct in self._query.conjuncts:
            node = self._graph.new_node(conjunct, level=0)
            self._register_node(node)

        steps_budget = self._config.max_steps
        hit_conjunct_budget = False
        while True:
            self._apply_equalities_to_fixpoint()
            if self._failed:
                break
            if steps_budget is not None and self._statistics.total_steps >= steps_budget:
                self._truncated = True
                break
            application = self._next_expansion()
            if application is None:
                break
            if len(self._graph) >= self._config.max_conjuncts:
                self._truncated = True
                hit_conjunct_budget = True
                break
            kind, payload = application
            if kind == "ind":
                self._apply_ind(*payload)
            else:
                self._apply_tgd(payload)

        if self._config.variant is ChaseVariant.RESTRICTED and not self._failed:
            self._record_cross_arcs()

        saturated = not self._failed and not self._truncated
        return ChaseResult(
            query=self._query,
            variant=self._config.variant,
            graph=self._graph,
            summary_row=self._summary,
            failed=self._failed,
            saturated=saturated,
            truncated=self._truncated,
            statistics=self._statistics,
            trace=self._trace,
            hit_conjunct_budget=hit_conjunct_budget,
            engine=self.engine_name,
            failure_dependency=self._failure_dependency,
            failure_live_conjuncts=self._failure_live_conjuncts,
        )

    # -- node registration and indexes ----------------------------------------

    def _register_node(self, node: ChaseNode) -> None:
        """Enter a new node into every index and enqueue its IND applications."""
        self._atom_index.setdefault((node.relation, node.conjunct.terms), node.node_id)
        for index, ind in enumerate(self._inds):
            self._statistics.triggers_examined += 1
            if ind.rhs_relation == node.relation:
                _, rhs_positions = self._ind_positions[index]
                key = (index, node.conjunct.terms_at(rhs_positions))
                self._satisfied_by.setdefault(key, node.node_id)
        for index in self._inds_by_source.get(node.relation, ()):
            heapq.heappush(self._pending, (node.level, node.node_id, index))
        self._fd_dirty.append(node.node_id)

    def _rebuild_indexes(self) -> None:
        """Recompute term-keyed indexes after an FD application rewrote terms."""
        self._atom_index.clear()
        self._satisfied_by.clear()
        for node in self._graph.nodes():
            self._atom_index.setdefault((node.relation, node.conjunct.terms), node.node_id)
            for index, ind in enumerate(self._inds):
                self._statistics.triggers_examined += 1
                if ind.rhs_relation == node.relation:
                    _, rhs_positions = self._ind_positions[index]
                    key = (index, node.conjunct.terms_at(rhs_positions))
                    self._satisfied_by.setdefault(key, node.node_id)

    # -- FD/EGD phase -------------------------------------------------------------

    def _live_nodes(self, relation: str) -> List[ChaseNode]:
        """Live nodes of one relation in id order (trigger-search backing)."""
        return self._graph.nodes_for_relation(relation)

    def _apply_equalities_to_fixpoint(self) -> None:
        """Step 1 of the policy, generalised: FDs to fixpoint, then EGDs.

        The same interleaving as the columnar engine — FDs first, one EGD,
        FDs again — so the two engines merge in the identical order.
        """
        self._apply_fds_to_fixpoint()
        while self._egds and not self._failed:
            trigger = find_egd_trigger(self._egds, self._live_nodes,
                                       self._statistics)
            if trigger is None:
                return
            self._apply_egd(trigger)
            if not self._failed:
                self._apply_fds_to_fixpoint()

    def _apply_fds_to_fixpoint(self) -> None:
        """Apply the FD chase rule until no FD is applicable (step 1 of the policy)."""
        if not self._fds:
            self._fd_dirty.clear()
            return
        while not self._failed:
            found = self._find_applicable_fd()
            if found is None:
                self._fd_dirty.clear()
                return
            fd, first, second = found
            self._apply_fd(fd, first, second)

    def _find_applicable_fd(self) -> Optional[Tuple[FunctionalDependency, ChaseNode, ChaseNode]]:
        """Lexicographically first applicable (FD, pair of conjuncts).

        Only pairs involving a *dirty* node (one added or rewritten since
        the last fixpoint) can be newly applicable, so the scan is
        restricted accordingly; the chosen pair is still the first in
        (node id, node id, FD order) among the applicable ones found.
        """
        dirty = {node_id for node_id in self._fd_dirty
                 if self._graph.node(node_id).alive}
        if not dirty:
            return None
        nodes = self._graph.nodes()
        best: Optional[Tuple[int, int, int, FunctionalDependency, ChaseNode, ChaseNode]] = None
        for i in range(len(nodes)):
            first = nodes[i]
            fds = self._fds_by_relation.get(first.relation)
            if not fds:
                continue
            for j in range(i + 1, len(nodes)):
                second = nodes[j]
                if second.relation != first.relation:
                    continue
                if first.node_id not in dirty and second.node_id not in dirty:
                    continue
                for fd_order, fd in enumerate(fds):
                    self._statistics.triggers_examined += 1
                    lhs_positions, rhs_position = self._fd_positions[fd]
                    if (first.conjunct.terms_at(lhs_positions)
                            == second.conjunct.terms_at(lhs_positions)
                            and first.conjunct.term_at(rhs_position)
                            != second.conjunct.term_at(rhs_position)):
                        key = (first.node_id, second.node_id, fd_order)
                        if best is None or key < best[:3]:
                            best = key + (fd, first, second)
                        break
        if best is None:
            return None
        return best[3], best[4], best[5]

    def _apply_fd(self, fd: FunctionalDependency, first: ChaseNode, second: ChaseNode) -> None:
        _, rhs_position = self._fd_positions[fd]
        first_symbol = first.conjunct.term_at(rhs_position)
        second_symbol = second.conjunct.term_at(rhs_position)
        self._statistics.fd_steps += 1
        try:
            survivor, loser = resolve_merge(first_symbol, second_symbol)
        except ConstantClash:
            self._record(FDApplication(
                dependency=fd, first_conjunct=first.label, second_conjunct=second.label,
                merged_away=None, survivor=None, halted=True))
            self._halt_on_clash(str(fd))
            return
        self._record(FDApplication(
            dependency=fd, first_conjunct=first.label, second_conjunct=second.label,
            merged_away=loser, survivor=survivor))
        self._merge_symbols(survivor, loser)
        self._merge_identical_conjuncts()
        self._rebuild_indexes()

    def _halt_on_clash(self, dependency: str) -> None:
        """The paper's constant-clash case: record the prefix, empty the query."""
        self._failed = True
        self._failure_dependency = dependency
        self._failure_live_conjuncts = len(self._graph)
        for node in self._graph.nodes():
            self._graph.retire_node(node.node_id)

    def _merge_symbols(self, survivor: Term, loser: Term) -> None:
        """Rewrite ``loser`` to ``survivor`` everywhere (full scan, seed style)."""
        if not isinstance(loser, Variable):
            return
        substitution = Substitution({loser: survivor})
        for node in self._graph.nodes():
            rewritten = node.conjunct.substitute(substitution)
            if rewritten.terms != node.conjunct.terms:
                node.conjunct = rewritten
                self._fd_dirty.append(node.node_id)
        self._summary = substitution.apply_tuple(self._summary)

    def _apply_egd(self, trigger: EGDTrigger) -> None:
        """The EGD chase rule: merge the two equated symbols (FD semantics)."""
        self._statistics.egd_steps += 1
        labels = tuple(node.label for node in trigger.nodes)
        try:
            survivor, loser = resolve_merge(trigger.first, trigger.second)
        except ConstantClash:
            self._record(EGDApplication(
                dependency=trigger.egd, conjuncts=labels,
                merged_away=None, survivor=None, halted=True))
            self._halt_on_clash(str(trigger.egd))
            return
        self._record(EGDApplication(
            dependency=trigger.egd, conjuncts=labels,
            merged_away=loser, survivor=survivor))
        self._merge_symbols(survivor, loser)
        self._merge_identical_conjuncts()
        self._rebuild_indexes()

    def _merge_identical_conjuncts(self) -> None:
        """Coalesce nodes that became identical atoms after a merge.

        The surviving node keeps the minimum of the merged levels (the
        paper's levelling rule); ordinary-arc parents of children of the
        retired node are redirected to the survivor so ancestor chains stay
        meaningful.
        """
        by_atom: Dict[Tuple[str, Tuple[Term, ...]], ChaseNode] = {}
        for node in self._graph.nodes():
            key = (node.relation, node.conjunct.terms)
            existing = by_atom.get(key)
            if existing is None:
                by_atom[key] = node
                continue
            survivor, retired = (
                (existing, node) if existing.node_id <= node.node_id else (node, existing)
            )
            if retired.level < survivor.level:
                # The levelling rule lowers the survivor, so its pending
                # entries (keyed at insert-time level) are stale: push
                # fresh entries at the live level; stale ones are
                # discarded when popped.
                survivor.level = retired.level
                for index in self._inds_by_source.get(survivor.relation, ()):
                    heapq.heappush(self._pending,
                                   (survivor.level, survivor.node_id, index))
            for child in self._graph.children(retired.node_id):
                child.parent = survivor.node_id
            self._graph.retire_node(retired.node_id)
            self._statistics.merged_conjuncts += 1
            by_atom[key] = survivor

    # -- IND/TGD phase -----------------------------------------------------------------

    def _peek_next_ind_application(
            self) -> Optional[Tuple[int, ChaseNode, int, InclusionDependency]]:
        """The next needed (conjunct, IND) pair, popped but not level-checked.

        The pending heap is keyed by ``(level, node id, IND index)``, which
        is exactly "minimum level, lexicographically first conjunct,
        lexicographically first IND".  Entries whose application is no
        longer needed (already applied in the O-chase, requirement already
        satisfied in the R-chase, node retired by an FD merge) are
        discarded as they surface.  The caller pushes the returned entry
        back when it decides not to apply it.
        """
        oblivious = self._config.variant is ChaseVariant.OBLIVIOUS
        while self._pending:
            level, node_id, index = heapq.heappop(self._pending)
            self._statistics.triggers_examined += 1
            node = self._graph.node(node_id)
            if not node.alive:
                continue
            if level != node.level:
                # Stale key: an identical-conjunct merge lowered the node's
                # level after this entry was pushed, and pushed a fresh
                # entry at the live level.  Applying at the stale key would
                # deviate from the minimum-level policy.
                continue
            ind = self._inds[index]
            if oblivious:
                if (node_id, index) in self._applied:
                    continue
            else:
                if self._requirement_satisfied(node, index):
                    self._statistics.index_hits += 1
                    continue
            return level, node, index, ind
        return None

    def _pop_next_ind_application(self) -> Optional[Tuple[ChaseNode, int, InclusionDependency]]:
        """Step 2 of the policy (IND-only Σ): the next pair to apply.

        If the next needed application would exceed the level budget, so
        would every later one (the heap is level-ordered), so the chase
        stops as truncated.
        """
        entry = self._peek_next_ind_application()
        if entry is None:
            return None
        level, node, index, ind = entry
        if (self._config.max_level is not None
                and node.level + 1 > self._config.max_level):
            self._truncated = True
            heapq.heappush(self._pending, (level, node.node_id, index))
            return None
        return node, index, ind

    def _next_expansion(self):
        """Step 2 of the policy: the minimum-priority creation application.

        Identical selection rule to the columnar engine (see its
        ``_next_expansion``): pending INDs and active TGD triggers compete
        on ``(level, node-id tuple, kind, dependency index)``.
        """
        if not self._tgds:
            application = self._pop_next_ind_application()
            return None if application is None else ("ind", application)
        entry = self._peek_next_ind_application()
        trigger = find_tgd_trigger(
            self._tgds, self._live_nodes,
            self._config.variant is ChaseVariant.OBLIVIOUS,
            self._applied_tgds, self._statistics)
        if entry is None and trigger is None:
            return None
        ind_priority = (None if entry is None
                        else (entry[1].level, (entry[1].node_id,), 0, entry[2]))
        tgd_priority = (None if trigger is None
                        else (trigger.level, trigger.node_ids, 1, trigger.index))
        choose_ind = tgd_priority is None or (ind_priority is not None
                                              and ind_priority < tgd_priority)
        chosen_level = (ind_priority if choose_ind else tgd_priority)[0]
        if (self._config.max_level is not None
                and chosen_level + 1 > self._config.max_level):
            self._truncated = True
            if entry is not None:
                heapq.heappush(self._pending, (entry[0], entry[1].node_id, entry[2]))
            return None
        if choose_ind:
            return ("ind", (entry[1], entry[2], entry[3]))
        if entry is not None:
            heapq.heappush(self._pending, (entry[0], entry[1].node_id, entry[2]))
        return ("tgd", trigger)

    def _requirement_satisfied(self, node: ChaseNode, index: int) -> bool:
        """R-chase: is there already a conjunct c' with c'[Y] = c[X]?"""
        lhs_positions, _ = self._ind_positions[index]
        source_values = node.conjunct.terms_at(lhs_positions)
        return (index, source_values) in self._satisfied_by

    def _apply_ind(self, node: ChaseNode, index: int, ind: InclusionDependency) -> None:
        """The IND chase rule: create the new conjunct with fresh NDVs."""
        lhs_positions, rhs_positions = self._ind_positions[index]
        target_schema = self._schema.relation(ind.rhs_relation)
        source_values = node.conjunct.terms_at(lhs_positions)
        new_level = node.level + 1
        self._applied.add((node.node_id, index))

        terms: List[Term] = []
        fresh_terms: List[Term] = []
        for position in range(target_schema.arity):
            if position in rhs_positions:
                terms.append(source_values[rhs_positions.index(position)])
            else:
                provenance = NDVProvenance(
                    attribute=target_schema.attribute_name_at(position),
                    source_conjunct=node.label,
                    dependency=str(ind),
                    level=new_level,
                )
                fresh = self._fresh.fresh(provenance)
                terms.append(fresh)
                fresh_terms.append(fresh)

        candidate = Conjunct(ind.rhs_relation, terms)
        duplicate_id = self._atom_index.get((candidate.relation, candidate.terms))
        if duplicate_id is not None:
            # The created conjunct already exists verbatim (only possible
            # when the IND copies every column of the target).  No new node
            # is needed; in the O-chase the application is simply marked
            # done, in the R-chase it would not have been selected.
            duplicate = self._graph.node(duplicate_id)
            self._statistics.redundant_ind_applications += 1
            self._statistics.index_hits += 1
            self._record(INDApplication(
                dependency=ind, source_conjunct=node.label,
                created_conjunct=None, existing_conjunct=duplicate.label,
                level=duplicate.level))
            return

        created = self._graph.new_node(candidate, level=new_level,
                                       parent=node.node_id, via=ind)
        self._register_node(created)
        self._statistics.ind_steps += 1
        self._statistics.max_level_reached = max(self._statistics.max_level_reached, new_level)
        self._record(INDApplication(
            dependency=ind, source_conjunct=node.label,
            created_conjunct=created.label, existing_conjunct=None,
            level=new_level, fresh_variables=tuple(fresh_terms)))

    def _apply_tgd(self, trigger: TGDTrigger) -> None:
        """The TGD chase rule: create the head conjuncts with fresh NDVs.

        Semantically identical to the columnar engine's ``_apply_tgd``
        (same fresh-NDV sharing, same parent choice, same verbatim-
        duplicate skip); only the duplicate lookup goes through this
        engine's rebuilt atom index.
        """
        tgd = trigger.tgd
        binding = trigger.binding_dict()
        new_level = trigger.level + 1
        self._applied_tgds.add(trigger.applied_key)
        parent = next(node for node in trigger.nodes
                      if node.level == trigger.level)

        fresh_by_variable: Dict[Variable, Term] = {}
        fresh_terms: List[Term] = []
        created_labels: List[str] = []
        for atom in tgd.head:
            target_schema = self._schema.relation(atom.relation)
            terms: List[Term] = []
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    terms.append(term)
                elif term in binding:
                    terms.append(binding[term])
                else:
                    fresh = fresh_by_variable.get(term)
                    if fresh is None:
                        provenance = NDVProvenance(
                            attribute=target_schema.attribute_name_at(position),
                            source_conjunct=parent.label,
                            dependency=str(tgd),
                            level=new_level,
                        )
                        fresh = self._fresh.fresh(provenance)
                        fresh_by_variable[term] = fresh
                        fresh_terms.append(fresh)
                    terms.append(fresh)
            candidate = Conjunct(atom.relation, terms)
            if self._atom_index.get((candidate.relation, candidate.terms)) is not None:
                self._statistics.index_hits += 1
                continue
            created = self._graph.new_node(candidate, level=new_level,
                                           parent=parent.node_id, via=tgd)
            self._register_node(created)
            created_labels.append(created.label)
        if created_labels:
            self._statistics.tgd_steps += 1
            self._statistics.max_level_reached = max(
                self._statistics.max_level_reached, new_level)
        else:
            self._statistics.redundant_tgd_applications += 1
        self._record(TGDApplication(
            dependency=tgd,
            source_conjuncts=tuple(node.label for node in trigger.nodes),
            created_conjuncts=tuple(created_labels),
            level=new_level, fresh_variables=tuple(fresh_terms)))

    def _record_cross_arcs(self) -> None:
        """R-chase post-pass: record cross arcs for satisfied requirements.

        For every conjunct c and IND ``R[X] ⊆ S[Y]`` applicable to c whose
        required conjunct already exists, add a cross arc from c to (the
        first) such conjunct, unless c itself has an ordinary arc for that
        IND.  These are the cross arcs Theorem 2's key-based certificate
        argument inspects.
        """
        ordinary = {(arc.source, str(arc.dependency)) for arc in self._graph.ordinary_arcs()}
        for node in self._graph.nodes():
            for index in self._inds_by_source.get(node.relation, ()):
                ind = self._inds[index]
                key = (node.node_id, str(ind))
                if key in ordinary:
                    continue
                lhs_positions, _ = self._ind_positions[index]
                source_values = node.conjunct.terms_at(lhs_positions)
                target_id = self._satisfied_by.get((index, source_values))
                if target_id is not None and target_id != node.node_id:
                    self._graph.add_cross_arc(node.node_id, target_id, ind)

    # -- bookkeeping -----------------------------------------------------------------------

    def _record(self, step) -> None:
        if self._config.record_trace:
            self._trace.record(step)
