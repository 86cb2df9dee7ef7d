"""The columnar chase engine: an interned-term core (``engine="columnar"``).

The legacy engine chases over :class:`~repro.terms.term.Term` objects
held on :class:`~repro.queries.conjunct.Conjunct` tuples; every index key
hashes term objects (and therefore strings), every FD/EGD merge rewrites
whole conjuncts, and every fresh NDV formats its provenance name
eagerly.  This engine — the production default — keeps the *policy* —
minimum level, lexicographically first conjunct, lexicographically first
dependency, certified node for node against the legacy oracle — but
moves the hot core onto dense integers:

* a process-local **term interner** maps constants, variables, and
  chase-created NDVs to dense int ids; NDVs are interned *lazily* (a
  serial plus its provenance), so their ``Term`` objects and name strings
  are only materialised at the result boundary or for the trace;
* relations are **flat columns** of term ids, append-only, with one
  inverted posting index per column mapping a canonical id to the live
  rows holding it — a merge probes exactly the rows containing the
  merged-away id instead of walking a term-occurrence map of objects;
* EGD/FD merges go through a **union-find** with path compression: the
  loser id is unioned into the survivor and affected atom keys are
  re-canonicalised from the raw (never rewritten) column cells instead
  of cascading a substitution through every affected conjunct;
* the FD fixpoint's delta is **semi-naive over integer ranges**: a
  per-relation row watermark marks everything appended since the last
  fixpoint dirty, plus the ids re-canonicalised by merges — cursors over
  append-only column segments instead of an object dirty-set;
* IND applications and *fast* TGDs (single trivial body atom, single
  head atom — every IND-expressible rule qualifies) share one pending
  heap keyed ``(level, node id, kind, dependency index)``, realising the
  policy's combined IND-vs-TGD competition
  ``(level, node-id tuple, kind, index)`` without the general trigger
  machinery.  General TGDs and all EGDs run through the shared
  :class:`SemiNaiveTriggerIndex` over a columnar
  :class:`TriggerStorage` whose values are interned ids.

The engine materialises real :class:`~repro.chase.chase_graph.ChaseNode`
objects — identical ids, levels, labels, terms, arcs, and trace events —
only when building the :class:`ChaseResult`, so the differential harness
certifies it against the legacy engine with a node-for-node
comparison, and everything downstream (containment, solver, service,
fleet, observability) sees only :class:`ChaseResult` objects.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.chase.chase_graph import ChaseGraph
from repro.chase.embedded_triggers import (
    EGDTrigger,
    SemiNaiveTriggerIndex,
    TGDTrigger,
    TriggerStorage,
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
from repro.chase.fd_chase import ConstantClash
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.term import NonDistinguishedVariable, Term, Variable


class _ColNode:
    """A chase node as the columnar core sees it: scalars, no Conjunct.

    Duck-types the slice of :class:`ChaseNode` the shared trigger
    machinery reads (``node_id``, ``relation``, ``level``, ``alive``) —
    terms travel separately, through the columnar :class:`TriggerStorage`.
    ``row`` is the node's row in its relation's column store; ``parent``
    is the *current* ordinary parent (merges redirect it), while the
    creation-time arc stays in the engine's arc arrays.
    """

    __slots__ = ("node_id", "relation", "level", "alive", "parent", "row",
                 "label")

    def __init__(self, node_id: int, relation: str, level: int,
                 parent: Optional[int], row: int):
        self.node_id = node_id
        self.relation = relation
        self.level = level
        self.alive = True
        self.parent = parent
        self.row = row
        # ChaseGraph.new_node relabels every conjunct to "n<id>", so the
        # label is a pure function of the id; formatted once — it is read
        # on every application the node sources.
        self.label = f"n{node_id}"


class _RelationStore:
    """One relation's facts as flat columns of term ids.

    ``columns[i][row]`` is the *raw* id written at insert time and is
    never rewritten — readers re-canonicalise through the union-find.
    ``postings[i]`` maps a canonical id to the live rows whose column
    ``i`` currently canonicalises to it; ``row_nodes[row]`` is the owning
    node id (ascending — rows are appended in creation order).
    """

    __slots__ = ("relation", "arity", "columns", "row_nodes", "postings")

    def __init__(self, relation: str, arity: int):
        self.relation = relation
        self.arity = arity
        self.columns: List[List[int]] = [[] for _ in range(arity)]
        self.row_nodes: List[int] = []
        self.postings: List[Dict[int, Set[int]]] = [{} for _ in range(arity)]


class _ColFdSpec:
    """An FD with resolved positions and an id-keyed determinant index."""

    __slots__ = ("fd", "order", "lhs_positions", "rhs_position", "buckets")

    def __init__(self, fd: FunctionalDependency, order: int,
                 lhs_positions: Tuple[int, ...], rhs_position: int):
        self.fd = fd
        self.order = order
        self.lhs_positions = lhs_positions
        self.rhs_position = rhs_position
        self.buckets: Dict[Tuple[int, ...], Set[int]] = {}


class _FastTgd:
    """A TGD the pending heap can carry: one trivial body atom (distinct
    variables, no constants) and one head atom.  Every IND-expressible
    rule qualifies, so mixed FD/IND workloads never touch the general
    trigger machinery at all.

    The head-satisfaction index mirrors the R-chase IND buckets: facts of
    the head relation meeting the head's constant and repeated-existential
    constraints are bucketed by their values at the frontier positions; a
    body fact's requirement is satisfied iff the bucket at its projected
    frontier values is non-empty.
    """

    __slots__ = ("global_index", "tgd", "body_relation", "head_relation",
                 "frontier_eqs", "const_eqs", "exist_groups",
                 "body_projection", "n_frontier", "head_template", "buckets")

    def __init__(self, global_index, tgd, body_relation, head_relation,
                 frontier_eqs, const_eqs, exist_groups, body_projection,
                 head_template):
        self.global_index = global_index
        self.tgd = tgd
        self.body_relation = body_relation
        self.head_relation = head_relation
        self.frontier_eqs = frontier_eqs        # (head position, frontier slot)
        self.const_eqs = const_eqs              # (head position, interned id)
        self.exist_groups = exist_groups        # repeated-existential positions
        self.body_projection = body_projection  # body position per frontier slot
        self.n_frontier = len(body_projection)
        self.head_template = head_template      # per head position, see builder
        #: Node ids per frontier-value key; a bare min id (not a set) when
        #: the engine runs with the flat satisfaction index.
        self.buckets: Dict[Tuple[int, ...], "int | Set[int]"] = {}

    def head_key(self, key: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
        """The frontier-value bucket key of a head-relation fact, or None
        when the fact cannot satisfy the head under any frontier values."""
        for position, constant in self.const_eqs:
            if key[position] != constant:
                return None
        for group in self.exist_groups:
            first = key[group[0]]
            for position in group:
                if key[position] != first:
                    return None
        slots: List[Optional[int]] = [None] * self.n_frontier
        for position, slot in self.frontier_eqs:
            value = key[position]
            held = slots[slot]
            if held is None:
                slots[slot] = value
            elif held != value:
                return None
        return tuple(slots)


class _ColumnarStorage(TriggerStorage):
    """Trigger storage over interned ids: a node's terms are its atom key."""

    __slots__ = ("_atom_keys", "_intern_term")

    def __init__(self, atom_keys: List[Tuple[int, ...]], intern):
        self._atom_keys = atom_keys
        self._intern_term = intern

    def terms_of(self, node) -> Sequence[int]:  # type: ignore[override]
        return self._atom_keys[node.node_id]

    def encode(self, term: Term) -> int:  # type: ignore[override]
        return self._intern_term(term)


class ColumnarChaseEngine:
    """Chase one query over interned integer ids (see the module docstring).

    Implements the identical deterministic policy as the other engines —
    the differential harness certifies all three node for node — while
    keeping Terms, Conjuncts, and NDV name strings off the hot path.
    """

    engine_name = "columnar"

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
        self._trace = ChaseTrace()
        self._statistics = ChaseStatistics()
        self._failed = False
        self._truncated = False
        self._failure_dependency: Optional[str] = None
        self._failure_live_conjuncts = 0

        # -- term interner + union-find (parallel arrays indexed by id) --
        self._intern_ids: Dict[Term, int] = {}
        self._terms: List[Optional[Term]] = []    # None while an NDV is lazy
        self._is_const: List[bool] = []
        self._sort_keys: List[Optional[tuple]] = []  # merge order; None = constant
        self._lazy: Dict[int, tuple] = {}  # id -> (serial, source, attr, level)
        self._next_serial = 0
        self._uf_parent: List[int] = []

        # -- columnar node state -----------------------------------------
        self._stores: Dict[str, _RelationStore] = {}
        self._views: List[_ColNode] = []
        self._atom_keys: List[Tuple[int, ...]] = []  # current canonical keys
        self._arc_parent: List[Optional[int]] = []   # creation-time arcs
        self._arc_via: List[object] = []
        self._children: Dict[int, List[int]] = {}    # keyed by arc source
        self._live_count = 0
        self._summary_ids: List[int] = []
        self._cross_arcs: List[Tuple[int, int, object]] = []
        self._result_graph: Optional[ChaseGraph] = None

        # -- dependency metadata -------------------------------------------
        self._ind_positions: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self._inds_by_source: Dict[str, List[int]] = {}
        self._inds_by_target: Dict[str, List[int]] = {}
        #: Per IND: (target relation, per-position source *key* position
        #: or None for a fresh NDV, per-position attribute name) — the
        #: new conjunct's recipe, resolved once.
        self._ind_templates: Dict[int, Tuple[str, Tuple[Optional[int], ...],
                                             Tuple[str, ...]]] = {}
        for index, ind in enumerate(self._inds):
            lhs = ind.lhs_positions(self._schema)
            rhs = ind.rhs_positions(self._schema)
            self._ind_positions[index] = (lhs, rhs)
            self._inds_by_source.setdefault(ind.lhs_relation, []).append(index)
            self._inds_by_target.setdefault(ind.rhs_relation, []).append(index)
            target = self._schema.relation(ind.rhs_relation)
            # Per target position: the *source key* position to copy from
            # (lhs and rhs positions pair up by list index), or None for
            # a fresh NDV.
            slots = tuple(lhs[rhs.index(position)] if position in rhs
                          else None
                          for position in range(target.arity))
            attrs = tuple(target.attribute_name_at(position)
                          for position in range(target.arity))
            self._ind_templates[index] = (ind.rhs_relation, slots, attrs)
        #: Per IND, its satisfaction index: rhs-value tuple → holder node
        #: ids (a set when merges can rewrite keys, the bare minimum id
        #: otherwise — see ``_flat_satisfied``).
        self._ind_satisfied: List[Dict[Tuple[int, ...], "int | Set[int]"]] = [
            {} for _ in self._inds]
        #: Per target relation, the (satisfaction dict, rhs positions)
        #: pairs its facts must be entered under — the per-fact indexing
        #: loop resolved once, dicts bound directly.
        self._ind_target_plans: Dict[
            str, Tuple[Tuple[Dict, Tuple[int, ...]], ...]] = {
            relation: tuple((self._ind_satisfied[index],
                             self._ind_positions[index][1])
                            for index in indexes)
            for relation, indexes in self._inds_by_target.items()}
        self._fd_specs_by_relation: Dict[str, List[_ColFdSpec]] = {}
        for fd in self._fds:
            relation = self._schema.relation(fd.relation)
            specs = self._fd_specs_by_relation.setdefault(fd.relation, [])
            specs.append(_ColFdSpec(fd, len(specs),
                                    fd.lhs_positions(relation),
                                    fd.rhs_position(relation)))

        # -- TGD split: heap-ridden fast rules vs trigger-index slow ones
        self._fast_by_global: Dict[int, _FastTgd] = {}
        self._fast_by_body_rel: Dict[str, List[int]] = {}
        self._fast_by_head_rel: Dict[str, List[_FastTgd]] = {}
        self._slow_tgds: List = []
        self._slow_global_index: List[int] = []
        for global_index, tgd in enumerate(self._tgds):
            plan = SemiNaiveTriggerIndex._rule_plan(tgd)
            if plan[5] and plan[2] is not None:
                fast = self._build_fast(global_index, tgd, plan)
                self._fast_by_global[global_index] = fast
                self._fast_by_body_rel.setdefault(
                    fast.body_relation, []).append(global_index)
                self._fast_by_head_rel.setdefault(
                    fast.head_relation, []).append(fast)
            else:
                self._slow_global_index.append(global_index)
                self._slow_tgds.append(tgd)

        #: Per source relation, the pending-heap (kind, dependency index)
        #: entries a new fact of that relation must enqueue — INDs first
        #: (kind 0), then fast TGDs (kind 1).
        self._pending_plans: Dict[str, Tuple[Tuple[int, int], ...]] = {}
        for relation in set(self._inds_by_source) | set(self._fast_by_body_rel):
            self._pending_plans[relation] = (
                tuple((0, index)
                      for index in self._inds_by_source.get(relation, ()))
                + tuple((1, global_index)
                        for global_index in
                        self._fast_by_body_rel.get(relation, ())))

        #: With no FDs and no EGDs, no symbol merge can ever fire, so the
        #: per-column postings (which exist purely to serve merges) and
        #: the FD delta bookkeeping are skipped entirely.
        self._can_merge = bool(self._fds or self._egds)
        #: Postings are built lazily at the *first* merge (when every cell
        #: is still canonical) and maintained incrementally afterwards, so
        #: runs whose FDs never fire pay nothing for the inverted index.
        self._postings_built = False
        #: The atom-key index only ever gets probed by duplicate checks
        #: (INDs/TGDs that mint no fresh NDV, slow multi-atom TGDs) and by
        #: the post-merge conjunct coalescing; when Σ admits none of
        #: those, skip maintaining it.
        self._needs_atom_index = (
            self._can_merge
            or bool(self._slow_tgds)
            or any(None not in slots
                   for _, slots, _ in self._ind_templates.values())
            or any(all(entry[0] != 2 for entry in fast.head_template)
                   for fast in self._fast_by_global.values()))

        # -- work queues and persistent indexes --------------------------
        #: (level, node id, kind, dependency index); kind 0 is an IND with
        #: its IND index, kind 1 a fast TGD with its *global* TGD index —
        #: heap order therefore IS the combined selection priority
        #: ``(level, (node id,), kind, index)``.
        self._pending: List[Tuple[int, int, int, int]] = []
        self._applied: Set[Tuple[int, int]] = set()       # O-chase (node, IND)
        self._applied_fast: Set[Tuple[int, int]] = set()  # O-chase (TGD, node)
        self._applied_tgds: Set[Tuple[int, Tuple[int, ...]]] = set()  # slow
        #: Satisfaction entries (``_ind_satisfied``, ``_FastTgd.buckets``)
        #: hold *sets* of node ids when merges can rewrite keys (removal
        #: needs the membership), but collapse to the single minimum id —
        #: first writer wins, ids are monotone — when Σ has no FDs/EGDs
        #: and keys are immortal.
        self._flat_satisfied = not self._can_merge
        self._atom_nodes: Dict[Tuple[str, Tuple[int, ...]], Set[int]] = {}
        self._duplicate_keys: Set[Tuple[str, Tuple[int, ...]]] = set()
        #: Semi-naive FD delta: per-FD-relation row watermark (rows at or
        #: past it were appended since the last fixpoint) plus the nodes
        #: re-canonicalised by merges — a semi-naive dirty set, as
        #: integer cursors over the append-only column segments.
        self._fd_watermarks: Dict[str, int] = {
            relation: 0 for relation in self._fd_specs_by_relation}
        self._fd_rewritten: Dict[int, None] = {}
        #: True iff some watermark may trail its segment end — the O(1)
        #: "is the delta empty" test that lets the (very frequent)
        #: nothing-new fixpoint calls return without scanning cursors.
        self._fd_dirty = False
        self._trigger_index: Optional[SemiNaiveTriggerIndex] = (
            SemiNaiveTriggerIndex(
                self._slow_tgds, self._egds, self._live_views,
                self._views_getitem, self._statistics,
                oblivious=self._config.variant is ChaseVariant.OBLIVIOUS,
                storage=_ColumnarStorage(self._atom_keys, self._intern))
            if (self._slow_tgds or self._egds) else None)

    # -- construction helpers --------------------------------------------------

    def _build_fast(self, global_index: int, tgd, plan) -> _FastTgd:
        frontier = plan[3]
        head = plan[2]
        frontier_eqs, raw_const_eqs, exist_groups = plan[6]
        const_eqs = tuple((position, self._intern(constant))
                          for position, constant in raw_const_eqs)
        body_atom = tgd.body[0]
        body_pos = {variable: position
                    for position, variable in enumerate(body_atom.terms)}
        body_projection = tuple(body_pos[variable] for variable in frontier)
        target = self._schema.relation(head.relation)
        #: (0, id, -): interned constant; (1, body position, -): copy the
        #: bound value; (2, variable, attribute): fresh NDV shared across
        #: the variable's occurrences.
        template: List[tuple] = []
        for position, term in enumerate(head.terms):
            if not isinstance(term, Variable):
                template.append((0, self._intern(term), None))
            elif term in body_pos:
                template.append((1, body_pos[term], None))
            else:
                template.append((2, term, target.attribute_name_at(position)))
        return _FastTgd(global_index, tgd, body_atom.relation, head.relation,
                        frontier_eqs, const_eqs, exist_groups,
                        body_projection, tuple(template))

    def _views_getitem(self, node_id: int) -> _ColNode:
        return self._views[node_id]

    def _live_views(self, relation: str) -> List[_ColNode]:
        """Live nodes of one relation in id order (trigger-search backing)."""
        store = self._stores.get(relation)
        if store is None:
            return []
        views = self._views
        return [views[node_id] for node_id in store.row_nodes
                if views[node_id].alive]

    def _dependency_str(self, dependency) -> str:
        # Memoised on the (frozen, immutable) dependency itself so the
        # rendering survives engine rebuilds over the same Σ.
        rendered = dependency.__dict__.get("_rendered")
        if rendered is None:
            rendered = str(dependency)
            object.__setattr__(dependency, "_rendered", rendered)
        return rendered

    # -- interner and union-find -----------------------------------------------

    def _intern(self, term: Term) -> int:
        """The dense id of a pre-existing term (constant, DV, query NDV)."""
        tid = self._intern_ids.get(term)
        if tid is None:
            tid = len(self._terms)
            self._intern_ids[term] = tid
            self._terms.append(term)
            if isinstance(term, Variable):
                self._is_const.append(False)
                self._sort_keys.append(term.sort_key())
            else:
                self._is_const.append(True)
                self._sort_keys.append(None)
            self._uf_parent.append(tid)
        return tid

    def _fresh_id(self, source_label: str, attribute: str, level: int) -> int:
        """A lazily-named fresh NDV: consume a serial, defer the Term.

        Serials are consumed in exactly the order the object engines'
        fresh factory consumes them (including on applications that then
        turn out redundant), so materialised names agree character for
        character.
        """
        serial = self._next_serial
        self._next_serial += 1
        tid = len(self._terms)
        self._terms.append(None)
        self._is_const.append(False)
        # Chase-created NDVs order by (rank 2, serial) — Variable.sort_key.
        self._sort_keys.append((2, serial))
        self._uf_parent.append(tid)
        self._lazy[tid] = (serial, source_label, attribute, level)
        return tid

    def _term(self, tid: int) -> Term:
        """Materialise the Term behind an id (the result-boundary step)."""
        term = self._terms[tid]
        if term is None:
            serial, source, attribute, level = self._lazy.pop(tid)
            term = NonDistinguishedVariable(
                name=f"n{serial}@{source}.{attribute}#L{level}",
                serial=(serial,), created=True)
            self._terms[tid] = term
        return term

    def _find(self, tid: int) -> int:
        """Canonical id under the union-find, with path compression."""
        self._statistics.union_find_finds += 1
        parent = self._uf_parent
        root = tid
        while parent[root] != root:
            root = parent[root]
        while parent[tid] != root:
            parent[tid], tid = root, parent[tid]
        return root

    def _resolve_merge_ids(self, first: int, second: int) -> Tuple[int, int]:
        """(survivor, loser) under the FD chase rule's merge policy, on ids.

        Mirrors :func:`repro.chase.fd_chase.resolve_merge`: two distinct
        constants clash, a constant beats a variable, and two variables
        order by ``sort_key`` (DVs before query NDVs before created NDVs).
        """
        if first == second:
            return first, second
        is_const = self._is_const
        if is_const[first]:
            if is_const[second]:
                raise ConstantClash(
                    f"cannot merge distinct constants {self._term(first)} "
                    f"and {self._term(second)}")
            return first, second
        if is_const[second]:
            return second, first
        sort_keys = self._sort_keys
        if sort_keys[first] <= sort_keys[second]:
            return first, second
        return second, first

    # -- public entry point ----------------------------------------------------

    @property
    def graph(self) -> ChaseGraph:
        """The chase graph, materialised on demand (``ChaseEngineProtocol``)."""
        if self._result_graph is not None:
            return self._result_graph
        return self._materialize_graph()

    @property
    def statistics(self) -> ChaseStatistics:
        """Work counters accumulated so far (the ``ChaseEngineProtocol`` surface)."""
        return self._statistics

    def run(self) -> ChaseResult:
        """Execute the chase until saturation, failure, or a budget limit."""
        return run_with_instrumentation(self)

    def _run(self) -> ChaseResult:
        self._summary_ids = [self._intern(term)
                             for term in self._query.summary_row]
        for conjunct in self._query.conjuncts:
            key = tuple(self._intern(term) for term in conjunct.terms)
            self._new_fact(conjunct.relation, key, level=0, parent=None,
                           via=None)

        steps_budget = self._config.max_steps
        hit_conjunct_budget = False
        while True:
            self._apply_equalities_to_fixpoint()
            if self._failed:
                break
            if (steps_budget is not None
                    and self._statistics.total_steps >= steps_budget):
                self._truncated = True
                break
            application = self._next_expansion()
            if application is None:
                break
            if self._live_count >= self._config.max_conjuncts:
                self._truncated = True
                hit_conjunct_budget = True
                break
            kind, payload = application
            if kind == "ind":
                self._apply_ind(*payload)
            elif kind == "fast":
                self._apply_fast_tgd(*payload)
            else:
                self._apply_tgd(payload)

        if self._config.variant is ChaseVariant.RESTRICTED and not self._failed:
            self._record_cross_arcs()

        self._statistics.interned_terms = len(self._terms)
        self._result_graph = self._materialize_graph()
        summary = tuple(self._term(self._find(tid))
                        for tid in self._summary_ids)
        saturated = not self._failed and not self._truncated
        return ChaseResult(
            query=self._query,
            variant=self._config.variant,
            graph=self._result_graph,
            summary_row=summary,
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

    # -- fact creation and index maintenance -----------------------------------

    def _new_fact(self, relation: str, key: Tuple[int, ...], level: int,
                  parent: Optional[int], via) -> _ColNode:
        """Append a fact to its column store and enter it everywhere."""
        node_id = len(self._views)
        store = self._stores.get(relation)
        if store is None:
            store = _RelationStore(relation,
                                   self._schema.relation(relation).arity)
            self._stores[relation] = store
        row = len(store.row_nodes)
        store.row_nodes.append(node_id)
        columns = store.columns
        if self._postings_built:
            # Postings exist to answer "which rows hold this id" during a
            # merge; until the first merge actually fires they are not
            # built at all (see _build_postings), then kept incremental.
            postings = store.postings
            for position, value in enumerate(key):
                columns[position].append(value)
                bucket = postings[position].get(value)
                if bucket is None:
                    postings[position][value] = {row}
                else:
                    bucket.add(row)
        else:
            for position, value in enumerate(key):
                columns[position].append(value)
        view = _ColNode(node_id, relation, level, parent, row)
        self._views.append(view)
        self._atom_keys.append(key)
        if relation in self._fd_watermarks:
            self._fd_dirty = True
        self._arc_parent.append(parent)
        self._arc_via.append(via)
        if parent is not None:
            self._children.setdefault(parent, []).append(node_id)
        self._live_count += 1
        self._index_key(view, key)
        pending = self._pending
        push = heapq.heappush
        for kind, dep_index in self._pending_plans.get(relation, ()):
            push(pending, (level, node_id, kind, dep_index))
        if self._trigger_index is not None:
            self._trigger_index.touch(view)
        return view

    def _index_key(self, view: _ColNode, key: Tuple[int, ...]) -> None:
        """Enter a node's current canonical key into the value indexes."""
        node_id = view.node_id
        relation = view.relation
        if self._needs_atom_index:
            atoms = self._atom_nodes.setdefault((relation, key), set())
            atoms.add(node_id)
            if len(atoms) > 1:
                self._duplicate_keys.add((relation, key))
        for spec in self._fd_specs_by_relation.get(relation, ()):
            spec.buckets.setdefault(
                tuple(key[position] for position in spec.lhs_positions),
                set()).add(node_id)
        targets = self._ind_target_plans.get(relation)
        flat = self._flat_satisfied
        if targets is not None:
            self._statistics.triggers_examined += len(targets)
            if flat:
                for satisfied, rhs_positions in targets:
                    satisfied.setdefault(
                        tuple([key[position] for position in rhs_positions]),
                        node_id)
            else:
                for satisfied, rhs_positions in targets:
                    vkey = tuple(
                        [key[position] for position in rhs_positions])
                    satisfied.setdefault(vkey, set()).add(node_id)
        for fast in self._fast_by_head_rel.get(relation, ()):
            hkey = fast.head_key(key)
            if hkey is not None:
                if flat:
                    fast.buckets.setdefault(hkey, node_id)
                else:
                    fast.buckets.setdefault(hkey, set()).add(node_id)

    def _unindex_key(self, view: _ColNode, key: Tuple[int, ...]) -> None:
        """Remove a node's current canonical key from the value indexes."""
        node_id = view.node_id
        relation = view.relation
        akey = (relation, key)
        atoms = self._atom_nodes.get(akey)
        if atoms is not None:
            atoms.discard(node_id)
            if len(atoms) < 2:
                self._duplicate_keys.discard(akey)
            if not atoms:
                del self._atom_nodes[akey]
        for spec in self._fd_specs_by_relation.get(relation, ()):
            values = tuple(key[position] for position in spec.lhs_positions)
            bucket = spec.buckets.get(values)
            if bucket is not None:
                bucket.discard(node_id)
                if not bucket:
                    del spec.buckets[values]
        for satisfied, rhs_positions in self._ind_target_plans.get(relation, ()):
            vkey = tuple(key[position] for position in rhs_positions)
            bucket = satisfied.get(vkey)
            if bucket is not None:
                bucket.discard(node_id)
                if not bucket:
                    del satisfied[vkey]
        for fast in self._fast_by_head_rel.get(relation, ()):
            hkey = fast.head_key(key)
            if hkey is not None:
                bucket = fast.buckets.get(hkey)
                if bucket is not None:
                    bucket.discard(node_id)
                    if not bucket:
                        del fast.buckets[hkey]

    def _first_atom_node(self, relation: str,
                         key: Tuple[int, ...]) -> Optional[int]:
        """The earliest-created live node holding exactly this atom."""
        bucket = self._atom_nodes.get((relation, key))
        if not bucket:
            return None
        return min(bucket)

    # -- FD/EGD phase ----------------------------------------------------------

    def _apply_equalities_to_fixpoint(self) -> None:
        """Step 1 of the policy, generalised: FDs to fixpoint, then EGDs."""
        self._apply_fds_to_fixpoint()
        while self._egds and not self._failed:
            trigger = self._trigger_index.next_egd_trigger()
            if trigger is None:
                return
            self._apply_egd(trigger)
            if not self._failed:
                self._apply_fds_to_fixpoint()

    def _apply_fds_to_fixpoint(self) -> None:
        """Apply the FD chase rule until no FD is applicable."""
        if not self._fds:
            return
        if not self._fd_dirty and not self._fd_rewritten:
            # Empty delta: no row appended past a watermark, no node
            # rewritten by a merge — nothing can have become applicable.
            return
        while not self._failed:
            found = self._find_applicable_fd()
            if found is None:
                self._clear_fd_delta()
                return
            spec, first_id, second_id = found
            self._apply_fd(spec, first_id, second_id)

    def _clear_fd_delta(self) -> None:
        """Advance every watermark to its segment end; forget the rewrites."""
        self._fd_dirty = False
        if self._fd_rewritten:
            self._fd_rewritten.clear()
        stores = self._stores
        watermarks = self._fd_watermarks
        for relation in watermarks:
            store = stores.get(relation)
            if store is not None:
                watermarks[relation] = len(store.row_nodes)

    def _iter_fd_dirty(self):
        """Node ids possibly newly FD-applicable: the delta row range of
        every FD-watched relation, then the merge-rewritten nodes."""
        for relation, watermark in self._fd_watermarks.items():
            store = self._stores.get(relation)
            if store is None:
                continue
            row_nodes = store.row_nodes
            for row in range(watermark, len(row_nodes)):
                yield row_nodes[row]
        yield from self._fd_rewritten

    def _find_applicable_fd(self):
        """Lexicographically first applicable (FD, pair of conjuncts).

        Probes only the delta — rows appended past the watermarks plus
        nodes rewritten by merges — against the determinant buckets:
        semi-naive FD discovery over integer cursors.
        Taking the global minimum over all candidates makes probe order
        (and the occasional double probe of a node that is both new and
        rewritten) irrelevant to the choice.
        """
        best = None
        views = self._views
        atom_keys = self._atom_keys
        statistics = self._statistics
        specs_by_relation = self._fd_specs_by_relation
        for node_id in self._iter_fd_dirty():
            view = views[node_id]
            if not view.alive:
                continue
            specs = specs_by_relation.get(view.relation)
            if not specs:
                continue
            key = atom_keys[node_id]
            for spec in specs:
                values = tuple(key[position] for position in spec.lhs_positions)
                bucket = spec.buckets.get(values)
                if bucket is None or len(bucket) < 2:
                    continue
                statistics.index_hits += 1
                own_rhs = key[spec.rhs_position]
                for other_id in bucket:
                    if other_id == node_id:
                        continue
                    statistics.triggers_examined += 1
                    if atom_keys[other_id][spec.rhs_position] == own_rhs:
                        continue
                    first_id, second_id = ((node_id, other_id)
                                           if node_id < other_id
                                           else (other_id, node_id))
                    candidate = (first_id, second_id, spec.order, spec)
                    if best is None or candidate[:3] < best[:3]:
                        best = candidate
        if best is None:
            return None
        return best[3], best[0], best[1]

    def _apply_fd(self, spec: _ColFdSpec, first_id: int,
                  second_id: int) -> None:
        fd = spec.fd
        atom_keys = self._atom_keys
        first_rhs = atom_keys[first_id][spec.rhs_position]
        second_rhs = atom_keys[second_id][spec.rhs_position]
        self._statistics.fd_steps += 1
        record = self._config.record_trace
        views = self._views
        try:
            survivor, loser = self._resolve_merge_ids(first_rhs, second_rhs)
        except ConstantClash:
            if record:
                self._trace.record(FDApplication(
                    dependency=fd, first_conjunct=views[first_id].label,
                    second_conjunct=views[second_id].label,
                    merged_away=None, survivor=None, halted=True))
            self._halt_on_clash(str(fd))
            return
        if record:
            self._trace.record(FDApplication(
                dependency=fd, first_conjunct=views[first_id].label,
                second_conjunct=views[second_id].label,
                merged_away=self._term(loser), survivor=self._term(survivor)))
        self._merge_ids(survivor, loser)
        self._merge_identical_conjuncts()

    def _apply_egd(self, trigger: EGDTrigger) -> None:
        """The EGD chase rule: merge the two equated symbols (FD semantics)."""
        self._statistics.egd_steps += 1
        labels = tuple(node.label for node in trigger.nodes)
        record = self._config.record_trace
        try:
            survivor, loser = self._resolve_merge_ids(trigger.first,
                                                      trigger.second)
        except ConstantClash:
            if record:
                self._trace.record(EGDApplication(
                    dependency=trigger.egd, conjuncts=labels,
                    merged_away=None, survivor=None, halted=True))
            self._halt_on_clash(str(trigger.egd))
            return
        if record:
            self._trace.record(EGDApplication(
                dependency=trigger.egd, conjuncts=labels,
                merged_away=self._term(loser), survivor=self._term(survivor)))
        self._merge_ids(survivor, loser)
        self._merge_identical_conjuncts()

    def _build_postings(self) -> None:
        """Populate every store's inverted postings from its raw cells.

        Runs exactly once, at the first merge.  No union has happened yet
        (unions only occur inside :meth:`_merge_ids`, after this), so the
        raw cells *are* the canonical ids and a plain scan suffices; from
        here on :meth:`_new_fact` keeps the postings incremental.
        """
        self._postings_built = True
        statistics = self._statistics
        views = self._views
        for store in self._stores.values():
            postings = store.postings
            statistics.column_probes += len(postings)
            for row, node_id in enumerate(store.row_nodes):
                if not views[node_id].alive:
                    continue
                for position, column in enumerate(store.columns):
                    value = column[row]
                    bucket = postings[position].get(value)
                    if bucket is None:
                        postings[position][value] = {row}
                    else:
                        bucket.add(row)

    def _merge_ids(self, survivor: int, loser: int) -> None:
        """Union ``loser`` into ``survivor`` and re-canonicalise holders.

        The postings say exactly which live rows hold the loser in which
        column; their nodes get a recomputed atom key (raw cells pushed
        through the union-find, which path-compresses earlier merge
        chains as a side effect) and are re-entered into every value
        index.  The raw column cells themselves are never rewritten.
        """
        if loser == survivor or self._is_const[loser]:
            return
        if not self._postings_built:
            self._build_postings()
        statistics = self._statistics
        statistics.union_find_unions += 1
        self._uf_parent[loser] = survivor
        affected: Set[int] = set()
        for store in self._stores.values():
            row_nodes = store.row_nodes
            for col_postings in store.postings:
                statistics.column_probes += 1
                rows = col_postings.pop(loser, None)
                if not rows:
                    continue
                target = col_postings.get(survivor)
                if target is None:
                    col_postings[survivor] = rows
                else:
                    target |= rows
                for row in rows:
                    affected.add(row_nodes[row])
        views = self._views
        atom_keys = self._atom_keys
        track_fds = bool(self._fds)
        find = self._find
        trigger_index = self._trigger_index
        for node_id in sorted(affected):
            # Postings track live rows only, so every holder is alive.
            view = views[node_id]
            self._unindex_key(view, atom_keys[node_id])
            store = self._stores[view.relation]
            row = view.row
            new_key = tuple(find(column[row]) for column in store.columns)
            atom_keys[node_id] = new_key
            self._index_key(view, new_key)
            if track_fds:
                self._fd_rewritten[node_id] = None
            if trigger_index is not None:
                trigger_index.touch(view)

    def _merge_identical_conjuncts(self) -> None:
        """Coalesce nodes whose keys collided after a merge (levelling rule)."""
        statistics = self._statistics
        views = self._views
        while self._duplicate_keys:
            key = self._duplicate_keys.pop()
            bucket = self._atom_nodes.get(key)
            if bucket is None or len(bucket) < 2:
                continue
            statistics.index_hits += 1
            ids = sorted(bucket)
            survivor = views[ids[0]]
            for retired_id in ids[1:]:
                retired = views[retired_id]
                if retired.level < survivor.level:
                    # The levelling rule lowers the survivor; its pending
                    # entries are keyed at the stale level, so push fresh
                    # ones (the stale entries are discarded on pop).
                    survivor.level = retired.level
                    pending = self._pending
                    for kind, dep_index in self._pending_plans.get(
                            survivor.relation, ()):
                        heapq.heappush(
                            pending,
                            (survivor.level, survivor.node_id, kind,
                             dep_index))
                for child_id in self._children.get(retired_id, ()):
                    views[child_id].parent = survivor.node_id
                self._retire_node(retired)
                self._fd_rewritten.pop(retired_id, None)
                statistics.merged_conjuncts += 1

    def _retire_node(self, view: _ColNode) -> None:
        """Mark a node dead, freezing its key and vacating its postings."""
        key = self._atom_keys[view.node_id]
        self._unindex_key(view, key)
        if self._postings_built:
            store = self._stores[view.relation]
            row = view.row
            for position, value in enumerate(key):
                postings = store.postings[position]
                bucket = postings.get(value)
                if bucket is not None:
                    bucket.discard(row)
                    if not bucket:
                        del postings[value]
        view.alive = False
        self._live_count -= 1

    def _halt_on_clash(self, dependency: str) -> None:
        """The paper's constant-clash case: record the prefix, empty the query."""
        self._failed = True
        self._failure_dependency = dependency
        self._failure_live_conjuncts = self._live_count
        for view in self._views:
            view.alive = False
        self._live_count = 0
        self._fd_dirty = False
        self._fd_rewritten.clear()
        stores = self._stores
        for relation in self._fd_watermarks:
            store = stores.get(relation)
            if store is not None:
                self._fd_watermarks[relation] = len(store.row_nodes)

    # -- IND/TGD phase ---------------------------------------------------------

    def _ind_requirement_satisfied(self, node_id: int, index: int) -> bool:
        """R-chase: is there already a conjunct c' with c'[Y] = c[X]?"""
        lhs_positions, _ = self._ind_positions[index]
        key = self._atom_keys[node_id]
        # `is not None`, not truthiness: a flat entry may be node id 0,
        # and set entries are deleted (never left empty) on unindexing.
        return self._ind_satisfied[index].get(
            tuple([key[position] for position in lhs_positions])) is not None

    def _peek_pending(self) -> Optional[Tuple[int, int, int, int]]:
        """The next needed heap entry, popped; the caller pushes it back
        when it decides not to apply it.

        Discarded entries are dead, stale-level (a merge lowered the node
        and pushed a fresh entry), already applied (O-chase), or already
        satisfied (R-chase) — all permanent conditions, so dropping them
        for good cannot deviate from the policy.
        """
        oblivious = self._config.variant is ChaseVariant.OBLIVIOUS
        pending = self._pending
        views = self._views
        statistics = self._statistics
        while pending:
            entry = heapq.heappop(pending)
            level, node_id, kind, dep_index = entry
            statistics.triggers_examined += 1
            view = views[node_id]
            if not view.alive:
                continue
            if level != view.level:
                continue
            if kind == 0:
                if oblivious:
                    if (node_id, dep_index) in self._applied:
                        continue
                elif self._ind_requirement_satisfied(node_id, dep_index):
                    statistics.index_hits += 1
                    continue
            else:
                if oblivious:
                    if (dep_index, node_id) in self._applied_fast:
                        continue
                else:
                    fast = self._fast_by_global[dep_index]
                    key = self._atom_keys[node_id]
                    values = tuple(key[position]
                                   for position in fast.body_projection)
                    if fast.buckets.get(values) is not None:
                        statistics.index_hits += 1
                        continue
            return entry
        return None

    def _next_expansion(self):
        """Step 2 of the policy: the minimum-priority creation application.

        The pending heap already holds the INDs and fast TGDs in combined
        priority order; only the slow (trigger-index) TGDs still compete
        through an actives scan.  The overall minimum is the same one the
        legacy engine's one-pool competition selects, so the chosen
        application — and with it every node id — agrees across engines.
        """
        entry = self._peek_pending()
        trigger = None
        if self._slow_tgds:
            actives = self._trigger_index.active_tgd_triggers(
                self._config.variant is ChaseVariant.OBLIVIOUS,
                self._applied_tgds)
            trigger = actives[0] if actives else None
        if entry is None and trigger is None:
            return None
        entry_priority = (None if entry is None
                          else (entry[0], (entry[1],), entry[2], entry[3]))
        tgd_priority = (None if trigger is None
                        else (trigger.level, trigger.node_ids, 1,
                              self._slow_global_index[trigger.index]))
        choose_entry = tgd_priority is None or (
            entry_priority is not None and entry_priority < tgd_priority)
        chosen_level = (entry_priority if choose_entry else tgd_priority)[0]
        if (self._config.max_level is not None
                and chosen_level + 1 > self._config.max_level):
            self._truncated = True
            if entry is not None:
                heapq.heappush(self._pending, entry)
            return None
        if choose_entry:
            if entry[2] == 0:
                return ("ind", (entry[1], entry[3]))
            return ("fast", (entry[3], entry[1]))
        if entry is not None:
            heapq.heappush(self._pending, entry)
        return ("tgd", trigger)

    def _apply_ind(self, node_id: int, index: int) -> None:
        """The IND chase rule: one new fact with lazily-named fresh NDVs."""
        ind = self._inds[index]
        view = self._views[node_id]
        key = self._atom_keys[node_id]
        relation, slots, attrs = self._ind_templates[index]
        new_level = view.level + 1
        self._applied.add((node_id, index))
        statistics = self._statistics
        record = self._config.record_trace

        source_label = view.label
        terms: List[int] = []
        fresh_ids: List[int] = []
        for slot, attribute in zip(slots, attrs):
            if slot is not None:
                terms.append(key[slot])
            else:
                fresh = self._fresh_id(source_label, attribute, new_level)
                terms.append(fresh)
                fresh_ids.append(fresh)
        candidate = tuple(terms)
        # A never-seen fresh id in the candidate makes a verbatim
        # duplicate impossible, so the probe is only needed when the IND
        # copies every column of the target.
        duplicate_id = (None if fresh_ids
                        else self._first_atom_node(relation, candidate))
        if duplicate_id is not None:
            duplicate = self._views[duplicate_id]
            statistics.redundant_ind_applications += 1
            statistics.index_hits += 1
            if record:
                self._trace.record(INDApplication(
                    dependency=ind, source_conjunct=view.label,
                    created_conjunct=None, existing_conjunct=duplicate.label,
                    level=duplicate.level))
            return

        created = self._new_fact(relation, candidate, new_level,
                                 parent=node_id, via=ind)
        statistics.ind_steps += 1
        if new_level > statistics.max_level_reached:
            statistics.max_level_reached = new_level
        if record:
            self._trace.record(INDApplication(
                dependency=ind, source_conjunct=view.label,
                created_conjunct=created.label, existing_conjunct=None,
                level=new_level,
                fresh_variables=tuple(self._term(tid) for tid in fresh_ids)))

    def _apply_fast_tgd(self, global_index: int, node_id: int) -> None:
        """A heap-carried TGD application: the IND rule's recipe, with the
        head template standing in for the IND's column mapping."""
        fast = self._fast_by_global[global_index]
        tgd = fast.tgd
        view = self._views[node_id]
        key = self._atom_keys[node_id]
        new_level = view.level + 1
        if self._config.variant is ChaseVariant.OBLIVIOUS:
            self._applied_fast.add((global_index, node_id))
        statistics = self._statistics
        record = self._config.record_trace

        fresh_by_variable: Dict[Variable, int] = {}
        fresh_ids: List[int] = []
        terms: List[int] = []
        for tag, payload, attribute in fast.head_template:
            if tag == 0:
                terms.append(payload)
            elif tag == 1:
                terms.append(key[payload])
            else:
                fresh = fresh_by_variable.get(payload)
                if fresh is None:
                    fresh = self._fresh_id(view.label, attribute, new_level)
                    fresh_by_variable[payload] = fresh
                    fresh_ids.append(fresh)
                terms.append(fresh)
        candidate = tuple(terms)
        created_labels: List[str] = []
        # Like the IND rule: a fresh id in the (single) head atom rules
        # out a verbatim duplicate without probing.
        if fresh_ids or self._first_atom_node(
                fast.head_relation, candidate) is None:
            created = self._new_fact(fast.head_relation, candidate, new_level,
                                     parent=node_id, via=tgd)
            created_labels.append(created.label)
            statistics.tgd_steps += 1
            if new_level > statistics.max_level_reached:
                statistics.max_level_reached = new_level
        else:
            statistics.index_hits += 1
            statistics.redundant_tgd_applications += 1
        if record:
            self._trace.record(TGDApplication(
                dependency=tgd, source_conjuncts=(view.label,),
                created_conjuncts=tuple(created_labels), level=new_level,
                fresh_variables=tuple(self._term(tid) for tid in fresh_ids)))

    def _apply_tgd(self, trigger: TGDTrigger) -> None:
        """A trigger-index TGD application (multi-atom body or head)."""
        tgd = trigger.tgd
        binding = trigger.binding_dict()
        new_level = trigger.level + 1
        oblivious = self._config.variant is ChaseVariant.OBLIVIOUS
        if oblivious:
            self._applied_tgds.add(trigger.applied_key)
        self._trigger_index.note_tgd_applied(trigger, oblivious)
        nodes = trigger.nodes
        parent = nodes[0]
        if len(nodes) > 1:
            level = trigger.level
            for node in nodes:
                if node.level == level:
                    parent = node
                    break

        statistics = self._statistics
        fresh_by_variable: Dict[Variable, int] = {}
        fresh_ids: List[int] = []
        created_labels: List[str] = []
        for atom in tgd.head:
            target = self._schema.relation(atom.relation)
            terms: List[int] = []
            for position, term in enumerate(atom.terms):
                if not isinstance(term, Variable):
                    terms.append(self._intern(term))
                elif term in binding:
                    terms.append(binding[term])
                else:
                    fresh = fresh_by_variable.get(term)
                    if fresh is None:
                        fresh = self._fresh_id(
                            parent.label, target.attribute_name_at(position),
                            new_level)
                        fresh_by_variable[term] = fresh
                        fresh_ids.append(fresh)
                    terms.append(fresh)
            candidate = tuple(terms)
            if self._first_atom_node(atom.relation, candidate) is not None:
                statistics.index_hits += 1
                continue
            created = self._new_fact(atom.relation, candidate, new_level,
                                     parent=parent.node_id, via=tgd)
            created_labels.append(created.label)
        if created_labels:
            statistics.tgd_steps += 1
            if new_level > statistics.max_level_reached:
                statistics.max_level_reached = new_level
        else:
            statistics.redundant_tgd_applications += 1
        if self._config.record_trace:
            self._trace.record(TGDApplication(
                dependency=tgd,
                source_conjuncts=tuple(node.label for node in trigger.nodes),
                created_conjuncts=tuple(created_labels),
                level=new_level,
                fresh_variables=tuple(self._term(tid) for tid in fresh_ids)))

    def _record_cross_arcs(self) -> None:
        """R-chase post-pass: cross arcs for satisfied requirements.

        Same rule as the legacy engine: for every live conjunct c and
        IND applicable to c whose required conjunct exists, a cross arc
        from c to the first such conjunct — unless c itself has an
        ordinary arc for that IND.
        """
        if not self._inds:
            return
        ordinary = set()
        arc_via = self._arc_via
        for node_id, parent in enumerate(self._arc_parent):
            if parent is not None:
                ordinary.add((parent, self._dependency_str(arc_via[node_id])))
        atom_keys = self._atom_keys
        cross = self._cross_arcs
        flat = self._flat_satisfied
        #: (satisfaction dict, ind, rendering, lhs positions) per source
        #: relation, resolved once instead of per live node.
        plans = {
            relation: tuple(
                (self._ind_satisfied[index], self._inds[index],
                 self._dependency_str(self._inds[index]),
                 self._ind_positions[index][0])
                for index in indexes)
            for relation, indexes in self._inds_by_source.items()}
        for view in self._views:
            if not view.alive:
                continue
            plan = plans.get(view.relation)
            if plan is None:
                continue
            node_id = view.node_id
            key = atom_keys[node_id]
            for satisfied, ind, rendering, lhs_positions in plan:
                if (node_id, rendering) in ordinary:
                    continue
                bucket = satisfied.get(
                    tuple([key[position] for position in lhs_positions]))
                if bucket is None:
                    target_id = None
                elif flat:
                    target_id = bucket
                else:
                    target_id = min(bucket)
                if target_id is not None and target_id != node_id:
                    cross.append((node_id, target_id, ind))

    # -- boundary materialisation ----------------------------------------------

    def _materialize_graph(self) -> ChaseGraph:
        """Build real ChaseNode objects from the columnar state.

        Nodes are created in id order with their creation-time arcs, then
        current parents are restored (merges redirect the children of a
        retired node), dead nodes are retired, and cross arcs appended —
        the same mutation order the object engines perform incrementally,
        so levels, histograms, and arc lists come out identical.
        """
        graph = ChaseGraph()
        term = self._term
        atom_keys = self._atom_keys
        arc_parent = self._arc_parent
        arc_via = self._arc_via
        for view in self._views:
            node_id = view.node_id
            # Pre-labelled with the id new_node is about to assign, so
            # with_label returns it unchanged instead of copying.
            conjunct = Conjunct(
                view.relation,
                tuple(map(term, atom_keys[node_id])),
                label=view.label)
            node = graph.new_node(conjunct, level=view.level,
                                  parent=arc_parent[node_id],
                                  via=arc_via[node_id])
            if view.parent != arc_parent[node_id]:
                node.parent = view.parent
        for view in self._views:
            if not view.alive:
                graph.retire_node(view.node_id)
        for source, target, ind in self._cross_arcs:
            graph.add_cross_arc(source, target, ind)
        return graph
