"""Unit tests for the chase engine: O-chase, R-chase, levels, budgets, graphs."""

import pytest

from repro.chase.engine import ChaseConfig, ChaseVariant, chase, o_chase, r_chase
from repro.dependencies.dependency_set import DependencySet
from repro.dependencies.functional import FunctionalDependency
from repro.dependencies.inclusion import InclusionDependency
from repro.exceptions import ChaseError
from repro.queries.builder import QueryBuilder


class TestChaseBasics:
    def test_saturating_chase_of_intro_example(self, intro):
        # Q2 = EMP(e, s, d); the IND adds one DEP conjunct and then stops.
        result = r_chase(intro.q2, intro.dependencies)
        assert result.saturated and not result.truncated and not result.failed
        assert len(result) == 2
        assert result.max_level() == 1
        relations = {c.relation for c in result.conjuncts()}
        assert relations == {"EMP", "DEP"}

    def test_chase_preserves_original_conjuncts_at_level_zero(self, intro):
        result = r_chase(intro.q2, intro.dependencies)
        level0 = result.graph.nodes_at_level(0)
        assert len(level0) == 1
        assert level0[0].conjunct.relation == "EMP"
        assert level0[0].is_root

    def test_chase_with_no_dependencies_is_identity(self, intro):
        result = r_chase(intro.q1, DependencySet(schema=intro.schema))
        assert result.saturated
        assert len(result) == len(intro.q1)
        chased_atoms = [(c.relation, c.terms) for c in result.conjuncts()]
        original_atoms = [(c.relation, c.terms) for c in intro.q1.conjuncts]
        assert chased_atoms == original_atoms

    def test_r_chase_already_satisfied_requirement_creates_nothing(self, intro):
        # Q1 already contains the DEP conjunct required for its EMP conjunct.
        result = r_chase(intro.q1, intro.dependencies)
        assert result.saturated
        assert len(result) == 2
        assert result.statistics.ind_steps == 0
        # The satisfied requirement is recorded as a cross arc.
        assert len(result.graph.cross_arcs()) == 1

    def test_o_chase_applies_even_when_satisfied(self, intro):
        result = o_chase(intro.q1, intro.dependencies)
        assert result.saturated
        # The oblivious chase creates a second DEP conjunct with a fresh NDV.
        assert len(result) == 3
        assert result.statistics.ind_steps == 1

    def test_as_query_roundtrip(self, intro):
        result = r_chase(intro.q2, intro.dependencies)
        chased_query = result.as_query()
        assert chased_query.summary_row == intro.q2.summary_row
        assert len(chased_query) == 2


class TestFigure1:
    def test_both_chases_are_infinite_and_truncate(self, figure1):
        for builder in (r_chase, o_chase):
            result = builder(figure1.query, figure1.dependencies, max_level=5)
            assert result.truncated and not result.saturated
            assert result.max_level() == 5

    def test_r_chase_level_structure_matches_figure(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=4)
        # Figure 1 (right side): level 1 has T(a,·) and S(a,c,·); every later
        # level alternates a single R or S conjunct.
        assert result.level_histogram() == {0: 1, 1: 2, 2: 1, 3: 1, 4: 1}
        level1_relations = {n.relation for n in result.graph.nodes_at_level(1)}
        assert level1_relations == {"T", "S"}

    def test_o_chase_grows_faster_than_r_chase(self, figure1):
        r_result = r_chase(figure1.query, figure1.dependencies, max_level=6)
        o_result = o_chase(figure1.query, figure1.dependencies, max_level=6)
        assert len(o_result) > len(r_result)

    def test_ordinary_arcs_increase_level_by_one(self, figure1):
        result = o_chase(figure1.query, figure1.dependencies, max_level=5)
        for arc in result.graph.ordinary_arcs():
            source = result.graph.node(arc.source)
            target = result.graph.node(arc.target)
            assert target.level == source.level + 1

    def test_cross_arcs_do_not_jump_forward(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=5)
        for arc in result.graph.cross_arcs():
            source = result.graph.node(arc.source)
            target = result.graph.node(arc.target)
            assert target.level <= source.level + 1

    def test_created_ndvs_are_globally_fresh(self, figure1):
        result = o_chase(figure1.query, figure1.dependencies, max_level=5)
        created_in_trace = [
            variable
            for application in result.trace.ind_applications()
            for variable in application.fresh_variables
        ]
        # Freshness: the factory never hands out the same NDV twice.
        assert len(created_in_trace) == len(set(created_in_trace))
        created_in_graph = {
            term
            for node in result.graph
            for term in node.conjunct.terms
            if getattr(term, "created", False)
        }
        assert created_in_graph == set(created_in_trace)

    def test_ancestor_chain_is_unique_path_to_root(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=4)
        deepest = max(result.graph, key=lambda n: n.level)
        ancestors = result.graph.ancestors(deepest.node_id)
        assert ancestors[-1].is_root
        assert [a.level for a in ancestors] == list(range(deepest.level - 1, -1, -1))

    def test_describe_renders_levels(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=3)
        text = result.describe()
        assert "level 0" in text and "level 3" in text
        assert "R-chase" in text


class TestBudgets:
    def test_conjunct_budget_flag(self, figure1):
        config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_conjuncts=3)
        result = chase(figure1.query, figure1.dependencies, config)
        assert result.truncated
        assert result.hit_conjunct_budget
        assert len(result) <= 3

    def test_level_budget_not_counted_as_conjunct_budget(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=2)
        assert result.truncated
        assert not result.hit_conjunct_budget

    def test_step_budget(self, figure1):
        config = ChaseConfig(variant=ChaseVariant.RESTRICTED, max_steps=2, max_conjuncts=100)
        result = chase(figure1.query, figure1.dependencies, config)
        assert result.truncated
        assert result.statistics.total_steps <= 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ChaseError):
            ChaseConfig(max_conjuncts=0)
        with pytest.raises(ChaseError):
            ChaseConfig(max_level=-1)

    def test_level_zero_budget_keeps_only_roots(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=0)
        assert len(result) == 1
        assert result.truncated


class TestChaseWithFDs:
    def test_key_based_chase_runs_fds_first(self, intro_key_based):
        schema = intro_key_based.schema
        q = (
            QueryBuilder(schema, "Q")
            .head("e")
            .atom("EMP", "e", "s1", "d")
            .atom("EMP", "e", "s2", "d2")
            .build()
        )
        result = r_chase(q, intro_key_based.dependencies)
        assert result.saturated
        assert result.statistics.fd_steps >= 2
        # After the FD phase the two EMP atoms merge; the IND then adds DEP.
        assert {c.relation for c in result.conjuncts()} == {"EMP", "DEP"}
        assert len(result.conjuncts()) == 2

    def test_failed_chase_on_constant_clash(self, intro_key_based):
        schema = intro_key_based.schema
        q = (
            QueryBuilder(schema, "Q")
            .head("e")
            .atom("EMP", "e", 100, "d")
            .atom("EMP", "e", 200, "d")
            .build()
        )
        result = r_chase(q, intro_key_based.dependencies)
        assert result.failed
        assert result.conjuncts() == []
        with pytest.raises(ChaseError):
            result.as_query()

    def test_section4_chase_is_infinite(self, section4):
        result = r_chase(section4.q1, section4.dependencies, max_level=6)
        assert result.truncated
        assert result.max_level() == 6
        # Levels alternate single R conjuncts along the chain R(x,y), R(y,·), ...
        assert all(count == 1 for count in result.level_histogram().values())

    def test_merged_conjuncts_keep_minimum_level(self, two_relation_schema):
        # The oblivious chase creates S(x, fresh) at level 1; the FD
        # S: b1 -> b2 then merges the fresh NDV with the original one, making
        # the created conjunct identical to the level-0 S atom.  The merged
        # conjunct must keep level 0 (the paper's levelling rule).
        sigma = DependencySet([
            InclusionDependency("R", ["a1"], "S", ["b1"]),
            FunctionalDependency("S", ["b1"], "b2"),
        ], schema=two_relation_schema)
        q = (
            QueryBuilder(two_relation_schema, "Q")
            .head("x")
            .atom("R", "x", "y")
            .atom("S", "x", "c")
            .build()
        )
        result = o_chase(q, sigma)
        assert result.saturated
        assert result.statistics.merged_conjuncts == 1
        assert len(result) == 2
        s_nodes = result.graph.nodes_for_relation("S")
        assert len(s_nodes) == 1
        assert s_nodes[0].level == 0


class TestEngineSelection:
    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ChaseError):
            ChaseConfig(engine="vectorised")

    def test_build_engine_honours_config(self, intro):
        from repro.chase.columnar import ColumnarChaseEngine
        from repro.chase.engine import build_engine
        from repro.chase.legacy_engine import LegacyChaseEngine
        columnar = build_engine(intro.q2, intro.dependencies,
                                ChaseConfig(engine="columnar"))
        legacy = build_engine(intro.q2, intro.dependencies,
                              ChaseConfig(engine="legacy"))
        assert isinstance(columnar, ColumnarChaseEngine)
        assert isinstance(legacy, LegacyChaseEngine)
        assert columnar.run().engine == "columnar"
        assert legacy.run().engine == "legacy"

    def test_environment_variable_sets_default(self, intro, monkeypatch):
        from repro.chase.engine import build_engine
        from repro.chase.registry import CHASE_ENGINE_ENV_VAR, resolve_engine_name
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "legacy")
        assert resolve_engine_name(None) == "legacy"
        result = build_engine(intro.q2, intro.dependencies, ChaseConfig()).run()
        assert result.engine == "legacy"
        # An explicit config still overrides the environment.
        assert resolve_engine_name("columnar") == "columnar"
        monkeypatch.setenv(CHASE_ENGINE_ENV_VAR, "nonsense")
        with pytest.raises(ChaseError):
            resolve_engine_name(None)


class TestStatisticsConsistency:
    def test_total_steps_matches_trace_length(self, figure1):
        # total_steps counts every recorded rule application, so it must
        # equal the trace length whenever the trace is on — including the
        # redundant IND applications the O-chase performs.
        for builder in (r_chase, o_chase):
            result = builder(figure1.query, figure1.dependencies, max_level=4)
            assert result.statistics.total_steps == len(result.trace)

    def test_redundant_o_chase_application_counted(self, two_relation_schema):
        # Both INDs copy every column of S, so the O-chase's second
        # application finds its conjunct already present: a redundant
        # application that must appear in total_steps and the trace alike.
        sigma = DependencySet([
            InclusionDependency("R", ["a1", "a2"], "S", ["b1", "b2"]),
            InclusionDependency("S", ["b1", "b2"], "S", ["b2", "b1"]),
        ], schema=two_relation_schema)
        q = (
            QueryBuilder(two_relation_schema, "Q")
            .head("x")
            .atom("R", "x", "x")
            .build()
        )
        result = o_chase(q, sigma)
        stats = result.statistics
        assert stats.redundant_ind_applications >= 1
        assert stats.ind_applications == stats.ind_steps + stats.redundant_ind_applications
        assert stats.total_steps == len(result.trace)
        assert len(result.trace.ind_applications()) == stats.ind_applications
        assert "redundant" in result.describe()

    def test_describe_reports_merges(self, two_relation_schema):
        sigma = DependencySet([
            InclusionDependency("R", ["a1"], "S", ["b1"]),
            FunctionalDependency("S", ["b1"], "b2"),
        ], schema=two_relation_schema)
        q = (
            QueryBuilder(two_relation_schema, "Q")
            .head("x")
            .atom("R", "x", "y")
            .atom("S", "x", "c")
            .build()
        )
        result = o_chase(q, sigma)
        assert result.statistics.merged_conjuncts == 1
        assert "1 merged conjunct" in result.describe()

    def test_work_counters_populated(self, figure1):
        result = r_chase(figure1.query, figure1.dependencies, max_level=4)
        assert result.statistics.triggers_examined > 0
        assert result.statistics.triggers_fired == result.statistics.total_steps
        assert result.statistics.triggers_examined >= result.statistics.triggers_fired
