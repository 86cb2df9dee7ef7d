"""Containment via the bounded chase (Theorem 2).

For Σ that is IND-only or key-based, ``Σ ⊨ Q ⊆∞ Q'`` iff there is a
homomorphism from Q' into the (possibly infinite) chase of Q (Theorem 1),
and by Lemma 5 it suffices to look for one whose image lies within the
first ``|Q'| · |Σ| · (W + 1)^W`` levels.  The procedure therefore chases Q
level by level up to that bound (iterative deepening, so cheap positive
answers are found on shallow prefixes), testing for a homomorphism after
each stage:

* a homomorphism found → contained (with the mapping as witness);
* the chase saturates with no homomorphism → not contained;
* the level bound is reached with no homomorphism → not contained for the
  decidable classes (exact by Lemma 5), "unknown" for general Σ;
* the conjunct budget is exhausted first → "unknown" (raise the budget).

For general Σ (arbitrary FD/IND mixes, or embedded TGDs/EGDs) whose
chase the weak-acyclicity analysis certifies finite, the caller passes
``assume_terminating=True`` and the schedule deepens past the Theorem 2
bound until the chase saturates, restoring exact verdicts.

For Σ containing FDs the R-chase is used, which by Lemma 2 performs all
its FD applications up front when Σ is key-based; if that initial FD phase
fails on a constant clash, Q is empty on every Σ-database and containment
holds vacuously.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.chase.engine import ChaseConfig, ChaseResult, ChaseVariant, chase
from repro.containment.bounds import theorem2_level_bound
from repro.containment.certificates import build_certificate
from repro.containment.result import ContainmentResult
from repro.dependencies.dependency_set import DependencySet
from repro.homomorphism.query_homomorphism import build_target_index, find_query_homomorphism
from repro.queries.conjunctive_query import ConjunctiveQuery

#: Builds (or fetches from a cache) the chase of a query under a config.
ChaseFn = Callable[[ConjunctiveQuery, DependencySet, ChaseConfig], ChaseResult]


def _deepening_schedule(bound: int, start: int = 2) -> List[int]:
    """Levels at which to (re)build the chase and test for a homomorphism.

    Doubling schedule capped at the Theorem 2 bound; the total work is
    dominated by the deepest chase built, so the early, cheap stages are
    effectively free and catch the common case of shallow witnesses.
    """
    levels: List[int] = []
    level = min(max(start, 1), bound)
    while True:
        levels.append(level)
        if level >= bound:
            break
        level = min(level * 2, bound)
    return levels


def contained_under_bounded_chase(query: ConjunctiveQuery,
                                  query_prime: ConjunctiveQuery,
                                  dependencies: DependencySet,
                                  variant: ChaseVariant = ChaseVariant.RESTRICTED,
                                  level_bound: Optional[int] = None,
                                  max_conjuncts: int = 20_000,
                                  exact: bool = True,
                                  record_trace: bool = False,
                                  with_certificate: bool = False,
                                  deepening: bool = True,
                                  chase_fn: Optional[ChaseFn] = None,
                                  engine: Optional[str] = None,
                                  assume_terminating: bool = False,
                                  saturation_level_cap: Optional[int] = None) -> ContainmentResult:
    """The Theorem 2 decision procedure (sound semi-decision for general Σ).

    Parameters
    ----------
    variant:
        Which chase to build; Theorem 1 holds for both, the R-chase is
        smaller and is the default.
    level_bound:
        Override for the Theorem 2 bound (used by the level-bound
        benchmark); ``None`` computes ``|Q'|·|Σ|·(W+1)^W``.
    max_conjuncts:
        Hard size budget per chase construction.
    exact:
        Whether reaching the level bound without a homomorphism may be
        reported as a certain "no" (True for IND-only / key-based Σ; the
        dispatcher passes False for general Σ).
    with_certificate:
        Attach a verifiable :class:`ContainmentCertificate` to positive
        answers (the Theorem 2 "short proof").
    deepening:
        Use the iterative-deepening schedule (default).  With ``False`` the
        chase is built straight to the level bound in one shot — the
        ablation benchmarked in experiment E13.
    chase_fn:
        How to obtain the chase of Q for a given config.  A
        :class:`~repro.api.solver.Solver` passes its caching chase here so
        chase prefixes are shared across containment questions; ``None``
        uses the module-level :func:`~repro.chase.engine.chase`.
    engine:
        Which chase implementation to build with (``"columnar"`` /
        ``"legacy"``); ``None`` uses the process default.  The verdict is
        engine-independent — the differential harness asserts exactly
        that — but the knob lets it ask both sides the same question.
    assume_terminating:
        The caller certified (e.g. by weak acyclicity) that the chase of
        Q under Σ is finite.  The level schedule then ignores the
        Theorem 2 bound and deepens until the chase *saturates*, so every
        answer short of the conjunct budget is exact — this is how
        general weakly-acyclic Σ gets decision-procedure semantics.
    saturation_level_cap:
        Ceiling on the certified deepening; reaching it without
        saturation falls back to the uncertain-negative bound answer.
        Shared services set it so one tenant's deeply-saturating Σ
        cannot monopolise a worker.  Ignored without
        ``assume_terminating``.
    """
    query.require_same_interface(query_prime)
    bound = level_bound if level_bound is not None else theorem2_level_bound(query_prime, dependencies)
    build_chase = chase_fn if chase_fn is not None else chase

    last_chase: Optional[ChaseResult] = None

    def attempt(level: Optional[int]) -> Optional[ContainmentResult]:
        """One chase-and-test stage; a result ends the search."""
        nonlocal last_chase
        config = ChaseConfig(variant=variant, max_level=level,
                             max_conjuncts=max_conjuncts, record_trace=record_trace,
                             engine=engine)
        chase_result = build_chase(query, dependencies, config)
        last_chase = chase_result

        if chase_result.failed:
            clashed = chase_result.failure_dependency or "a dependency"
            return ContainmentResult(
                holds=True, certain=True, method="failed-chase",
                reason=f"the chase of Q is inconsistent: applying {clashed} "
                       "clashed two distinct constants; Q is empty on every "
                       "database obeying Σ",
                levels_built=chase_result.statistics.max_level_reached,
                chase_size=chase_result.failure_live_conjuncts,
                level_bound=bound,
            )

        conjuncts = chase_result.conjuncts()
        mapping = find_query_homomorphism(
            query_prime.conjuncts, query_prime.summary_row,
            conjuncts, chase_result.summary_row,
            target_index=build_target_index(conjuncts),
        )
        if mapping is not None:
            certificate = None
            if with_certificate:
                certificate = build_certificate(
                    query, query_prime, dependencies, chase_result, mapping)
            within = (f"the first {level} levels" if level is not None
                      else "the saturated chase")
            return ContainmentResult(
                holds=True, certain=True, method="bounded-chase",
                reason=f"homomorphism from Q' into {within} of the "
                       f"{variant.value}-chase of Q",
                levels_built=chase_result.max_level(), chase_size=len(conjuncts),
                level_bound=bound, homomorphism=mapping, certificate=certificate,
            )
        if chase_result.saturated:
            return ContainmentResult(
                holds=False, certain=True, method="bounded-chase",
                reason="the chase saturated (it is the complete chase) and admits "
                       "no homomorphism from Q'",
                levels_built=chase_result.max_level(), chase_size=len(conjuncts),
                level_bound=bound,
            )
        if chase_result.hit_conjunct_budget:
            return ContainmentResult(
                holds=False, certain=False, method="bounded-chase",
                reason=f"chase size budget of {max_conjuncts} conjuncts exhausted at "
                       f"level {chase_result.max_level()} before the level bound {bound}",
                levels_built=chase_result.max_level(), chase_size=len(conjuncts),
                level_bound=bound,
            )
        return None

    exhausted_at = bound
    if assume_terminating:
        # Termination is certified, so there is no bound to respect: the
        # doubling schedule runs until the chase saturates (or fails, or
        # maps Q', or exhausts the conjunct budget — all of which return).
        # Without deepening the chase is built in one shot — unbounded,
        # or straight to the cap when one is set.  Reaching the cap
        # without saturating falls through to the uncertain answer.
        cap = saturation_level_cap
        level: Optional[int] = ((2 if cap is None else min(2, cap))
                                if deepening else cap)
        while True:
            result = attempt(level)
            if result is not None:
                return result
            assert level is not None, "an unbounded chase stage always concludes"
            if cap is not None and level >= cap:
                exhausted_at = cap
                break
            level = level * 2 if cap is None else min(level * 2, cap)
    else:
        schedule = _deepening_schedule(bound) if deepening else [bound]
        for level in schedule:
            result = attempt(level)
            if result is not None:
                return result

    assert last_chase is not None
    return ContainmentResult(
        holds=False, certain=exact, method="bounded-chase",
        reason=(
            f"no homomorphism from Q' within the Theorem 2 level bound {bound}"
            if exact else
            f"no homomorphism from Q' within level {exhausted_at}; Σ is outside "
            "the paper's decidable classes so deeper levels could still matter"
        ),
        levels_built=last_chase.max_level(), chase_size=len(last_chase.conjuncts()),
        level_bound=bound,
    )
