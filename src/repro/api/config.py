"""The unified tuning surface for every Johnson–Klug procedure.

Historically each entry point re-declared the same tuning keywords
(``variant``, ``level_bound``, ``max_conjuncts``, ``record_trace``,
``with_certificate``, ``deepening``) with per-module defaults.
:class:`SolverConfig` gathers them in one frozen dataclass whose defaults
mirror the legacy keyword defaults exactly, adds the session-level knobs
(cache sizes, batch parallelism), and is the only configuration object a
:class:`~repro.api.solver.Solver` reads.

The config is immutable so it can participate in cache keys; derive
variations with :meth:`SolverConfig.derive`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.chase.engine import ChaseConfig, ChaseVariant, resolve_engine_name, validate_engine_name
from repro.exceptions import ReproError
from repro.views.registry import resolve_rewriter_name, validate_rewriter_name

#: The executors ``Solver.solve_many`` understands.
EXECUTORS = ("serial", "thread", "process")

#: The legacy keyword names every containment entry point used to take,
#: in their historical order.  ``SolverConfig`` has one field per name
#: with an identical default; tests assert this stays true.
LEGACY_CONTAINMENT_KWARGS = (
    "variant", "level_bound", "max_conjuncts",
    "record_trace", "with_certificate", "deepening",
)


@dataclass(frozen=True)
class SolverConfig:
    """Every tuning knob of the containment/chase/optimization stack.

    Containment knobs (defaults mirror the legacy ``is_contained``):

    variant:
        Which chase the bounded procedure builds (R-chase by default).
    level_bound:
        Override for the Theorem 2 level bound; ``None`` computes it.
    max_conjuncts:
        Chase size budget used by containment decisions.
    record_trace:
        Record the chase application trace during containment decisions.
    with_certificate:
        Attach verifiable certificates to positive containment answers.
    deepening:
        Use the iterative-deepening level schedule.
    certify_termination:
        For Σ outside the paper's decidable classes (general FD/IND
        mixes and embedded TGD/EGD sets), run the weak-acyclicity
        termination analysis and, when it certifies a finite R-chase,
        deepen to saturation for an *exact* verdict instead of the
        uncertain-negative bound semantics.  Only applies to the
        R-chase (the O-chase of general TGDs may diverge even for
        weakly acyclic Σ).
    saturation_level_cap:
        Ceiling on how deep the termination-certified deepening may go;
        reaching it without saturating returns an uncertain negative,
        exactly like hitting the Theorem 2 bound for uncertified Σ.
        ``None`` (the default) deepens until saturation or the conjunct
        budget.  The service sets this from its ``ServiceLimits`` so one
        tenant's deeply-saturating Σ cannot monopolise a shard.

    Stand-alone chase knobs (defaults mirror ``repro.chase.chase``):

    chase_max_level / chase_max_conjuncts / chase_max_steps /
    chase_record_trace:
        Budgets for :class:`~repro.api.requests.ChaseRequest` runs and the
        legacy ``chase()`` wrapper.

    Engine selection (applies to every chase this solver builds,
    including the ones inside containment decisions and view rewriting):

    chase_engine:
        ``"columnar"`` (the interned-integer columnar core, the
        default) or ``"legacy"`` (the seed scan-and-rebuild engine, kept
        as the differential test harness's oracle).  ``None`` defers to
        the ``REPRO_CHASE_ENGINE`` environment variable and then to
        ``"columnar"``.

    View-rewriting knobs (used by :meth:`Solver.rewrite`):

    rewrite_max_images:
        Cap on the number of view images collected from the chase.
    rewrite_max_combination_size:
        Most view atoms a candidate rewriting may combine.
    rewrite_max_candidates:
        Cap on the number of candidates submitted for certification.
    rewrite_chase_level:
        Chase depth for view matching; ``None`` sizes it from the
        catalog's largest view body.
    rewrite_strategy:
        Any name in the rewriter registry: ``"exhaustive"`` (the
        certified reference — every view matched, all image subsets
        tried) or ``"bucketed"`` (MiniCon-style: a signature index
        prunes views before matching and candidates grow through
        per-subgoal buckets; the catalog-scale strategy).  ``None``
        defers to ``$REPRO_REWRITE_STRATEGY`` and then to
        ``"exhaustive"``.

    Session knobs:

    containment_cache_size / chase_cache_size / rewrite_cache_size:
        LRU capacities for the cross-call result, chase, and rewrite
        caches (``0`` disables the cache).
    persistent_cache_path:
        SQLite file mirroring the three caches to disk (``None``
        disables persistence).  The file may be shared: sibling worker
        processes pointed at one path warm each other, and a restarted
        process starts warm.  Not part of any cache key — persistence
        changes where answers live, never what they are.
    parallelism:
        Default worker count for ``solve_many`` (``None`` = sequential).
    executor:
        ``"serial"``, ``"thread"``, or ``"process"``.
    """

    variant: ChaseVariant = ChaseVariant.RESTRICTED
    level_bound: Optional[int] = None
    max_conjuncts: int = 20_000
    record_trace: bool = False
    with_certificate: bool = False
    deepening: bool = True
    certify_termination: bool = True
    saturation_level_cap: Optional[int] = None

    chase_max_level: Optional[int] = None
    chase_max_conjuncts: int = 5_000
    chase_max_steps: Optional[int] = None
    chase_record_trace: bool = True
    chase_engine: Optional[str] = None

    rewrite_max_images: int = 64
    rewrite_max_combination_size: int = 2
    rewrite_max_candidates: int = 256
    rewrite_chase_level: Optional[int] = None
    rewrite_strategy: Optional[str] = None

    containment_cache_size: int = 1_024
    chase_cache_size: int = 256
    rewrite_cache_size: int = 256
    persistent_cache_path: Optional[str] = None
    parallelism: Optional[int] = None
    executor: str = "thread"

    def __post_init__(self) -> None:
        if isinstance(self.variant, str):
            # Accept the enum values "R"/"O" as shorthand.
            object.__setattr__(self, "variant", ChaseVariant(self.variant))
        if self.max_conjuncts <= 0:
            raise ReproError("max_conjuncts must be positive")
        if self.chase_max_conjuncts <= 0:
            raise ReproError("chase_max_conjuncts must be positive")
        if self.level_bound is not None and self.level_bound < 0:
            raise ReproError("level_bound must be non-negative")
        if self.saturation_level_cap is not None and self.saturation_level_cap <= 0:
            raise ReproError("saturation_level_cap must be positive (or None)")
        if (self.containment_cache_size < 0 or self.chase_cache_size < 0
                or self.rewrite_cache_size < 0):
            raise ReproError("cache sizes must be non-negative")
        if (self.rewrite_max_images <= 0 or self.rewrite_max_combination_size <= 0
                or self.rewrite_max_candidates <= 0):
            raise ReproError("rewrite budgets must be positive")
        if self.rewrite_chase_level is not None and self.rewrite_chase_level < 0:
            raise ReproError("rewrite_chase_level must be non-negative")
        if self.chase_engine is not None:
            # One validator, shared with ChaseConfig: the registry's.
            # ChaseError is a ReproError, so callers catching the facade
            # exception keep working.
            validate_engine_name(self.chase_engine)
        if self.rewrite_strategy is not None:
            # Same arrangement for the rewriter registry (ViewError is a
            # ReproError too).
            validate_rewriter_name(self.rewrite_strategy)
        if self.parallelism is not None and self.parallelism <= 0:
            raise ReproError("parallelism must be positive (or None for sequential)")
        if self.executor not in EXECUTORS:
            raise ReproError(
                f"unknown executor {self.executor!r}; expected one of {EXECUTORS}")

    # -- derivation ----------------------------------------------------------

    def derive(self, **changes) -> "SolverConfig":
        """A copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_legacy_kwargs(self, **kwargs) -> "SolverConfig":
        """Apply legacy containment keyword arguments as overrides.

        Unknown keywords raise, exactly as they would have on the old
        function signatures.
        """
        unknown = set(kwargs) - set(LEGACY_CONTAINMENT_KWARGS)
        if unknown:
            raise TypeError(
                f"unexpected containment option(s): {', '.join(sorted(unknown))}")
        return self.derive(**kwargs) if kwargs else self

    # -- projections ---------------------------------------------------------

    def containment_key(self) -> Tuple:
        """The fields that can change a containment answer (cache key part).

        The chase engine is part of the key so a differential harness
        running both engines against one solver never shares answers
        between them; ``None`` is resolved first so an explicit
        ``"columnar"`` and the default hit the same entries.
        """
        return (self.variant, self.level_bound, self.max_conjuncts,
                self.record_trace, self.with_certificate, self.deepening,
                self.certify_termination, self.saturation_level_cap,
                resolve_engine_name(self.chase_engine))

    def rewrite_key(self) -> Tuple:
        """The fields that can change a rewrite report (cache key part).

        Includes the containment key (certification goes through the
        containment procedure) and the matching chase's conjunct budget.
        """
        return self.containment_key() + (
            self.chase_max_conjuncts,
            self.rewrite_max_images,
            self.rewrite_max_combination_size,
            self.rewrite_max_candidates,
            self.rewrite_chase_level,
            # Resolved, like the chase engine: an explicit "exhaustive"
            # and the default share entries, and strategies never share
            # each other's reports.
            resolve_rewriter_name(self.rewrite_strategy),
        )

    def chase_config(self, max_level: Optional[int] = None) -> ChaseConfig:
        """A :class:`ChaseConfig` for stand-alone chase runs.

        ``max_level`` overrides ``chase_max_level`` when given (the legacy
        ``r_chase``/``o_chase`` wrappers pass it explicitly).
        """
        return ChaseConfig(
            variant=self.variant,
            max_level=self.chase_max_level if max_level is None else max_level,
            max_conjuncts=self.chase_max_conjuncts,
            max_steps=self.chase_max_steps,
            record_trace=self.chase_record_trace,
            engine=self.chase_engine,
        )
