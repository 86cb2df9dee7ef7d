"""The chase-engine table: one name → factory map behind every layer.

Two engines implement the Section 3 chase:

* ``columnar`` (the default) — the interned-term production core,
  :class:`~repro.chase.columnar.ColumnarChaseEngine`;
* ``legacy`` — the seed's scan-and-rebuild implementation,
  :class:`~repro.chase.legacy_engine.LegacyChaseEngine`, kept as the
  reference oracle the differential suites certify columnar against.

:func:`resolve_engine_name` is the single resolver every config layer
goes through — ``None`` falls back to ``$REPRO_CHASE_ENGINE`` and then
to :data:`DEFAULT_CHASE_ENGINE` — and :func:`validate_engine_name` the
single validator, whose error lists the known names.  The factories
import their engine module on first use, so this module imports nothing
heavy and ``repro.chase.engine`` can import it without a cycle.
"""

from __future__ import annotations

import os
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.exceptions import ChaseError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.chase.chase_graph import ChaseGraph
    from repro.chase.engine import ChaseConfig, ChaseResult, ChaseStatistics
    from repro.dependencies.dependency_set import DependencySet
    from repro.queries.conjunctive_query import ConjunctiveQuery

#: Environment override for the process-wide default engine, read when a
#: config leaves ``engine=None``.  CI uses it to run the whole suite under
#: every implementation.
CHASE_ENGINE_ENV_VAR = "REPRO_CHASE_ENGINE"

#: The engine used when neither the config nor the environment picks one.
DEFAULT_CHASE_ENGINE = "columnar"


@runtime_checkable
class ChaseEngineProtocol(Protocol):
    """The contract every chase engine satisfies.

    An engine is constructed per ``(query, dependencies, config)`` by its
    factory and exposes:

    ``engine_name``
        The name it is listed under (stamped into ``ChaseResult.engine``,
        metrics labels, and trace spans).
    ``run()``
        Executes the chase once and returns a
        :class:`~repro.chase.engine.ChaseResult`.
    ``graph`` / ``statistics``
        The level-ordered node snapshot and work counters backing the
        result — materialized :class:`~repro.chase.chase_graph.ChaseGraph`
        nodes regardless of the engine's internal representation.
    """

    engine_name: str

    def run(self) -> "ChaseResult": ...

    @property
    def graph(self) -> "ChaseGraph": ...

    @property
    def statistics(self) -> "ChaseStatistics": ...


def _columnar(query: "ConjunctiveQuery", dependencies: "DependencySet",
              config: "ChaseConfig") -> ChaseEngineProtocol:
    from repro.chase.columnar import ColumnarChaseEngine
    return ColumnarChaseEngine(query, dependencies, config)


def _legacy(query: "ConjunctiveQuery", dependencies: "DependencySet",
            config: "ChaseConfig") -> ChaseEngineProtocol:
    from repro.chase.legacy_engine import LegacyChaseEngine
    return LegacyChaseEngine(query, dependencies, config)


_ENGINES: Dict[str, Callable[..., ChaseEngineProtocol]] = {
    "columnar": _columnar,
    "legacy": _legacy,
}


def available_engines() -> Tuple[str, ...]:
    """The engine names, production engine first."""
    return tuple(_ENGINES)


def validate_engine_name(name: str) -> str:
    """Check ``name`` against the table; the one shared validator.

    ``ChaseConfig.__post_init__``, ``SolverConfig``, and the resolver all
    funnel through here, so the error message — which lists the known
    names — cannot drift between layers.
    """
    if name not in _ENGINES:
        raise ChaseError(
            f"unknown chase engine {name!r}; "
            f"registered engines: {', '.join(repr(n) for n in _ENGINES)}")
    return name


def resolve_engine_name(name: Optional[str] = None) -> str:
    """The concrete engine a config selects.

    ``None`` falls back to ``$REPRO_CHASE_ENGINE`` and then to
    :data:`DEFAULT_CHASE_ENGINE`; unknown names raise.
    """
    resolved = name or os.environ.get(CHASE_ENGINE_ENV_VAR) or DEFAULT_CHASE_ENGINE
    return validate_engine_name(resolved)


def create_engine(name: str, query: "ConjunctiveQuery",
                  dependencies: "DependencySet",
                  config: "ChaseConfig") -> ChaseEngineProtocol:
    """Instantiate the engine listed under ``name``."""
    return _ENGINES[validate_engine_name(name)](query, dependencies, config)
