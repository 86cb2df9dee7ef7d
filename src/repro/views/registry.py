"""The rewriter table: one name → factory map for candidate generation.

Two rewriters propose candidates for the rewrite pipeline; the chase,
certification, and ranking stages around them are shared, so the choice
changes cost, never which rewritings are proved equivalent:

* ``bucketed`` (the default) — the production generator: a
  :class:`~repro.views.index.CatalogIndex` prunes views whose body
  relations (or constants) cannot occur in the chased query before any
  homomorphism search, and candidates grow only through per-subgoal
  buckets (see :mod:`repro.views.buckets`);
* ``exhaustive`` — the original enumeration, kept verbatim as the
  reference oracle: every view is matched and every image subset up to
  the combination-size budget is tried.  The differential tests and the
  E22 benchmark reach it through
  ``rewrite_with_views(..., strategy="exhaustive")``; nothing else
  selects it.

The factories import :mod:`repro.views.rewriting` on first use, so this
module imports nothing heavy.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.exceptions import ViewError

__all__ = [
    "DEFAULT_REWRITE_STRATEGY",
    "available_rewriters",
    "create_rewriter",
    "resolve_rewriter_name",
    "validate_rewriter_name",
]

#: The rewriter used when the caller names none.
DEFAULT_REWRITE_STRATEGY = "bucketed"


def _bucketed():
    from repro.views.rewriting import BucketedRewriter
    return BucketedRewriter()


def _exhaustive():
    from repro.views.rewriting import ExhaustiveRewriter
    return ExhaustiveRewriter()


#: Rewriters carry per-search counters, so each search gets a fresh one.
_REWRITERS: Dict[str, Callable[[], object]] = {
    "bucketed": _bucketed,
    "exhaustive": _exhaustive,
}


def available_rewriters() -> Tuple[str, ...]:
    """The rewriter names, production rewriter first."""
    return tuple(_REWRITERS)


def validate_rewriter_name(name: str) -> str:
    """Check ``name`` against the table; the error lists the known names."""
    if name not in _REWRITERS:
        raise ViewError(
            f"unknown rewrite strategy {name!r}; "
            f"known strategies: {', '.join(repr(n) for n in _REWRITERS)}")
    return name


def resolve_rewriter_name(name: Optional[str] = None) -> str:
    """The rewriter ``name`` selects; ``None`` means the default."""
    return validate_rewriter_name(name or DEFAULT_REWRITE_STRATEGY)


def create_rewriter(name: Optional[str] = None):
    """A fresh rewriter instance for one search."""
    return _REWRITERS[resolve_rewriter_name(name)]()
