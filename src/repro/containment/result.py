"""The result object returned by every containment test."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.exceptions import ContainmentUndecided
from repro.memo import WireMemo


@dataclass
class ContainmentResult(WireMemo):
    """Outcome of testing ``Σ ⊨ Q ⊆∞ Q'``.

    Results may be shared across calls by a solver's cross-call cache, so
    treat them (including the ``homomorphism`` mapping) as immutable; copy
    before annotating.  Certificates are exempt — a result carrying one is
    never served from a cache precisely so the certificate can be mutated.

    Attributes
    ----------
    holds:
        The procedure's answer.  Meaningful on its own only when
        ``certain`` is True.
    certain:
        True when the answer is exact (always the case for the paper's
        decidable classes unless a size budget was exhausted first).
    method:
        Which procedure produced the answer (``"chandra-merlin"``,
        ``"fd-chase"``, ``"bounded-chase"``, ``"failed-chase"``).
    reason:
        One-line human-readable justification.
    levels_built / chase_size:
        Size of the (partial) chase the decision inspected.
    level_bound:
        The Theorem 2 bound that was in force (None for the FD-only and
        dependency-free procedures).
    homomorphism:
        The witnessing containment mapping when ``holds`` is True (symbols
        of Q' to symbols of the chase of Q).
    certificate:
        A :class:`~repro.containment.certificates.ContainmentCertificate`
        when one was requested.
    """

    holds: bool
    certain: bool
    method: str
    reason: str = ""
    levels_built: int = 0
    chase_size: int = 0
    level_bound: Optional[int] = None
    homomorphism: Optional[Dict[Any, Any]] = None
    certificate: Optional[Any] = None

    def __bool__(self) -> bool:
        """Truthiness is the (certain) answer; raises if uncertain.

        This keeps ``if is_contained(...):`` honest: an uncertain result
        never silently converts to False.
        """
        if not self.certain:
            raise ContainmentUndecided(
                f"containment undecided ({self.reason}); "
                "inspect .holds/.certain explicitly or raise the budgets"
            )
        return self.holds

    def require_certain(self) -> "ContainmentResult":
        """Raise :class:`ContainmentUndecided` unless the answer is exact."""
        if not self.certain:
            raise ContainmentUndecided(self.reason)
        return self

    def describe(self) -> str:
        verdict = "holds" if self.holds else "does not hold"
        certainty = "" if self.certain else " (UNCERTAIN)"
        bound = f", level bound {self.level_bound}" if self.level_bound is not None else ""
        return (
            f"containment {verdict}{certainty} by {self.method}: {self.reason} "
            f"[chase: {self.chase_size} conjuncts, {self.levels_built} levels{bound}]"
        )
