"""MiniCon-style buckets: structured candidate growth for the backchase.

This is the production candidate generator (the ``bucketed`` rewriter).
The ``exhaustive`` oracle tries every subset of the matched view images
up to the combination-size budget — |images| choose k candidates, blind
to whether a combination can possibly improve on its parts.  Buckets
(Pottinger & Halevy, VLDB J. 2001) organise the images *per query
subgoal*: for each level-0 chase atom, the images whose coverage
includes it.  Candidate combinations then grow only in ways that can
matter:

* an image joins a combination only when it **covers a subgoal the
  combination has not covered yet**, or **exposes a variable of an
  already-covered subgoal** (the projection-recovery case: a view that
  re-covers atoms another view already replaced can still be essential
  when it exposes a join variable the other view projected away);
* a combination is emitted only when it respects **head-variable
  safety**: every variable shared between a covered subgoal and the
  rest of the candidate (uncovered atoms or the summary row) must be
  exposed by some view atom — otherwise the expansion freshens that
  variable away and certification cannot succeed.

Both rules trade exhaustiveness for scale; the seeded differential
sweeps over key-based and embedded (TGD/EGD) Σ — bucketed against the
exhaustive oracle, same best cost — are the empirical certificate, the
way the chase engines are certified against the legacy oracle.
Combinations are enumerated smallest-first in the images' sort order,
mirroring the oracle's candidate order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from repro.queries.conjunct import Conjunct
from repro.terms.term import Term, Variable

__all__ = ["BucketStatistics", "build_buckets", "iter_bucket_combinations"]


@dataclass
class BucketStatistics:
    """Counters the bucketed rewriter reports back into the pipeline."""

    buckets: int = 0
    combos_emitted: int = 0
    combos_pruned_unsafe: int = 0


def build_buckets(images: Sequence, base_conjuncts: Sequence[Conjunct],
                  ) -> Dict[str, Tuple[int, ...]]:
    """Per-subgoal buckets: base-atom label → positions of covering images."""
    buckets: Dict[str, List[int]] = {
        conjunct.label: [] for conjunct in base_conjuncts}
    for position, image in enumerate(images):
        for label in image.covered_labels:
            members = buckets.get(label)
            if members is not None:
                members.append(position)
    return {label: tuple(members) for label, members in buckets.items()}


def _variables(terms: Sequence[Term]) -> FrozenSet[Variable]:
    return frozenset(term for term in terms if isinstance(term, Variable))


def iter_bucket_combinations(images: Sequence,
                             buckets: Dict[str, Tuple[int, ...]],
                             base_conjuncts: Sequence[Conjunct],
                             summary_row: Sequence[Term],
                             max_combination_size: int,
                             statistics: BucketStatistics,
                             ) -> Iterator[Tuple]:
    """Yield image combinations worth certifying, smallest first.

    Combinations are index-increasing tuples over ``images`` (which the
    pipeline has already sorted most-covering-first): size-1 combinations
    are every image, and a size-k combination extends a size-(k-1) one
    with a later image that either covers a new subgoal or exposes a
    variable of an already-covered one.  Unsafe combinations (linking
    variable not exposed) are counted, not yielded — but they still
    grow, because a later image can expose the missing variable.
    """
    atom_variables = {
        conjunct.label: _variables(conjunct.terms)
        for conjunct in base_conjuncts}
    summary_variables = _variables(summary_row)
    image_variables = [_variables(image.atom.terms) for image in images]
    # Inverted postings: which images expose a given variable.  Drives
    # the projection-recovery extension rule.
    exposing: Dict[Variable, List[int]] = {}
    for position, variables in enumerate(image_variables):
        for variable in variables:
            exposing.setdefault(variable, []).append(position)

    # (indices, covered labels, covered-atom variables, exposed variables)
    Level = List[Tuple[Tuple[int, ...], FrozenSet[str], FrozenSet[Variable],
                       FrozenSet[Variable]]]
    current: Level = [
        (
            (position,),
            images[position].covered_labels,
            frozenset().union(*(
                atom_variables[label]
                for label in images[position].covered_labels)),
            image_variables[position],
        )
        for position in range(len(images))
    ]
    size = 1
    while current:
        for indices, covered, covered_variables, exposed in current:
            outside: Set[Variable] = set(summary_variables)
            for label, variables in atom_variables.items():
                if label not in covered:
                    outside |= variables
            if (covered_variables & outside) <= exposed:
                statistics.combos_emitted += 1
                yield tuple(images[position] for position in indices)
            else:
                statistics.combos_pruned_unsafe += 1
        if size >= max_combination_size:
            break
        next_level: Level = []
        for indices, covered, covered_variables, exposed in current:
            last = indices[-1]
            candidates: Set[int] = set()
            for label, members in buckets.items():
                if label not in covered:
                    candidates.update(
                        member for member in members if member > last)
            for variable in covered_variables:
                candidates.update(
                    member for member in exposing.get(variable, ())
                    if member > last)
            for position in sorted(candidates):
                grown_covered = covered | images[position].covered_labels
                grown_variables = covered_variables.union(*(
                    atom_variables[label]
                    for label in images[position].covered_labels))
                next_level.append((
                    indices + (position,),
                    grown_covered,
                    grown_variables,
                    exposed | image_variables[position],
                ))
        current = next_level
        size += 1
