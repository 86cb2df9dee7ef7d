"""A persistent signature index over a view catalog's bodies.

A view can only match into a chased query when every relation its body
mentions (at the right arity) appears among the chase's atoms, and every
constant its body pins at a position appears at that position in some
chase atom of the same relation.  For a production catalog of thousands
of LAV views over a wide schema, most views fail that test for any given
query — and the ``exhaustive`` oracle still pays a homomorphism search
per view to find out.

:class:`CatalogIndex` precomputes, once per catalog:

* per view, its **requirement signature** — the set of ``relation/arity``
  keys its body needs, plus its ``(relation, position, constant)``
  pins;
* an inverted ``relation/arity → views`` posting list.

:meth:`CatalogIndex.probe` then takes the chased atom set and returns
exactly the views whose requirements are satisfiable, touching only the
posting lists of relations actually present — views over absent
relations cost nothing.  The probe is sound, never complete: a surviving
view may still have no homomorphism; a pruned view provably has none.

Probing happens against the *chased* atoms, so EGD/FD-implied equalities
from Σ are already applied (key-merged constants are visible at their
merged positions) and coverage a raw-query index would miss is kept.

The ``bucketed`` rewriter, the production path, probes this index on
every search.  Indexes are built once per catalog fingerprint and shared
through the solver's rewrite plumbing (:meth:`repro.api.solver.Solver`
keeps a small fingerprint-keyed cache).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Set, Tuple

from repro.queries.conjunct import Conjunct
from repro.terms.term import Constant
from repro.views.view import ViewCatalog

__all__ = ["CatalogIndex", "build_catalog_index"]

#: A relation requirement: ``"REL/arity"`` — arity rides along so a view
#: over a same-named relation of different shape can never survive.
RelationKey = str

#: A constant pin: (relation key, position, constant type, constant repr).
ConstantKey = Tuple[str, int, str, str]


def _relation_key(relation: str, arity: int) -> RelationKey:
    return f"{relation}/{arity}"


def _constant_key(relation_key: RelationKey, position: int,
                  constant: Constant) -> ConstantKey:
    # Type name + repr keeps 1 and "1" distinct, mirroring term_signature.
    return (relation_key, position,
            type(constant.value).__name__, repr(constant.value))


class CatalogIndex:
    """The per-catalog signature index; build via :func:`build_catalog_index`."""

    __slots__ = ("view_names", "_required", "_constants", "_postings")

    def __init__(self, view_names: Tuple[str, ...],
                 required: Dict[str, FrozenSet[RelationKey]],
                 constants: Dict[str, Tuple[ConstantKey, ...]],
                 postings: Dict[RelationKey, Tuple[str, ...]]):
        self.view_names = view_names
        self._required = required
        self._constants = constants
        self._postings = postings

    def __len__(self) -> int:
        return len(self.view_names)

    def probe(self, chase_atoms: Sequence[Conjunct]) -> Set[str]:
        """Names of the views whose signature the chased atoms satisfy."""
        present: Set[RelationKey] = set()
        pinned: Set[ConstantKey] = set()
        for atom in chase_atoms:
            key = _relation_key(atom.relation, len(atom.terms))
            present.add(key)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    pinned.add(_constant_key(key, position, term))
        # Count posting hits; a view survives when every required
        # relation is present.  Views over absent relations are never
        # visited — the probe's cost scales with the chase, not the
        # catalog.
        hits: Dict[str, int] = {}
        for key in present:
            for name in self._postings.get(key, ()):
                hits[name] = hits.get(name, 0) + 1
        survivors = {
            name for name, count in hits.items()
            if count == len(self._required[name])
        }
        if not survivors:
            return survivors
        return {
            name for name in survivors
            if all(pin in pinned for pin in self._constants[name])
        }


def build_catalog_index(catalog: ViewCatalog) -> CatalogIndex:
    """Index every view body's relation/arity/constant signature."""
    required: Dict[str, FrozenSet[RelationKey]] = {}
    constants: Dict[str, Tuple[ConstantKey, ...]] = {}
    postings: Dict[RelationKey, List[str]] = {}
    names: List[str] = []
    for view in catalog:
        names.append(view.name)
        keys: Set[RelationKey] = set()
        pins: List[ConstantKey] = []
        for atom in view.definition.conjuncts:
            key = _relation_key(atom.relation, len(atom.terms))
            keys.add(key)
            for position, term in enumerate(atom.terms):
                if isinstance(term, Constant):
                    pins.append(_constant_key(key, position, term))
        required[view.name] = frozenset(keys)
        constants[view.name] = tuple(pins)
        for key in keys:
            postings.setdefault(key, []).append(view.name)
    return CatalogIndex(
        tuple(names), required, constants,
        {key: tuple(view_names) for key, view_names in postings.items()})
