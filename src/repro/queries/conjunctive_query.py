"""The :class:`ConjunctiveQuery` object.

Formally (Section 2 of the paper) a conjunctive query consists of an input
database scheme, an output relation scheme, a set of distinguished
variables, a set of nondistinguished variables, a set of distinct
conjuncts, and a summary row whose entries are DVs or constants.  This
module provides that object together with validation, substitution, and
the bookkeeping (symbol sets, sizes) the chase and containment procedures
need.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.exceptions import QueryError
from repro.relational.schema import DatabaseSchema
from repro.queries.conjunct import Conjunct
from repro.terms.substitution import Substitution
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Term, Variable


class ConjunctiveQuery:
    """A conjunctive query over a database schema.

    Parameters
    ----------
    input_schema:
        The database scheme the query is addressed to.
    conjuncts:
        The query's atoms.  Labels are made unique automatically (``c1``,
        ``c2``, ... in the given order) when duplicates occur, because the
        chase needs to refer to occurrences of conjuncts.
    summary_row:
        Entries are distinguished variables or constants; this is the row
        returned for every homomorphic embedding of the query.
    output_attributes:
        Names of the output relation scheme's columns; defaults to
        ``out1..outp``.
    name:
        Optional display name used in reports.
    """

    #: :func:`repro.api.fingerprints.query_fingerprint`'s memo.  A
    #: class-level default, so a query pickled before the memo existed
    #: unpickles into a working object.
    _fingerprint_memo = None

    def __init__(self, input_schema: DatabaseSchema,
                 conjuncts: Sequence[Conjunct],
                 summary_row: Sequence[Term],
                 output_attributes: Optional[Sequence[str]] = None,
                 name: str = "Q"):
        self._input_schema = input_schema
        self._name = name
        self._summary_row = tuple(summary_row)
        self._conjuncts = self._normalise_conjuncts(conjuncts)
        self._output_attributes = self._normalise_output(output_attributes)
        self._validate()

    # -- construction helpers ------------------------------------------------

    def _normalise_conjuncts(self, conjuncts: Sequence[Conjunct]) -> Tuple[Conjunct, ...]:
        conjuncts = list(conjuncts)
        if not conjuncts:
            raise QueryError("a conjunctive query must have at least one conjunct")
        seen_labels: Set[str] = set()
        normalised: List[Conjunct] = []
        counter = 0
        for conjunct in conjuncts:
            label = conjunct.label
            needs_fresh = not label or label in seen_labels or label == conjunct.relation
            if needs_fresh:
                counter += 1
                label = f"c{counter}"
                while label in seen_labels:
                    counter += 1
                    label = f"c{counter}"
            if label in seen_labels:
                raise QueryError(f"duplicate conjunct label {label!r}")
            seen_labels.add(label)
            normalised.append(conjunct.with_label(label))
        return tuple(normalised)

    def _normalise_output(self, output_attributes: Optional[Sequence[str]]) -> Tuple[str, ...]:
        if output_attributes is None:
            return tuple(f"out{i}" for i in range(1, len(self._summary_row) + 1))
        attributes = tuple(output_attributes)
        if len(attributes) != len(self._summary_row):
            raise QueryError(
                f"output scheme has {len(attributes)} attributes but the summary row "
                f"has {len(self._summary_row)} entries"
            )
        return attributes

    def _validate(self) -> None:
        for conjunct in self._conjuncts:
            if conjunct.relation not in self._input_schema:
                raise QueryError(
                    f"conjunct {conjunct} refers to relation {conjunct.relation!r} "
                    f"which is not in the input schema"
                )
            expected = self._input_schema.relation(conjunct.relation).arity
            if conjunct.arity != expected:
                raise QueryError(
                    f"conjunct {conjunct} has arity {conjunct.arity}, "
                    f"but relation {conjunct.relation!r} has arity {expected}"
                )
        body_variables = {
            term
            for conjunct in self._conjuncts
            for term in conjunct.terms
            if isinstance(term, (DistinguishedVariable, NonDistinguishedVariable))
        }
        for entry in self._summary_row:
            if isinstance(entry, Constant):
                continue
            if isinstance(entry, NonDistinguishedVariable):
                raise QueryError(
                    f"summary row entry {entry} is a nondistinguished variable; "
                    "summary entries must be distinguished variables or constants"
                )
            if isinstance(entry, DistinguishedVariable):
                if entry not in body_variables:
                    raise QueryError(
                        f"summary row variable {entry} does not occur in any conjunct "
                        "(the query would be unsafe)"
                    )
                continue
            raise QueryError(f"summary row entry {entry!r} is not a term")

    # -- identity / rendering --------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def input_schema(self) -> DatabaseSchema:
        return self._input_schema

    @property
    def conjuncts(self) -> Tuple[Conjunct, ...]:
        return self._conjuncts

    @property
    def summary_row(self) -> Tuple[Term, ...]:
        return self._summary_row

    @property
    def output_attributes(self) -> Tuple[str, ...]:
        return self._output_attributes

    @property
    def output_arity(self) -> int:
        return len(self._summary_row)

    def __len__(self) -> int:
        """Number of conjuncts (the |Q| used in the paper's bounds)."""
        return len(self._conjuncts)

    def __iter__(self) -> Iterator[Conjunct]:
        return iter(self._conjuncts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return (
            self._summary_row == other._summary_row
            and set(self._conjuncts) == set(other._conjuncts)
            and self._input_schema == other._input_schema
        )

    def __hash__(self) -> int:
        return hash((self._summary_row, frozenset(self._conjuncts)))

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self._summary_row)
        body = ", ".join(str(c) for c in self._conjuncts)
        return f"{self._name}({head}) :- {body}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ConjunctiveQuery {self}>"

    # -- symbol bookkeeping ------------------------------------------------------

    def symbols(self) -> Set[Term]:
        """All symbols (variables and constants) occurring in the query."""
        result: Set[Term] = set(self._summary_row)
        for conjunct in self._conjuncts:
            result.update(conjunct.symbols())
        return result

    def variables(self) -> Set[Variable]:
        """All variables occurring in the conjuncts or the summary row."""
        return {t for t in self.symbols() if isinstance(t, Variable)}

    def distinguished_variables(self) -> Set[DistinguishedVariable]:
        return {t for t in self.variables() if isinstance(t, DistinguishedVariable)}

    def nondistinguished_variables(self) -> Set[Variable]:
        return {t for t in self.variables() if not isinstance(t, DistinguishedVariable)}

    def constants(self) -> Set[Constant]:
        return {t for t in self.symbols() if isinstance(t, Constant)}

    def conjuncts_for(self, relation: str) -> Tuple[Conjunct, ...]:
        """The conjuncts associated with one relation."""
        return tuple(c for c in self._conjuncts if c.relation == relation)

    def conjunct_by_label(self, label: str) -> Conjunct:
        for conjunct in self._conjuncts:
            if conjunct.label == label:
                return conjunct
        raise QueryError(f"query has no conjunct labelled {label!r}")

    def relations_used(self) -> Set[str]:
        return {c.relation for c in self._conjuncts}

    def is_boolean(self) -> bool:
        """True if the summary row contains only constants."""
        return all(isinstance(t, Constant) for t in self._summary_row)

    # -- transformation ------------------------------------------------------------

    def substitute(self, substitution: Substitution, name: Optional[str] = None) -> "ConjunctiveQuery":
        """Apply a substitution to every conjunct and to the summary row.

        Distinguished variables mapped to other variables or constants are
        allowed (this is exactly what the FD chase rule does to the summary
        row), so the result may have constants where DVs used to be.
        """
        new_conjuncts = [c.substitute(substitution) for c in self._conjuncts]
        new_summary = substitution.apply_tuple(self._summary_row)
        return ConjunctiveQuery(
            input_schema=self._input_schema,
            conjuncts=new_conjuncts,
            summary_row=new_summary,
            output_attributes=self._output_attributes,
            name=name or self._name,
        )

    def with_conjuncts(self, conjuncts: Sequence[Conjunct], name: Optional[str] = None) -> "ConjunctiveQuery":
        """Same interface (schema, summary, output) over a different body."""
        return ConjunctiveQuery(
            input_schema=self._input_schema,
            conjuncts=conjuncts,
            summary_row=self._summary_row,
            output_attributes=self._output_attributes,
            name=name or self._name,
        )

    def without_conjunct(self, label: str, name: Optional[str] = None) -> "ConjunctiveQuery":
        """Drop the conjunct with the given label (used by minimization)."""
        remaining = [c for c in self._conjuncts if c.label != label]
        if len(remaining) == len(self._conjuncts):
            raise QueryError(f"query has no conjunct labelled {label!r}")
        if not remaining:
            raise QueryError("cannot drop the last conjunct of a query")
        return self.with_conjuncts(remaining, name=name)

    def renamed(self, name: str) -> "ConjunctiveQuery":
        """Same query with a different display name."""
        return ConjunctiveQuery(
            input_schema=self._input_schema,
            conjuncts=self._conjuncts,
            summary_row=self._summary_row,
            output_attributes=self._output_attributes,
            name=name,
        )

    # -- interface compatibility -----------------------------------------------------

    def same_interface_as(self, other: "ConjunctiveQuery") -> bool:
        """True if containment between the two queries is well-posed.

        The paper requires equal input schemes and equal output schemes;
        we check the input schema and the output arity (column naming is
        cosmetic).
        """
        return (
            self._input_schema == other._input_schema
            and self.output_arity == other.output_arity
        )

    def require_same_interface(self, other: "ConjunctiveQuery") -> None:
        if not self.same_interface_as(other):
            raise QueryError(
                f"queries {self._name} and {other._name} do not have the same "
                "input/output interface; containment is not well-posed"
            )

    # -- sizes used by the paper's bounds ----------------------------------------------

    def size(self) -> int:
        """|Q|: the number of conjuncts."""
        return len(self._conjuncts)

    def total_symbol_occurrences(self) -> int:
        """Total number of term occurrences (a finer size measure)."""
        return sum(c.arity for c in self._conjuncts) + len(self._summary_row)
