"""Canonical fingerprints for queries and schemas.

The solver's cross-call caches need keys that are (a) stable across
processes, (b) insensitive to incidental object identity, and (c) exactly
as fine-grained as query equality: two :class:`ConjunctiveQuery` objects
that compare equal (same schema, same summary row, same *set* of labelled
conjuncts — conjunct order is immaterial) must fingerprint identically,
and unequal queries must not collide in practice.

Terms are rendered with a kind tag so a constant ``"x"``, a distinguished
variable ``x``, and a nondistinguished variable ``x`` stay distinct.

Schema, query and catalog digests are memoised on the fingerprinted
object, because a service fingerprints the same few tenant objects on
every request.  Each memo is guarded by the identity of the memoised
:meth:`~repro.relational.schema.DatabaseSchema.signature` tuples it was
derived from (a catalog's guard also lists its views): adding a relation
to a schema replaces its signature, so a digest taken before the change
is recomputed, never served stale.
"""

from __future__ import annotations

import hashlib
import operator
from typing import Optional, Tuple

from repro.dependencies.dependency_set import DependencySet
from repro.queries.conjunct import Conjunct
from repro.queries.conjunctive_query import ConjunctiveQuery
from repro.relational.schema import DatabaseSchema
from repro.terms.term import Constant, DistinguishedVariable, NonDistinguishedVariable, Term


def term_signature(term: Term) -> str:
    if isinstance(term, Constant):
        return f"c:{type(term.value).__name__}:{term.value!r}"
    if isinstance(term, DistinguishedVariable):
        return f"dv:{term.name}"
    if isinstance(term, NonDistinguishedVariable):
        return f"ndv:{term.name}:{term.serial!r}:{term.created}"
    return f"t:{term!r}"


def conjunct_signature(conjunct: Conjunct) -> str:
    terms = ",".join(term_signature(term) for term in conjunct.terms)
    return f"{conjunct.label}|{conjunct.relation}({terms})"


def _stamp(schema: Optional[DatabaseSchema]) -> Optional[Tuple]:
    """A schema's memoised signature: its version stamp for the guards."""
    return schema.signature() if schema is not None else None


def _schema_texts(schema: DatabaseSchema) -> Tuple[str, str]:
    """(signature text, digest) of a schema, memoised on the schema."""
    signature = schema.signature()
    memo = schema._fingerprint_memo
    if memo is not None and memo[0] is signature:
        return memo[1]
    text = ";".join(f"{name}({','.join(attributes)})"
                    for name, attributes in signature)
    texts = (text, hashlib.sha256(text.encode("utf-8")).hexdigest())
    schema._fingerprint_memo = (signature, texts)
    return texts


def schema_signature(schema: Optional[DatabaseSchema]) -> str:
    if schema is None:
        return "-"
    return _schema_texts(schema)[0]


def schema_fingerprint(schema: Optional[DatabaseSchema]) -> str:
    """A stable digest of a schema's relations and attribute names.

    Together with :func:`dependency_fingerprint` this identifies a
    *tenant* for the service layer's shard routing: requests over the
    same (schema, Σ) land on the same shard, whose caches stay hot for
    exactly that tenant's chases and answers.
    """
    if schema is None:
        return hashlib.sha256(b"-").hexdigest()
    return _schema_texts(schema)[1]


def query_fingerprint(query: ConjunctiveQuery) -> str:
    """A stable digest of a query's content (name-insensitive).

    The display name is excluded (renaming a query does not change what it
    computes); everything equality looks at is included, with conjuncts
    sorted so insertion order cannot split the cache.
    """
    schema = query.input_schema
    stamp = _stamp(schema)
    memo = query._fingerprint_memo
    if memo is not None and memo[0] is stamp:
        return memo[1]
    payload = "\n".join((
        schema_signature(schema),
        ",".join(term_signature(term) for term in query.summary_row),
        "\n".join(sorted(conjunct_signature(c) for c in query.conjuncts)),
    ))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    query._fingerprint_memo = (stamp, digest)
    return digest


def dependency_fingerprint(dependencies: Optional[DependencySet]) -> str:
    """Fingerprint of Σ; the empty / absent set has a fixed digest."""
    if dependencies is None:
        return DependencySet().fingerprint()
    return dependencies.fingerprint()


def view_fingerprint(view) -> str:
    """Digest of one view: its name plus its defining query's content.

    The name is included — unlike a query's display name it is semantic,
    because rewritings contain atoms over it.
    """
    payload = f"{view.name}\n{query_fingerprint(view.definition)}"
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def catalog_fingerprint(catalog) -> str:
    """Digest of a view catalog (insertion-order insensitive).

    Keys the solver's rewrite cache together with the query and Σ
    fingerprints; two catalogs holding the same views over the same base
    schema fingerprint identically.
    """
    base_schema = catalog.base_schema
    guard = [_stamp(base_schema)]
    for view in catalog:
        guard += (view, _stamp(view.base_schema))
    memo = catalog._fingerprint_memo
    if (memo is not None and len(memo[0]) == len(guard)
            and all(map(operator.is_, memo[0], guard))):
        return memo[1]
    payload = "\n".join((
        schema_signature(base_schema),
        "\n".join(sorted(view_fingerprint(view) for view in catalog)),
    ))
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    catalog._fingerprint_memo = (guard, digest)
    return digest
