"""Seeded multi-tenant service traffic (Zipf-distributed tenants).

The service layer's performance story is cache affinity: the same
schema/Σ fingerprints recur across requests, and a shard that keeps
seeing one tenant answers from warm caches.  This generator produces
exactly that traffic shape, deterministically:

* ``tenant_count`` tenants, each a generated schema (distinct relation
  names per tenant, so tenants never share fingerprints), a key-based
  Σ, chain/star queries with known-positive containment pairs, and a
  view catalog;
* a request stream in the service's wire format (ready for
  :func:`repro.service.protocol.handle_record`, a
  :class:`~repro.service.pool.ShardedSolverPool`, a
  :class:`~repro.service.client.ServiceClient`, or ``repro batch``),
  with tenants drawn from a Zipf distribution — rank ``r`` gets weight
  ``1 / r**s`` — because service traffic is never uniform: a few hot
  tenants dominate, which is precisely what makes affinity routing and
  persistent caches pay.

Everything is reproducible from the seed; two generators with equal
parameters emit equal streams.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Tuple

from repro.workloads.dependency_generator import DependencyGenerator
from repro.workloads.query_generator import QueryGenerator
from repro.workloads.schema_generator import SchemaGenerator
from repro.workloads.view_generator import ViewCatalogGenerator

#: Default op mix; weights need not sum to 1 (they are relative).
DEFAULT_MIX: Mapping[str, float] = {"contain": 0.6, "chase": 0.2, "rewrite": 0.2}


@dataclass(frozen=True)
class Tenant:
    """One tenant's textual workload universe (all strings parse back)."""

    name: str
    schema_text: str
    deps_text: str
    views_text: str
    #: (query, query_prime) pairs with known-positive containment.
    contain_pairs: Tuple[Tuple[str, str], ...]
    chase_queries: Tuple[str, ...]
    rewrite_queries: Tuple[str, ...]

    def record_base(self) -> Dict[str, str]:
        """The tenant fields of a service request."""
        return {"schema": self.schema_text, "deps": self.deps_text}


@dataclass
class TrafficGenerator:
    """Deterministic Zipf-tenant request streams for the service layer."""

    tenant_count: int = 8
    seed: int = 0
    zipf_exponent: float = 1.2
    relation_count: int = 5
    arity: int = 3
    foreign_key_count: int = 3
    catalog_size: int = 3
    chain_lengths: Tuple[int, ...] = (2, 3, 4)
    tenants: Tuple[Tenant, ...] = field(init=False)

    def __post_init__(self) -> None:
        if self.tenant_count <= 0:
            raise ValueError("tenant_count must be positive")
        if self.zipf_exponent <= 0:
            raise ValueError("zipf_exponent must be positive")
        self.tenants = tuple(self._build_tenant(index)
                             for index in range(self.tenant_count))
        self._weights = [1.0 / (rank + 1) ** self.zipf_exponent
                         for rank in range(self.tenant_count)]

    # -- tenant construction -------------------------------------------------

    def _build_tenant(self, index: int) -> Tenant:
        # Distinct relation-name prefixes keep tenant fingerprints
        # distinct even when the shapes coincide.
        tenant_seed = self.seed * 1_000 + index
        schema = SchemaGenerator(seed=tenant_seed).uniform(
            self.relation_count, self.arity, prefix=f"T{index}R")
        sigma = DependencyGenerator(schema, seed=tenant_seed).key_based(
            self.foreign_key_count)
        queries = QueryGenerator(schema, seed=tenant_seed)
        catalog = ViewCatalogGenerator(schema, seed=tenant_seed).catalog(
            self.catalog_size, sigma)

        chains = [queries.chain(length, name=f"T{index}Q{length}")
                  for length in self.chain_lengths]
        pairs = tuple((str(chain), str(queries.weakened(chain)))
                      for chain in chains if len(chain) > 1)
        schema_text = "\n".join(
            f"{relation.name}({', '.join(relation.attribute_names)})"
            for relation in schema)
        return Tenant(
            name=f"tenant-{index}",
            schema_text=schema_text,
            deps_text="\n".join(str(dependency) for dependency in sigma),
            views_text="\n".join(str(view) for view in catalog),
            contain_pairs=pairs,
            chase_queries=tuple(str(chain) for chain in chains),
            rewrite_queries=tuple(str(chain) for chain in chains),
        )

    # -- sampling ------------------------------------------------------------

    def pick_tenant(self, rng: random.Random) -> Tenant:
        """One tenant, Zipf-weighted (rank 0 is the hottest)."""
        return rng.choices(self.tenants, weights=self._weights, k=1)[0]

    def requests(self, count: int,
                 mix: Mapping[str, float] = DEFAULT_MIX,
                 stream_seed: int = 0) -> List[Dict[str, Any]]:
        """``count`` wire-format records (materialized, for replaying)."""
        return list(self.iter_requests(count, mix=mix, stream_seed=stream_seed))

    def iter_requests(self, count: int,
                      mix: Mapping[str, float] = DEFAULT_MIX,
                      stream_seed: int = 0) -> Iterator[Dict[str, Any]]:
        """A deterministic stream of ``count`` service requests.

        ``stream_seed`` varies the arrival order and choices without
        rebuilding the tenants, so one workload universe can emit many
        distinct-but-replayable streams.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        operations = [op for op in mix if mix[op] > 0]
        unknown = set(operations) - {"contain", "chase", "rewrite"}
        if unknown:
            raise ValueError(f"unknown op(s) in mix: {sorted(unknown)}")
        weights = [mix[op] for op in operations]
        rng = random.Random(f"{self.seed}:{stream_seed}")
        for serial in range(count):
            tenant = self.pick_tenant(rng)
            op = rng.choices(operations, weights=weights, k=1)[0]
            record: Dict[str, Any] = {
                "id": f"{tenant.name}/{op}/{serial}",
                "op": op,
                **tenant.record_base(),
            }
            if op == "contain":
                query, query_prime = rng.choice(tenant.contain_pairs)
                record["query"] = query
                record["query_prime"] = query_prime
            elif op == "chase":
                record["query"] = rng.choice(tenant.chase_queries)
                record["max_level"] = 3
            else:  # rewrite
                record["query"] = rng.choice(tenant.rewrite_queries)
                record["views"] = tenant.views_text
            yield record

    # -- catalog-scale traffic (register once, rewrite by fingerprint) -------

    def tenant_catalog_fp(self, tenant: Tenant) -> str:
        """The fingerprint ``catalog.put`` will assign tenant's catalog.

        Computed exactly the way the service computes it (parse the
        texts, fingerprint the parsed catalog), so a generated stream
        can reference catalogs before any server has seen them.
        """
        if not hasattr(self, "_catalog_fps"):
            self._catalog_fps: Dict[str, str] = {}
        if tenant.name not in self._catalog_fps:
            from repro.api.fingerprints import catalog_fingerprint
            from repro.parser.schema_parser import parse_schema
            from repro.parser.view_parser import parse_views
            catalog = parse_views(tenant.views_text,
                                  parse_schema(tenant.schema_text))
            self._catalog_fps[tenant.name] = catalog_fingerprint(catalog)
        return self._catalog_fps[tenant.name]

    def catalog_registrations(self) -> List[Dict[str, Any]]:
        """One ``catalog.put`` record per tenant (replay these first)."""
        return [{"id": f"{tenant.name}/catalog.put", "op": "catalog.put",
                 "views": tenant.views_text, "schema": tenant.schema_text,
                 "name": tenant.name}
                for tenant in self.tenants]

    def catalog_requests(self, count: int,
                         stream_seed: int = 0) -> List[Dict[str, Any]]:
        """``count`` rewrite-by-fingerprint records (Zipf tenants).

        The catalog-scale traffic shape: every record carries
        ``catalog_fp`` instead of the tenant's views text, so the
        server must have replayed :meth:`catalog_registrations` (or a
        coordinator must have broadcast them) first.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        rng = random.Random(f"{self.seed}:catalog:{stream_seed}")
        records: List[Dict[str, Any]] = []
        for serial in range(count):
            tenant = self.pick_tenant(rng)
            records.append({
                "id": f"{tenant.name}/rewrite-fp/{serial}",
                "op": "rewrite",
                "query": rng.choice(tenant.rewrite_queries),
                "catalog_fp": self.tenant_catalog_fp(tenant),
                **tenant.record_base(),
            })
        return records

    def streams(self, stream_count: int, count_per_stream: int,
                mix: Mapping[str, float] = DEFAULT_MIX,
                stream_seed: int = 0) -> List[List[Dict[str, Any]]]:
        """``stream_count`` independent request streams over one tenant universe.

        The multi-node shape: each stream models one client connection
        (or one traffic source aimed at a fleet), all drawing from the
        *same* tenants — so the fleet-level affinity question ("do a
        tenant's requests land on one node's warm caches regardless of
        which client sent them?") is actually posed.  Streams are
        deterministic (stream ``k`` derives its RNG from ``stream_seed +
        k``) and their ids are prefixed ``s{k}/`` so responses can be
        attributed to their stream even after fleet-level merging.
        """
        if stream_count <= 0:
            raise ValueError("stream_count must be positive")
        streams: List[List[Dict[str, Any]]] = []
        for index in range(stream_count):
            stream = self.requests(count_per_stream, mix=mix,
                                   stream_seed=stream_seed + index)
            for record in stream:
                record["id"] = f"s{index}/{record['id']}"
            streams.append(stream)
        return streams

    # -- introspection -------------------------------------------------------

    def tenant_shares(self, records: List[Dict[str, Any]]) -> Dict[str, float]:
        """Fraction of a stream belonging to each tenant (by request id)."""
        counts: Dict[str, int] = {tenant.name: 0 for tenant in self.tenants}
        for record in records:
            parts = record["id"].split("/")
            # Stream-prefixed ids (``s0/tenant-3/contain/5``) carry the
            # tenant in the second component.
            counts[parts[1] if parts[0] not in counts else parts[0]] += 1
        total = max(len(records), 1)
        return {name: count / total for name, count in counts.items()}
