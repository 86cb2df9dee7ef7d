"""A :class:`~repro.service.client.ServiceClient` that speaks the admin tier.

Every record whose op the operation table
(:data:`~repro.service.protocol.OPS`) marks admin-tier — ``fleet.*``,
``obs.*``, ``catalog.put`` and ``catalog.drop`` — is stamped with the
admin token, so the inherited calls (:meth:`catalog_put`,
:meth:`obs_metrics`, …) work against a coordinator unchanged.  Of the
``fleet.*`` ops only ``fleet.status`` is idempotent (and so retried on a
dropped connection); the mutations surface transport errors to the
caller, naming the op, because "was my drain applied?" is a question
only the operator can settle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.service.client import ServiceClient, _drop_none
from repro.service.protocol import op_spec


class FleetClient(ServiceClient):
    """A blocking client for a fleet coordinator (user + admin tiers)."""

    def __init__(self, host: str = "127.0.0.1", port: Optional[int] = None,
                 unix_path: Optional[str] = None, timeout: float = 60.0,
                 admin_token: Optional[str] = None):
        super().__init__(host=host, port=port, unix_path=unix_path,
                         timeout=timeout)
        self._admin_token = admin_token

    def request(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Send one record, stamping the admin token on admin-tier ops.

        A token the record already carries is kept.
        """
        spec = op_spec(record)
        if (spec is not None and spec.tier == "admin"
                and self._admin_token is not None):
            record = {"admin_token": self._admin_token, **record}
        return super().request(record)

    def _admin(self, op: str, **fields: Any) -> Dict[str, Any]:
        return self.check(self.request({"op": op, **_drop_none(fields)}))

    def status(self) -> Dict[str, Any]:
        """The coordinator's full fleet snapshot (``fleet.status``)."""
        return self._admin("fleet.status")

    def drain(self, node: str) -> Dict[str, Any]:
        """Stop admitting new work to ``node``; its ring slot is kept."""
        return self._admin("fleet.drain", node=node)

    def evacuate(self, node: str) -> Dict[str, Any]:
        """Remove ``node`` from the ring entirely (a deliberate rebalance)."""
        return self._admin("fleet.evacuate", node=node)

    def set_quota(self, *, schema: Optional[str] = None,
                  deps: Optional[str] = None,
                  schema_fp: Optional[str] = None,
                  deps_fp: Optional[str] = None,
                  max_request_cost: Optional[int] = None,
                  max_in_flight_cost: Optional[int] = None) -> Dict[str, Any]:
        """Install a tenant quota (identify the tenant by texts or fingerprints)."""
        quota = {"max_request_cost": max_request_cost,
                 "max_in_flight_cost": max_in_flight_cost}
        return self._admin("fleet.quota", schema=schema, deps=deps,
                           schema_fp=schema_fp, deps_fp=deps_fp, quota=quota)

    def clear_quota(self, *, schema: Optional[str] = None,
                    deps: Optional[str] = None,
                    schema_fp: Optional[str] = None,
                    deps_fp: Optional[str] = None) -> Dict[str, Any]:
        """Drop a tenant's explicit quota, reverting it to the default."""
        record = {"op": "fleet.quota", "quota": None,
                  **_drop_none({"schema": schema, "deps": deps,
                                "schema_fp": schema_fp, "deps_fp": deps_fp})}
        return self.check(self.request(record))
