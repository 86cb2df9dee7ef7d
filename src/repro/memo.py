"""Two memo idioms shared across layers.

* :func:`bound_memo` — the bounding policy of every small text- or
  override-keyed memo (the service's tenant-text memos, its catalog
  store, a solver's derived configs): when a memo grows past its
  bound, drop its oldest half.  The keys are client-chosen, so a memo
  must be bounded; precise LRU order is not worth the bookkeeping at
  these sizes.
* :class:`WireMemo` — a slot on an immutable-by-convention result
  (containment result, chase result, rewrite report) where the service
  keeps the wire payload it rendered from it.  The payload is a pure
  function of the result, so the memo lives and dies with the object
  that a solver's cache entry holds: no second cache.
"""

from __future__ import annotations

from typing import Any, Dict


def bound_memo(memo: Dict, max_entries: int) -> None:
    """Drop the oldest half of ``memo`` once it holds over ``max_entries``."""
    if len(memo) > max_entries:
        # pop, not del: two threads sharing a memo may both bound it,
        # and the second must not fail on a gone key.
        for key in list(memo)[: max_entries // 2]:
            memo.pop(key, None)


class WireMemo:
    """Mixin: a ``_wire_memo`` slot, left out of every pickle and copy.

    A persistent-store value, a process-boundary message or a
    ``copy.copy`` of the object therefore never carries a rendering,
    and values pickled before the slot existed load unchanged (the
    class-level ``None`` stands in).
    """

    _wire_memo = None

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_wire_memo", None)
        return state
