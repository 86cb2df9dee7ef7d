"""A small thread-safe LRU cache with hit/miss counters.

``functools.lru_cache`` keys on call arguments and cannot be sized per
instance, inspected, or cleared selectively, so the solver carries its own
map.  Keys are the canonical fingerprints computed in
:mod:`repro.api.fingerprints`; values are the (immutable-by-convention)
result objects, which are returned to every caller without copying — the
engine never mutates a result after constructing it.

A **memory-only** lookup is a probe that must not leave a trace when it
misses: it raises :class:`MemoryMiss` instead of counting a miss, so the
caller can retry on a path that may compute, and that path counts the
one real miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Hashable

from repro.obs.tracing import AbandonTrace


class MemoryMiss(AbandonTrace):
    """A memory-only lookup found nothing; nothing was counted or computed.

    It abandons any trace it unwinds, so the retry records the trace.
    """


@dataclass
class CacheInfo:
    """A point-in-time snapshot of one cache's counters."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {"hits": self.hits, "misses": self.misses, "size": self.size,
                "maxsize": self.maxsize, "hit_rate": round(self.hit_rate, 4)}


_MISSING = object()


class LRUCache:
    """Least-recently-used mapping; ``maxsize=0`` disables storage entirely."""

    def __init__(self, maxsize: int):
        if maxsize < 0:
            raise ValueError("maxsize must be non-negative")
        self._maxsize = maxsize
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0

    @property
    def maxsize(self) -> int:
        return self._maxsize

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable, memory_only: bool = False) -> Any:
        """The cached value, or ``None`` on a miss (counters updated).

        With ``memory_only`` a miss raises :class:`MemoryMiss` and
        counts nothing; a hit counts as usual.
        """
        with self._lock:
            value = self._data.get(key, _MISSING)
            if value is _MISSING:
                if memory_only:
                    raise MemoryMiss()
                self._misses += 1
                return None
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self._maxsize == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self._maxsize:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(hits=self._hits, misses=self._misses,
                             size=len(self._data), maxsize=self._maxsize)
