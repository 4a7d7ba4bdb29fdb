"""Caches for the validation service: match memoization + group tables.

Two cache kinds with very different lifetimes:

* :class:`MatchCache` -- an LRU memo of instance-match results keyed by
  the request's *geometry* (scope + box extents).  Usage-license streams
  are heavily repetitive at serving scale (popular content, popular
  regions), so identical boxes recur; the match set depends only on the
  box and the pool, never on the log, making memoization exact.
* :class:`GroupTables` -- the derived lookup structures of the pool:
  the group partition, the aggregates and the ``{license -> group}``
  map.  A service's pool never changes, so they are computed once and
  shared read-only by every shard.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Generic,
    Hashable,
    Optional,
    Tuple,
    TypeVar,
)

from repro.errors import ServiceError
from repro.core.grouping import GroupStructure, form_groups
from repro.core.overlap import OverlapGraph
from repro.geometry.interval import Interval
from repro.licenses.license import UsageLicense
from repro.licenses.pool import LicensePool
from repro.matching.index import IndexedMatcher

__all__ = ["LRUCache", "MatchCache", "GroupTables", "request_key"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LRUCache(Generic[K, V]):
    """A plain least-recently-used cache with hit/miss accounting.

    Examples
    --------
    >>> cache = LRUCache(2)
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None      # evicted: capacity 2
    True
    >>> cache.get("c")
    3
    >>> cache.hits, cache.misses
    (1, 1)
    """

    def __init__(
        self,
        maxsize: int,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ):
        if maxsize < 1:
            raise ServiceError(f"LRU cache needs maxsize >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._on_evict = on_evict

    def get(self, key: K) -> Optional[V]:
        """Return the cached value (refreshing recency), or ``None``."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        """Insert a value, evicting the least-recently-used on overflow.

        Evictions invoke the ``on_evict(key, value)`` callback (when one
        was configured) *after* the entry is gone, so the callback sees a
        consistent cache."""
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.maxsize:
            evicted_key, evicted_value = self._data.popitem(last=False)
            self.evictions += 1
            if self._on_evict is not None:
                self._on_evict(evicted_key, evicted_value)

    def __len__(self) -> int:
        return len(self._data)


def request_key(usage: UsageLicense) -> Tuple:
    """Return a hashable signature of a request's match-relevant fields.

    Two usage licenses with equal keys are guaranteed the same match set
    against any fixed pool: matching reads only scope (content id,
    permission) and the constraint box.
    """
    extents = []
    for extent in usage.box.extents:
        if isinstance(extent, Interval):
            extents.append(("i", extent.low, extent.high))
        else:
            extents.append(("d", tuple(sorted(extent.atoms))))
    return (usage.content_id, usage.permission, tuple(extents))


class MatchCache:
    """An :class:`IndexedMatcher` wrapped in an LRU memo.

    ``maxsize == 0`` disables memoization (every query hits the matcher),
    so callers can keep one code path for both configurations.
    """

    def __init__(
        self,
        matcher: IndexedMatcher,
        maxsize: int = 4096,
        on_evict: Optional[Callable[[Tuple, FrozenSet[int]], None]] = None,
    ):
        self._matcher = matcher
        self._cache: Optional[LRUCache[Tuple, FrozenSet[int]]] = (
            LRUCache(maxsize, on_evict) if maxsize else None
        )

    @property
    def hits(self) -> int:
        """Return cache hits (0 when caching is disabled)."""
        return self._cache.hits if self._cache else 0

    @property
    def misses(self) -> int:
        """Return cache misses (0 when caching is disabled)."""
        return self._cache.misses if self._cache else 0

    @property
    def evictions(self) -> int:
        """Return LRU evictions (0 when caching is disabled)."""
        return self._cache.evictions if self._cache else 0

    def match(self, usage: UsageLicense) -> FrozenSet[int]:
        """Return the match set, memoized by request geometry."""
        if self._cache is None:
            return self._matcher.match(usage)
        key = request_key(usage)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        result = self._matcher.match(usage)
        self._cache.put(key, result)
        return result


class GroupTables:
    """Derived group-lookup tables of one pool, built once and shared
    read-only: the group partition, the aggregates, and the bulk
    ``{license index -> group id}`` map."""

    def __init__(self, pool: LicensePool):
        self.structure: GroupStructure = form_groups(
            OverlapGraph.from_boxes(pool.boxes())
        )
        self.aggregates = pool.aggregate_array()
        self.group_of: Dict[int, int] = self.structure.group_lookup()

    @property
    def group_count(self) -> int:
        """Return the number of disconnected groups."""
        return self.structure.count
