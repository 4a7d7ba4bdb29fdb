"""Unit tests for the service cache layer (LRU memo + group tables)."""

import pytest

from repro.errors import ServiceError
from repro.licenses.license import UsageLicense
from repro.matching.index import IndexedMatcher
from repro.service.cache import GroupTables, LRUCache, MatchCache, request_key


class TestLRUCache:
    def test_eviction_order_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_hit_miss_accounting(self):
        cache = LRUCache(4)
        cache.put("k", "v")
        assert cache.get("k") == "v"
        assert cache.get("absent") is None
        assert (cache.hits, cache.misses) == (1, 1)

    def test_maxsize_validated(self):
        with pytest.raises(ServiceError):
            LRUCache(0)


class TestRequestKey:
    def test_same_geometry_same_key(self, scenario):
        usage = scenario.usages[0]
        renamed = UsageLicense(
            license_id="totally-different-id",
            content_id=usage.content_id,
            permission=usage.permission,
            box=usage.box,
            count=usage.count + 41,
        )
        # Identity and count are irrelevant to matching, so the key
        # ignores them.
        assert request_key(usage) == request_key(renamed)

    def test_different_scope_different_key(self, scenario):
        usage = scenario.usages[0]
        other = UsageLicense(
            license_id=usage.license_id,
            content_id="OTHER-CONTENT",
            permission=usage.permission,
            box=usage.box,
            count=usage.count,
        )
        assert request_key(usage) != request_key(other)

    def test_distinct_usages_have_distinct_keys(self, scenario):
        keys = {request_key(usage) for usage in scenario.usages}
        assert len(keys) == len(scenario.usages)


class TestMatchCache:
    def test_memoizes_and_matches_reference(self, scenario):
        matcher = IndexedMatcher(scenario.pool)
        cached = MatchCache(matcher, maxsize=16)
        for usage in scenario.usages:
            assert cached.match(usage) == matcher.match(usage)
        assert cached.misses == len(scenario.usages)
        for usage in scenario.usages:
            assert cached.match(usage) == matcher.match(usage)
        assert cached.hits == len(scenario.usages)

    def test_zero_maxsize_disables_caching(self, scenario):
        matcher = IndexedMatcher(scenario.pool)
        uncached = MatchCache(matcher, maxsize=0)
        usage = scenario.usages[0]
        assert uncached.match(usage) == matcher.match(usage)
        assert uncached.match(usage) == matcher.match(usage)
        assert (uncached.hits, uncached.misses) == (0, 0)


class TestGroupTables:
    def test_tables_agree_with_structure(self, scenario):
        tables = GroupTables(scenario.pool)
        # Example 1: groups {1, 2, 4} and {3, 5}.
        assert tables.group_count == 2
        assert sorted(tables.group_of) == [1, 2, 3, 4, 5]
        for group_id, members in enumerate(tables.structure.groups):
            for index in members:
                assert tables.group_of[index] == group_id

    def test_aggregates_match_pool(self, scenario):
        tables = GroupTables(scenario.pool)
        assert list(tables.aggregates) == [
            lic.aggregate for _idx, lic in scenario.pool.enumerate()
        ]
