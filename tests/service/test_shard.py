"""Unit tests for GroupShard: batching, backpressure, FIFO admission."""

import pytest

from repro.errors import ServiceError, ServiceOverloadedError
from repro.core.grouping import GroupStructure
from repro.core.incremental import GroupSlice
from repro.service.shard import GroupShard, ShardRequest

#: Example 1's group structure over 5 licenses: {1, 2, 4} and {3, 5}.
STRUCTURE = GroupStructure((frozenset({1, 2, 4}), frozenset({3, 5})), 5)
AGGREGATES = [100, 50, 60, 50, 25]


def make_shard(batch_size=4, queue_capacity=8, groups=(0,)):
    slices = {
        group_id: GroupSlice(STRUCTURE, AGGREGATES, group_id)
        for group_id in groups
    }
    return GroupShard(0, slices, batch_size, queue_capacity)


def request(seq, members, count, group_id=0):
    return ShardRequest(
        seq=seq,
        usage_id=f"u{seq}",
        group_id=group_id,
        members=tuple(members),
        count=count,
        received=0.0,
        enqueued=0.0,
    )


class TestQueue:
    def test_overload_raises_with_shard_and_depth(self):
        shard = make_shard(queue_capacity=2)
        shard.enqueue(request(0, (1,), 5))
        shard.enqueue(request(1, (1,), 5))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            shard.enqueue(request(2, (1,), 5))
        assert excinfo.value.shard_id == 0
        assert excinfo.value.depth == 2
        assert shard.depth == 2  # the overflowing request was not queued

    def test_misrouted_group_rejected(self):
        shard = make_shard(groups=(0,))
        with pytest.raises(ServiceError):
            shard.enqueue(request(0, (3, 5), 5, group_id=1))

    def test_group_ids_sorted(self):
        assert make_shard(groups=(1, 0)).group_ids == (0, 1)

    def test_config_validated(self):
        with pytest.raises(ServiceError):
            make_shard(batch_size=0)
        with pytest.raises(ServiceError):
            make_shard(queue_capacity=0)


class TestAdmission:
    def test_exact_headroom_admission(self):
        shard = make_shard()
        # Group {1, 2, 4}: headroom of {1, 2} is 150 (doctest of
        # GroupSlice); admit 140, then 11 more must be rejected while 10
        # still fits.
        shard.enqueue(request(0, (1, 2), 140))
        shard.enqueue(request(1, (1, 2), 11))
        shard.enqueue(request(2, (1, 2), 10))
        results, stats = shard.process_pending()
        assert [r.accepted for r in results] == [True, False, True]
        assert results[0].headroom == 150
        assert results[1].headroom == 10
        assert results[1].reason == "equation"
        assert results[2].reason is None
        assert (stats.accepted, stats.rejected, stats.processed) == (2, 1, 3)

    def test_fifo_order_preserved(self):
        shard = make_shard(batch_size=2)
        for seq in range(5):
            shard.enqueue(request(seq, (1,), 1))
        results, _stats = shard.process_pending()
        assert [r.seq for r in results] == [0, 1, 2, 3, 4]

    def test_batch_accounting(self):
        shard = make_shard(batch_size=2)
        for seq in range(5):
            shard.enqueue(request(seq, (1,), 1))
        _results, stats = shard.process_pending()
        assert stats.batches == 3  # ceil(5 / 2)
        # Each batch dirtied group 0 ({1, 2, 4}): one revalidation pass
        # of 2^3 - 1 = 7 equations per batch.
        assert stats.equations_checked == 3 * 7
        assert stats.audit_violations == 0
        assert stats.per_group == {0: 5}
        assert shard.depth == 0

    def test_all_rejected_batch_skips_revalidation(self):
        shard = make_shard()
        shard.enqueue(request(0, (1, 2), 10_000))
        results, stats = shard.process_pending()
        assert not results[0].accepted
        assert stats.equations_checked == 0  # nothing dirtied

    def test_verdicts_independent_of_batch_size(self):
        streams = {}
        for batch_size in (1, 2, 8):
            shard = make_shard(batch_size=batch_size)
            for seq, count in enumerate([60, 60, 60, 60, 60]):
                shard.enqueue(request(seq, (1, 2), count))
            results, _stats = shard.process_pending()
            streams[batch_size] = tuple(r.accepted for r in results)
        assert streams[1] == streams[2] == streams[8]

    def test_preload_consumes_capacity_unchecked(self):
        shard = make_shard()
        # Preload more than the headroom check would ever admit.
        shard.preload(0, (1, 2), 150)
        shard.enqueue(request(0, (1, 2), 1))
        results, _stats = shard.process_pending()
        assert not results[0].accepted
        assert results[0].headroom == 0

    def test_preload_invalidates_headroom_memo(self, tree_walks):
        shard = make_shard()
        shard.enqueue(request(0, (1, 2), 1000))
        results, _stats = shard.process_pending()
        assert results[0].headroom == 150  # now memoized
        shard.preload(0, (1, 2), 140)
        tree_walks.clear()
        shard.enqueue(request(1, (1, 2), 1000))
        results, _stats = shard.process_pending()
        assert results[0].headroom == 10
        assert tree_walks  # the journal record forced a fresh tree walk

    def test_preload_unknown_group_rejected(self):
        shard = make_shard(groups=(0,))
        with pytest.raises(ServiceError):
            shard.preload(1, (3,), 5)
