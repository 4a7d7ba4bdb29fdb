"""Unit tests for a shard's two halves: the coordinator's ShardQueue
(backpressure, routing, take/requeue) and the spec-built GroupShard
(batching, FIFO admission, journal replay)."""

import pytest

from repro.errors import ServiceError, ServiceOverloadedError
from repro.core.grouping import GroupStructure
from repro.service.shard import GroupShard, ShardQueue, ShardRequest, ShardSpec
from repro.validation.limits import DEFAULT_KERNEL_CAP

#: Example 1's group structure over 5 licenses: {1, 2, 4} and {3, 5}.
STRUCTURE = GroupStructure((frozenset({1, 2, 4}), frozenset({3, 5})), 5)
AGGREGATES = (100, 50, 60, 50, 25)


def make_spec(batch_size=4, groups=(0,), preloads=()):
    return ShardSpec(
        shard_id=0,
        group_ids=tuple(groups),
        batch_size=batch_size,
        kernel="tree",
        kernel_cap=DEFAULT_KERNEL_CAP,
        structure=STRUCTURE,
        aggregates=AGGREGATES,
        preloads=tuple(preloads),
    )


def make_shard(**spec):
    return GroupShard.from_spec(make_spec(**spec))


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
        queue = ShardQueue(0, (0,), 2)
        queue.enqueue(request(0, (1,), 5))
        queue.enqueue(request(1, (1,), 5))
        with pytest.raises(ServiceOverloadedError) as excinfo:
            queue.enqueue(request(2, (1,), 5))
        assert excinfo.value.shard_id == 0
        assert excinfo.value.depth == 2
        assert queue.depth == 2  # the overflowing request was not queued

    def test_misrouted_group_rejected(self):
        queue = ShardQueue(0, (0,), 8)
        with pytest.raises(ServiceError):
            queue.enqueue(request(0, (3, 5), 5, group_id=1))

    def test_group_ids_sorted(self):
        assert ShardQueue(0, (1, 0), 8).group_ids == (0, 1)

    def test_config_validated(self):
        with pytest.raises(ServiceError):
            make_shard(batch_size=0)
        with pytest.raises(ServiceError):
            ShardQueue(0, (0,), 0)

    def test_requeue_restores_fifo_order(self):
        queue = ShardQueue(0, (0,), 4)
        for seq in range(3):
            queue.enqueue(request(seq, (1,), 1))
        taken = queue.take_pending()
        assert [r.seq for r in taken] == [0, 1, 2]
        assert queue.depth == 0
        queue.enqueue(request(3, (1,), 1))
        queue.requeue(taken)
        assert [r.seq for r in queue.take_pending()] == [0, 1, 2, 3]


class TestAdmission:
    def test_exact_headroom_admission(self):
        shard = make_shard()
        # Group {1, 2, 4}: headroom of {1, 2} is 150 (doctest of
        # GroupSlice); admit 140, then 11 more must be rejected while 10
        # still fits.
        results, stats = shard.process_pending(
            [request(0, (1, 2), 140), request(1, (1, 2), 11), request(2, (1, 2), 10)]
        )
        assert [r.accepted for r in results] == [True, False, True]
        assert results[0].headroom == 150
        assert results[1].headroom == 10
        assert results[1].reason == "equation"
        assert results[2].reason is None
        assert stats.processed == 3

    def test_fifo_order_preserved(self):
        shard = make_shard(batch_size=2)
        results, _stats = shard.process_pending(
            [request(seq, (1,), 1) for seq in range(5)]
        )
        assert [r.seq for r in results] == [0, 1, 2, 3, 4]

    def test_batch_accounting(self):
        shard = make_shard(batch_size=2)
        _results, stats = shard.process_pending(
            [request(seq, (1,), 1) for seq in range(5)]
        )
        assert stats.batches == 3  # ceil(5 / 2)
        # Each batch dirtied group 0 ({1, 2, 4}): one revalidation pass
        # of 2^3 - 1 = 7 equations per batch.
        assert stats.equations_checked == 3 * 7
        assert stats.audit_violations == 0
        assert stats.processed == 5
        assert [timing[0] for timing in stats.batch_timings] == [2, 2, 1]

    def test_all_rejected_batch_skips_revalidation(self):
        shard = make_shard()
        results, stats = shard.process_pending([request(0, (1, 2), 10_000)])
        assert not results[0].accepted
        assert stats.equations_checked == 0  # nothing dirtied

    def test_verdicts_independent_of_batch_size(self):
        streams = {}
        for batch_size in (1, 2, 8):
            shard = make_shard(batch_size=batch_size)
            results, _stats = shard.process_pending(
                [request(seq, (1, 2), 60) for seq in range(5)]
            )
            streams[batch_size] = tuple(r.accepted for r in results)
        assert streams[1] == streams[2] == streams[8]

    def test_preload_consumes_capacity_unchecked(self):
        # Preload more than the headroom check would ever admit.
        shard = make_shard(preloads=[(0, (1, 2), 150)])
        results, _stats = shard.process_pending([request(0, (1, 2), 1)])
        assert not results[0].accepted
        assert results[0].headroom == 0

    def test_preload_unknown_group_rejected(self):
        with pytest.raises(ServiceError):
            make_shard(groups=(0,), preloads=[(1, (3,), 5)])
