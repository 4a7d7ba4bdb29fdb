"""Sharding must never change verdicts (Theorem 2, serving edition).

Disconnected overlap groups share no validation equations, so a
request's verdict depends only on the submission order *within its own
group* -- which every shard preserves (FIFO queues, ascending sequence
numbers).  Hence the outcome stream of a fixed request stream is
byte-identical no matter how groups are spread over shards, how
admission is batched, how small the bounded queues are, or which
executor backend runs the drain.
"""

import pytest

from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SEED = 2026


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        n_licenses=20,
        seed=SEED,
        n_records=0,
        target_groups=8,
        aggregate_range=(200, 700),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    # Mild popularity skew concentrates traffic on a few groups, the
    # regime where batching/sharding reorder temptation is highest.
    stream = tuple(generator.issue_stream(pool, 300, skew=0.8))
    return pool, stream


def verdict_stream(pool, stream, **config_kwargs):
    """Serve the stream; return one byte per verdict ('A' or reason initial)."""
    with ValidationService(pool, ServiceConfig(**config_kwargs)) as service:
        outcomes = service.process(stream)
    return "".join(
        "A" if o.accepted else (o.rejection_reason or "?")[0] for o in outcomes
    ).encode("ascii")


@pytest.fixture(scope="module")
def reference(workload):
    pool, stream = workload
    return verdict_stream(pool, stream, shards=1, batch_size=1)


@pytest.mark.parametrize("shards", [1, 2, 4, 8])
def test_shard_count_does_not_change_verdicts(workload, reference, shards):
    pool, stream = workload
    assert verdict_stream(pool, stream, shards=shards) == reference


@pytest.mark.parametrize("batch_size", [1, 3, 32, 512])
def test_batch_size_does_not_change_verdicts(workload, reference, batch_size):
    pool, stream = workload
    assert (
        verdict_stream(pool, stream, shards=4, batch_size=batch_size)
        == reference
    )


@pytest.mark.parametrize("queue_capacity", [2, 16, 4096])
def test_backpressure_does_not_change_verdicts(
    workload, reference, queue_capacity
):
    pool, stream = workload
    assert (
        verdict_stream(pool, stream, shards=4, queue_capacity=queue_capacity)
        == reference
    )


@pytest.mark.parametrize("executor", ["serial", "resident"])
def test_executor_backend_does_not_change_verdicts(
    workload, reference, executor
):
    pool, stream = workload
    assert (
        verdict_stream(pool, stream, shards=8, executor=executor) == reference
    )


def test_joint_sweep_is_byte_identical(workload, reference):
    """The cross product: shards x batch x capacity all collapse to one
    verdict stream."""
    pool, stream = workload
    for shards in (2, 8):
        for batch_size in (1, 64):
            for queue_capacity in (3, 1024):
                assert (
                    verdict_stream(
                        pool,
                        stream,
                        shards=shards,
                        batch_size=batch_size,
                        queue_capacity=queue_capacity,
                    )
                    == reference
                ), (shards, batch_size, queue_capacity)
