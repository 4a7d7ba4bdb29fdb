"""Service-level dense-kernel seam: parity, fallback, and telemetry.

The dense headroom kernel must be invisible in verdict space: serving
the same stream with ``kernel="dense"`` produces a byte-identical
outcome stream for every batch size, including the vectorized
batch-prefetch path and the cap-exceeded tree fallback.  The only
observable differences are the new ``kernel_fast_path_hits`` /
``kernel_fallback`` counters -- and those stay silent on pure-tree
configs so existing metric surfaces are untouched.
"""

import dataclasses
import random

import pytest

from repro.errors import ServiceError
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SEED = 411


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        n_licenses=22,
        seed=SEED,
        n_records=0,
        target_groups=6,
        aggregate_range=(200, 700),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    # Skewed traffic piles many same-batch requests onto a few groups,
    # exercising the prefetch-invalidation path hard.
    stream = tuple(generator.issue_stream(pool, 400, skew=0.9))
    return pool, stream


def serve(pool, stream, **config_kwargs):
    with ValidationService(pool, ServiceConfig(**config_kwargs)) as service:
        outcomes = service.process(stream)
    return outcomes, service


@pytest.fixture(scope="module")
def reference(workload):
    pool, stream = workload
    outcomes, _ = serve(pool, stream, kernel="tree", batch_size=1)
    return [(o.accepted, o.rejection_reason) for o in outcomes]


class TestVerdictParity:
    @pytest.mark.parametrize("batch_size", [1, 3, 32, 200])
    def test_dense_matches_tree_across_batch_sizes(
        self, workload, reference, batch_size
    ):
        pool, stream = workload
        outcomes, _ = serve(
            pool, stream, kernel="dense", batch_size=batch_size, shards=3
        )
        assert [
            (o.accepted, o.rejection_reason) for o in outcomes
        ] == reference

    def test_hot_catalog_over_journal_matches_tree(self, workload):
        """A restarted service replays a journal, then sells a dozen
        offers over and over, mostly rejected: most tree headroom
        queries repeat a match set before the group's next accept."""
        pool, stream = workload
        _, first_life = serve(pool, stream, kernel="tree")
        rng = random.Random(SEED)
        catalog = stream[:12]
        hot = tuple(
            dataclasses.replace(
                rng.choice(catalog),
                license_id=f"HOT{serial}",
                count=rng.randint(10, 40),
            )
            for serial in range(300)
        )
        signatures = []
        for kernel, batch_size in (("tree", 1), ("tree", 32), ("dense", 32)):
            with ValidationService(
                pool,
                ServiceConfig(kernel=kernel, batch_size=batch_size, shards=3),
                initial_log=first_life.log,
            ) as service:
                signatures.append(
                    [
                        (o.accepted, o.rejection_reason, o.rejection_detail)
                        for o in service.process(hot)
                    ]
                )
        assert signatures[0] == signatures[1] == signatures[2]
        accepted = sum(signature[0] for signature in signatures[0])
        assert 0 < accepted < len(hot) // 2

    def test_fallback_config_matches_too(self, workload, reference):
        pool, stream = workload
        outcomes, _ = serve(
            pool, stream, kernel="dense", kernel_cap=0, batch_size=16
        )
        assert [
            (o.accepted, o.rejection_reason) for o in outcomes
        ] == reference


class TestKernelTelemetry:
    def test_dense_counts_fast_path_hits(self, workload):
        pool, stream = workload
        _, service = serve(pool, stream, kernel="dense", batch_size=16)
        hits = service.metrics.counter("kernel_fast_path_hits").value()
        # Every shard-routed request was answered by the dense kernel;
        # instance rejections never reach a shard.
        accepted = service.metrics.counter("requests_total").value(
            ("accepted",)
        )
        equation = service.metrics.counter("requests_total").value(
            ("rejected", "equation")
        )
        assert hits == accepted + equation > 0
        assert service.metrics.counter("kernel_fallback").value() == 0

    def test_cap_exceeded_counts_fallback(self, workload):
        pool, stream = workload
        _, service = serve(
            pool, stream, kernel="dense", kernel_cap=0, batch_size=16
        )
        assert service.metrics.counter("kernel_fallback").value() > 0
        assert (
            service.metrics.counter("kernel_fast_path_hits").value() == 0
        )

    def test_tree_config_stays_silent(self, workload):
        pool, stream = workload
        _, service = serve(pool, stream, kernel="tree", batch_size=16)
        assert service.metrics.counter("kernel_fast_path_hits").value() == 0
        assert service.metrics.counter("kernel_fallback").value() == 0


class TestConfigValidation:
    def test_unknown_kernel_rejected(self):
        with pytest.raises(ServiceError):
            ServiceConfig(kernel="gpu")

    def test_kernel_cap_bounds(self):
        with pytest.raises(ServiceError):
            ServiceConfig(kernel_cap=-1)
        with pytest.raises(ServiceError):
            ServiceConfig(kernel_cap=99)
