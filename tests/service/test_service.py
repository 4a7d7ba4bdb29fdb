"""Integration tests for ValidationService and ServiceSession.

The load-bearing property: the service *is* the exact equation policy
(``IssuanceSession(pool, "equation")``) scaled out -- every verdict,
reason, and log record must agree with the session, for every shard
count, executor backend, batch size, and queue capacity.
"""

import pytest

from repro.errors import ServiceError, ServiceOverloadedError, ValidationError
from repro.licenses.pool import LicensePool
from repro.online.session import IssuanceSession, ServiceSession
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator


@pytest.fixture(scope="module")
def workload():
    """A deterministic 16-license, 4-group pool plus a 200-request stream."""
    config = WorkloadConfig(
        n_licenses=16,
        seed=3,
        n_records=0,
        target_groups=4,
        aggregate_range=(300, 900),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = tuple(generator.issue_stream(pool, 200))
    return pool, stream


def outcome_signature(outcome):
    return (
        outcome.usage_id,
        outcome.count,
        tuple(outcome.license_set),
        outcome.accepted,
        outcome.rejection_reason,
    )


class TestEquivalenceWithEquationSession:
    def test_process_matches_session_verdicts(self, workload):
        pool, stream = workload
        session = IssuanceSession(pool, "equation")
        expected = [outcome_signature(session.issue(usage)) for usage in stream]
        with ValidationService(
            pool, ServiceConfig(shards=4, batch_size=16)
        ) as service:
            actual = [
                outcome_signature(outcome) for outcome in service.process(stream)
            ]
        assert actual == expected

    def test_log_matches_session_log(self, workload):
        pool, stream = workload
        session = IssuanceSession(pool, "equation")
        for usage in stream:
            session.issue(usage)
        with ValidationService(pool, ServiceConfig(shards=2)) as service:
            service.process(stream)
            assert len(service.log) == len(session.log)
            assert [
                (tuple(sorted(r.license_set)), r.count) for r in service.log
            ] == [
                (tuple(sorted(r.license_set)), r.count) for r in session.log
            ]

    def test_issue_one_at_a_time_matches_process(self, workload):
        pool, stream = workload
        with ValidationService(pool) as batch_service:
            batched = [
                outcome_signature(o) for o in batch_service.process(stream)
            ]
        with ValidationService(pool) as single_service:
            singles = [
                outcome_signature(single_service.issue(usage))
                for usage in stream
            ]
        assert singles == batched


class TestExecutors:
    @pytest.mark.parametrize("backend", ["serial", "resident"])
    def test_backends_agree(self, workload, backend):
        pool, stream = workload
        reference_config = ServiceConfig(shards=4, batch_size=16)
        with ValidationService(pool, reference_config) as reference:
            expected = [
                outcome_signature(o) for o in reference.process(stream)
            ]
        config = ServiceConfig(shards=4, batch_size=16, executor=backend)
        with ValidationService(pool, config) as service:
            actual = [outcome_signature(o) for o in service.process(stream)]
        assert actual == expected

    def test_unknown_backend_rejected(self):
        for backend in ("quantum", "thread", "process", "process-roundtrip"):
            with pytest.raises(ServiceError, match="serial, resident"):
                ServiceConfig(executor=backend)


class TestBackpressure:
    def test_submit_raises_and_counts_overload(self, workload):
        pool, stream = workload
        config = ServiceConfig(shards=1, queue_capacity=1)
        with ValidationService(pool, config) as service:
            routable = [u for u in stream if service._matcher.match(u)]
            service.submit(routable[0])
            with pytest.raises(ServiceOverloadedError):
                service.submit(routable[1])
            assert (
                service.metrics.counter("overload_total").value(("shard0",)) == 1
            )
            # The overloaded request was never assigned a sequence number,
            # so draining yields exactly one shard verdict.
            assert len(service.drain()) == 1

    def test_process_absorbs_overload_without_drops(self, workload):
        pool, stream = workload
        with ValidationService(
            pool, ServiceConfig(shards=2, queue_capacity=4)
        ) as tiny:
            constrained = [outcome_signature(o) for o in tiny.process(stream)]
        with ValidationService(pool, ServiceConfig(shards=2)) as roomy:
            unconstrained = [outcome_signature(o) for o in roomy.process(stream)]
        assert constrained == unconstrained


class TestMetrics:
    def test_counters_partition_the_stream(self, workload):
        pool, stream = workload
        with ValidationService(pool, ServiceConfig(shards=4)) as service:
            outcomes = service.process(stream)
            requests = service.metrics.counter("requests_total")
            assert requests.total() == len(stream)
            assert requests.value(("accepted",)) == sum(
                o.accepted for o in outcomes
            )
            by_reason = {}
            for outcome in outcomes:
                if not outcome.accepted:
                    by_reason[outcome.rejection_reason] = (
                        by_reason.get(outcome.rejection_reason, 0) + 1
                    )
            for reason, count in by_reason.items():
                assert requests.value(("rejected", reason)) == count
            assert service.metrics.counter("batches_total").total() > 0
            assert service.metrics.counter("equations_checked_total").total() > 0

    def test_latency_histogram_covers_sharded_requests(self, workload):
        pool, stream = workload
        with ValidationService(pool) as service:
            outcomes = service.process(stream)
            instant = sum(
                1 for o in outcomes if o.rejection_reason == "instance"
            )
            summary = service.metrics.histogram("latency_seconds").summary()
            # Instance rejects never reach a shard, hence no latency sample.
            assert summary["count"] == len(stream) - instant
            assert summary["p50"] <= summary["p95"] <= summary["p99"]

    def test_report_renders_counters_and_quantiles(self, workload):
        pool, stream = workload
        with ValidationService(pool, ServiceConfig(shards=2)) as service:
            service.process(stream)
            text = service.report()
        assert "requests_total{accepted}" in text
        assert "latency_seconds" in text and "p99=" in text
        assert "match_cache_hits" in text
        assert "2 shard(s)" in text

    def test_hooks_stream_service_events(self, workload):
        pool, stream = workload
        with ValidationService(pool) as service:
            events = []
            service.metrics.add_hook(
                lambda name, labels, value: events.append(name)
            )
            service.process(stream[:20])
        assert "requests_total" in events
        assert "latency_seconds" in events


class TestLifecycle:
    def test_replayed_log_constrains_admission(self, workload):
        pool, stream = workload
        with ValidationService(pool) as first_life:
            expected = [outcome_signature(o) for o in first_life.process(stream)]
            checkpoint = len(stream) // 2
        # Restart: replay the first half's acceptances, then serve the
        # second half -- verdicts must continue exactly where they left off.
        with ValidationService(pool) as warm:
            warm.process(stream[:checkpoint])
            journal = warm.log
        with ValidationService(pool, initial_log=journal) as second_life:
            resumed = [
                outcome_signature(o)
                for o in second_life.process(stream[checkpoint:])
            ]
            # Replayed records are history, not this service's issuances.
            assert len(second_life.log) == sum(sig[3] for sig in resumed)
        assert resumed == expected[checkpoint:]

    def test_shards_clamped_to_group_count(self, workload):
        pool, _stream = workload
        with ValidationService(pool, ServiceConfig(shards=64)) as service:
            assert service.shard_count == service.group_count <= 64

    def test_closed_service_rejects_work(self, workload):
        pool, stream = workload
        service = ValidationService(pool)
        service.close()
        with pytest.raises(ServiceError):
            service.submit(stream[0])
        with pytest.raises(ServiceError):
            service.drain()
        service.close()  # idempotent

    def test_empty_pool_rejected(self):
        with pytest.raises(ValidationError):
            ValidationService(LicensePool())


class TestServiceSession:
    def test_session_surface_matches_equation_session(self, workload):
        pool, stream = workload
        reference = IssuanceSession(pool, "equation")
        expected = [outcome_signature(reference.issue(u)) for u in stream[:60]]
        session = ServiceSession(pool)
        actual = [outcome_signature(session.issue(u)) for u in stream[:60]]
        assert actual == expected
        assert session.policy_name == "service"
        assert session.accepted_counts == reference.accepted_counts
        assert len(session.outcomes) == 60

    def test_issue_many_batches_through_service(self, workload):
        pool, stream = workload
        session = ServiceSession(pool, ServiceConfig(shards=4, batch_size=16))
        outcomes = session.issue_many(stream)
        assert len(outcomes) == len(stream)
        assert session.service.metrics.counter("requests_total").total() == len(
            stream
        )

    def test_config_and_service_are_exclusive(self, workload):
        pool, _stream = workload
        with ValidationService(pool) as service:
            with pytest.raises(ValidationError):
                ServiceSession(pool, ServiceConfig(), service=service)
