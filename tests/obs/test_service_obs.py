"""End-to-end observability: tracing + events through ValidationService.

The acceptance properties of the observability layer:

* tracing must never change a verdict (byte-identical streams on/off);
* the span tree covers the full pipeline -- ``request`` (with ``match``,
  ``queue_wait``, ``admission`` children) and ``drain`` (with
  ``shard_batch`` -> ``revalidate`` children);
* the ``equations_checked`` span attributes are *accounting*, not
  decoration: they sum to exactly the run's ``equations_checked_total``;
* the event journal captures every admission/rejection plus the
  operational transitions (backpressure, cache eviction);
* every timing view is read from the same per-request clock stamps: a
  request's ``ServerTiming`` phases equal its span durations.
"""

import pytest

from repro.obs.events import EventLog
from repro.obs.trace import SamplingConfig, Tracer
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


def _signature(outcome):
    return (
        outcome.usage_id,
        outcome.count,
        tuple(outcome.license_set),
        outcome.accepted,
        outcome.rejection_reason,
        outcome.rejection_detail,
    )


def _run(pool, stream, *, tracer=None, events=None, executor="serial"):
    with ValidationService(
        pool,
        ServiceConfig(shards=2, batch_size=16, executor=executor),
        tracer=tracer,
        events=events,
    ) as service:
        outcomes = service.process(stream)
        equations = service.metrics.counter("equations_checked_total").total()
    return outcomes, equations


class TestVerdictsUnchanged:
    def test_tracing_on_off_byte_identical(self, workload):
        pool, stream = workload
        plain, _ = _run(pool, stream)
        traced, _ = _run(
            pool, stream, tracer=Tracer(), events=EventLog()
        )
        assert [_signature(o) for o in traced] == [
            _signature(o) for o in plain
        ]

    def test_sampled_tracing_also_identical(self, workload):
        pool, stream = workload
        plain, _ = _run(pool, stream)
        sampled, _ = _run(
            pool, stream, tracer=Tracer(SamplingConfig(rate=0.25))
        )
        assert [_signature(o) for o in sampled] == [
            _signature(o) for o in plain
        ]


class TestSpanTree:
    def test_pipeline_stages_all_covered(self, workload):
        pool, stream = workload
        tracer = Tracer()
        _run(pool, stream, tracer=tracer)
        records = tracer.records()
        by_name = {}
        for record in records:
            by_name.setdefault(record.name, []).append(record)
        assert set(by_name) >= {
            "request", "match", "queue_wait", "admission",
            "drain", "shard_batch", "revalidate",
        }
        # One request root per stream element, each fully populated.
        assert len(by_name["request"]) == len(stream)
        assert len(by_name["match"]) == len(stream)
        by_id = {r.span_id: r for r in records}
        for name in ("match", "queue_wait", "admission"):
            for span in by_name[name]:
                assert by_id[span.parent_id].name == "request"
        for span in by_name["shard_batch"]:
            assert by_id[span.parent_id].name == "drain"
        for span in by_name["revalidate"]:
            assert by_id[span.parent_id].name == "shard_batch"

    def test_equations_attrs_sum_to_counter(self, workload):
        pool, stream = workload
        tracer = Tracer()
        _, equations_total = _run(pool, stream, tracer=tracer)
        span_sum = sum(
            record.attrs.get("equations_checked", 0)
            for record in tracer.records()
            if record.name == "revalidate"
        )
        assert equations_total > 0
        assert span_sum == equations_total

    def test_request_spans_carry_outcome_attrs(self, workload):
        pool, stream = workload
        tracer = Tracer()
        outcomes, _ = _run(pool, stream, tracer=tracer)
        requests = [
            r for r in tracer.records() if r.name == "request"
        ]
        by_seq = {r.attrs["seq"]: r for r in requests}
        for seq, outcome in enumerate(outcomes):
            attrs = by_seq[seq].attrs
            assert attrs["usage_id"] == outcome.usage_id
            if outcome.accepted:
                assert attrs["outcome"] == "accepted"
            else:
                assert attrs["outcome"] == "rejected"
                assert attrs["reason"] == outcome.rejection_reason

    def test_resident_executor_produces_same_tree_shape(self, workload):
        pool, stream = workload
        serial_tracer, resident_tracer = Tracer(), Tracer()
        _run(pool, stream, tracer=serial_tracer)
        _run(pool, stream, tracer=resident_tracer, executor="resident")

        def shape(tracer):
            names = {}
            for record in tracer.records():
                names[record.name] = names.get(record.name, 0) + 1
            return names

        assert shape(serial_tracer) == shape(resident_tracer)

    def test_sampling_halves_request_traces(self, workload):
        pool, stream = workload
        tracer = Tracer(SamplingConfig(rate=0.5))
        _run(pool, stream, tracer=tracer)
        requests = [
            r for r in tracer.records() if r.name == "request"
        ]
        # request and drain roots interleave in the root counter, so the
        # request share is close to half, not exactly half.
        assert 0 < len(requests) < len(stream)
        assert abs(tracer.roots_started - 2 * tracer.roots_sampled) <= 1


class TestTimingViews:
    @pytest.mark.parametrize("executor", ["serial", "resident"])
    def test_server_timing_equals_span_durations(self, workload, executor):
        pool, stream = workload
        tracer = Tracer()
        with ValidationService(
            pool,
            ServiceConfig(shards=2, batch_size=16, executor=executor),
            tracer=tracer,
        ) as service:
            service.enable_request_timings()
            service.process(stream)
            timings = [
                service.pop_request_timing(seq) for seq in range(len(stream))
            ]
        records = tracer.records()
        seq_of = {
            r.span_id: r.attrs["seq"]
            for r in records
            if r.name == "request" and r.attrs.get("outcome") != "overload"
        }
        span_us = {
            (seq_of[r.parent_id], r.name): r.duration * 1e6
            for r in records
            if r.parent_id in seq_of
        }
        assert len(seq_of) == len(stream)
        for seq, timing in enumerate(timings):
            for phase, name in (
                ("queue_us", "queue_wait"),
                ("match_us", "match"),
                ("admission_us", "admission"),
            ):
                # Instance rejections never queue: no span, a zero phase.
                expected = span_us.get((seq, name), 0.0)
                assert abs(getattr(timing, phase) - expected) < 1, (seq, phase)


class TestEventJournal:
    def test_every_request_gets_admission_or_rejection(self, workload):
        pool, stream = workload
        events = EventLog()
        outcomes, _ = _run(pool, stream, events=events)
        journal = events.tail()
        verdicts = [
            event for event in journal
            if event["kind"] in ("admission", "rejection")
        ]
        assert len(verdicts) == len(stream)
        accepted = sum(e["kind"] == "admission" for e in verdicts)
        assert accepted == sum(o.accepted for o in outcomes)
        for event in verdicts:
            if event["kind"] == "rejection":
                assert event["reason"] in ("instance", "equation", "capacity")

    def test_cache_eviction_event_emitted(self, workload):
        pool, stream = workload
        events = EventLog()
        with ValidationService(
            pool,
            ServiceConfig(shards=1, batch_size=8, match_cache_size=2),
            events=events,
        ) as service:
            service.process(stream)
        evictions = [
            e for e in events.tail() if e["kind"] == "cache_eviction"
        ]
        assert evictions
        assert evictions[0]["cache"] == "match"

    def test_backpressure_event_emitted_on_overload(self, workload):
        pool, stream = workload
        events = EventLog()
        with ValidationService(
            pool,
            ServiceConfig(shards=1, batch_size=64, queue_capacity=8),
            events=events,
        ) as service:
            service.process(stream)
        backpressure = [
            e for e in events.tail() if e["kind"] == "backpressure"
        ]
        assert backpressure
        assert all("shard" in e and "depth" in e for e in backpressure)
