"""Resident worker executor: ownership, wire format, failure, shutdown.

The resident backend's contract (see :mod:`repro.service.resident`):
workers permanently own shard state -- tree and dense groups alike,
rebuilt from their specs -- drains ship only O(batch) request tuples
and verdicts, a failed executor refuses further work, and shutdown
stops every worker.
"""

import dataclasses
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro.core.incremental import GroupSlice
from repro.errors import GroupingError, ServiceError, ServiceOverloadedError
from repro.logstore.log import ValidationLog
from repro.service import ServiceConfig, ValidationService
from repro.service.resident import (
    ResidentProcessExecutor,
    decode_request,
    decode_result,
    decode_stats,
    encode_request,
    encode_result,
    encode_stats,
)
from repro.service.shard import (
    ShardRequest,
    ShardResult,
    ShardStats,
)
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.scenarios import example1


@pytest.fixture(scope="module")
def workload():
    config = WorkloadConfig(
        n_licenses=16,
        seed=424,
        n_records=0,
        target_groups=5,
        aggregate_range=(150, 500),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = tuple(generator.issue_stream(pool, 160, skew=0.6))
    return pool, stream


def signatures(outcomes):
    return [
        (o.usage_id, o.accepted, o.rejection_reason, o.license_set)
        for o in outcomes
    ]


def poison(spec):
    """Return ``spec`` naming a group that does not exist, so the
    worker's rebuild fails at startup."""
    return dataclasses.replace(spec, group_ids=spec.group_ids + (10_000,))


class TestWireFormat:
    def test_request_round_trip(self):
        request = ShardRequest(
            seq=7,
            usage_id="u7",
            group_id=2,
            members=(3, 5),
            count=11,
            received=1.0,
            enqueued=1.25,
        )
        assert decode_request(encode_request(request)) == request

    def test_result_round_trip(self):
        result = ShardResult(
            seq=9,
            usage_id="u9",
            group_id=1,
            members=(2,),
            count=4,
            accepted=False,
            reason="equation",
            headroom=3,
            received=0.5,
            enqueued=1.0,
            dequeued=1.5,
            decided=1.501,
        )
        assert decode_result(encode_result(result)) == result

    def test_stats_round_trip_with_timings(self):
        stats = ShardStats(
            processed=5,
            batches=2,
            equations_checked=12,
            audit_violations=0,
            kernel_fast_path_hits=5,
            kernel_fallback=0,
            batch_timings=[(3, 10.0, 10.5, ((1, 7, 0, 10.1, 10.3),))],
        )
        decoded = decode_stats(encode_stats(stats))
        assert decoded == stats

    def test_request_rows_are_compact_tuples(self):
        row = encode_request(
            ShardRequest(
                seq=0,
                usage_id="u0",
                group_id=0,
                members=(1,),
                count=1,
                received=0.0,
                enqueued=0.0,
            )
        )
        assert isinstance(row, tuple)
        # No dataclass overhead on the wire: a row pickles far smaller
        # than the dataclass it flattens.
        assert len(pickle.dumps(row)) < 100


class TestResidentService:
    @pytest.mark.parametrize("kernel", ["tree", "dense"])
    def test_verdicts_match_serial(self, workload, kernel):
        pool, stream = workload
        with ValidationService(
            pool, ServiceConfig(shards=4, kernel=kernel)
        ) as serial:
            expected = signatures(serial.process(stream))
        with ValidationService(
            pool,
            ServiceConfig(shards=4, kernel=kernel, executor="resident"),
        ) as resident:
            actual = signatures(resident.process(stream))
        assert actual == expected

    def test_worker_count_clamped_and_configurable(self, workload):
        pool, _stream = workload
        with ValidationService(
            pool,
            ServiceConfig(shards=4, executor="resident", workers=2),
        ) as service:
            assert service._executor.workers == 2
        with ValidationService(
            pool,
            ServiceConfig(shards=2, executor="resident", workers=64),
        ) as service:
            # Never more workers than shards: an idle worker owns nothing.
            assert service._executor.workers == service.shard_count

    def test_replayed_log_reaches_workers(self, workload):
        """Warm restart: state replayed into the coordinator before the
        workers spawn must shape worker verdicts (the specs carry the
        preloads, which each worker replays into its trees and dense
        tables alike)."""
        pool, stream = workload
        head, tail = list(stream[:80]), list(stream[80:])
        for kernel in ("tree", "dense"):
            config = ServiceConfig(shards=3, kernel=kernel)
            with ValidationService(pool, config) as cold:
                cold.process(head)
                log = ValidationLog()
                for record in cold.log:
                    log.record(
                        record.license_set, record.count, record.issued_id
                    )
                expected = signatures(cold.process(tail))
            resident_config = ServiceConfig(
                shards=3, kernel=kernel, executor="resident"
            )
            with ValidationService(
                pool, resident_config, initial_log=log
            ) as warm:
                actual = signatures(warm.process(tail))
            assert actual == expected, kernel

    def test_close_stops_workers(self, workload):
        pool, stream = workload
        config = ServiceConfig(shards=2, kernel="dense", executor="resident")
        service = ValidationService(pool, config)
        service.process(stream[:40])
        procs = list(service._executor._procs)
        assert all(proc.is_alive() for proc in procs)
        service.close()
        assert all(not proc.is_alive() for proc in procs)
        service.close()  # idempotent

    def test_drains_ship_batches_not_state(self, workload):
        """The O(batch) property: per-drain IPC bytes do not grow with
        accumulated kernel state, and are equal -- up to pickle
        integer-width jitter in the stats counters -- whether the group
        engines are dense tables or trees (state never crosses)."""
        pool, stream = workload

        def drain_bytes(kernel):
            sizes = []
            config = ServiceConfig(
                shards=2, batch_size=16, kernel=kernel, executor="resident"
            )
            with ValidationService(pool, config) as service:
                for start in range(0, 120, 40):
                    service.process(stream[start : start + 40])
                    sizes.append(service._executor.last_drain_bytes)
            return sizes

        dense, tree = drain_bytes("dense"), drain_bytes("tree")
        assert all(abs(d - t) <= 64 for d, t in zip(dense, tree))
        # Later drains carry the same-shaped batches while the workers'
        # kernel state keeps growing: bytes must stay flat (within the
        # jitter of variable member tuples), not scale with state.
        assert max(dense) < 2 * min(dense)

    def test_ipc_bytes_counter_exposed(self, workload):
        pool, stream = workload
        config = ServiceConfig(shards=2, executor="resident")
        with ValidationService(pool, config) as service:
            service.process(stream[:30])
            counted = service.metrics.counter(
                "ipc_bytes_shipped_total"
            ).value()
            assert counted == service._executor.bytes_shipped_total
            assert counted > 0

    def test_dispatch_then_drain_matches_process(self, workload):
        """``dispatch()`` ships without waiting and ``drain()`` collects;
        requests submitted in between reach the same shards in a second
        message and are drained too, in submission order."""
        pool, stream = workload
        with ValidationService(pool, ServiceConfig(shards=2)) as reference:
            expected = signatures(reference.process(stream[:60]))
        for executor in ("serial", "resident"):
            config = ServiceConfig(shards=2, executor=executor)
            with ValidationService(pool, config) as service:
                outcomes = []
                for start in range(0, 60, 20):
                    for usage in stream[start:start + 10]:
                        service.submit(usage)
                    pipes = service.dispatch()
                    assert bool(pipes) == (executor == "resident")
                    for usage in stream[start + 10:start + 20]:
                        service.submit(usage)
                    outcomes.extend(service.drain())
                    assert service.pending == 0
                assert signatures(outcomes) == expected
                assert service.dispatch() == []

    def test_failed_drain_requeues_and_poisons_executor(self, workload):
        pool, stream = workload
        config = ServiceConfig(shards=2, executor="resident")
        with ValidationService(pool, config) as service:
            executor = service._executor
            routable = [u for u in stream if service._matcher.match(u)]
            for usage in routable[:6]:
                service.submit(usage)
            pending_before = service.pending
            assert pending_before == 6
            # Sabotage the pipes: the drain must fail, requeue every
            # taken request, and refuse further drains.
            for conn in executor._conns:
                conn.close()
            with pytest.raises(ServiceError):
                service.drain()
            assert service.pending == pending_before
            with pytest.raises(ServiceError):
                executor.drain([])

    def test_failed_executor_refuses_submits_never_overloaded(self, workload):
        """After a worker dies, every later submit is refused with a
        plain ServiceError: the queue of a service that can no longer
        drain never fills up into the retryable overload."""
        pool, stream = workload
        config = ServiceConfig(shards=1, executor="resident", queue_capacity=8)
        with ValidationService(pool, config) as service:
            routable = [u for u in stream if service._matcher.match(u)]
            worker = service._executor._procs[0]
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(5.0)
            errors = []
            for usage in routable[:20]:
                with pytest.raises(ServiceError) as raised:
                    service.submit(usage)
                    service.drain()
                errors.append(raised.value)
            assert not any(
                isinstance(error, ServiceOverloadedError) for error in errors
            )
            # The first request was taken by the failed drain and
            # requeued; every later one was refused at submit.
            assert service.pending == 1
            assert all("restart the service" in str(e) for e in errors[1:])

    def test_failed_drain_requeues_a_dispatched_batch_in_order(self, workload):
        """A batch already in the workers is requeued too, ahead of the
        requests submitted after it was dispatched."""
        pool, stream = workload
        config = ServiceConfig(shards=2, executor="resident")
        with ValidationService(pool, config) as service:
            routable = [u for u in stream if service._matcher.match(u)]
            for usage in routable[:3]:
                service.submit(usage)
            assert service.dispatch()
            for usage in routable[3:6]:
                service.submit(usage)
            assert service.pending == 3
            for conn in service._executor._conns:
                conn.close()
            with pytest.raises(ServiceError):
                service.drain()
            assert service.pending == 6
            for shard in service._shards:
                seqs = [request.seq for request in shard._pending]
                assert seqs == sorted(seqs)

    def test_timings_collected_in_workers(self, workload):
        """Every request is stamped, in the workers too, but only a
        service that asked for retention keeps a timing per seq, and
        each one pops exactly once."""
        pool, stream = workload
        seqs = range(len(stream))
        for executor in ("serial", "resident"):
            config = ServiceConfig(shards=2, executor=executor)
            with ValidationService(pool, config) as service:
                service.process(stream)
                assert service._request_timings == {}
                assert all(service.pop_request_timing(s) is None for s in seqs)
                assert service.phase_means_us()["admission_us"] > 0
            with ValidationService(pool, config) as service:
                service.enable_request_timings()
                outcomes = service.process(stream)
                timings = [service.pop_request_timing(s) for s in seqs]
                assert all(timing is not None for timing in timings)
                assert all(service.pop_request_timing(s) is None for s in seqs)
                assert service._request_timings == {}
                accepted = [
                    timing
                    for timing, outcome in zip(timings, outcomes)
                    if outcome.accepted
                ]
                assert accepted
                assert all(timing.revalidate_us > 0 for timing in accepted)

    def test_workers_exit_when_coordinator_ends_close(self, workload):
        """A worker must see end-of-file once the coordinator's ends of
        the pipes are gone: no forked worker may keep its own pipe, or an
        earlier worker's, open through an inherited descriptor."""
        pool, _stream = workload
        config = ServiceConfig(shards=3, executor="resident")
        with ValidationService(pool, config) as service:
            procs = list(service._executor._procs)
            assert len(procs) == 3
            for conn in service._executor._conns:
                conn.close()
            deadline = time.monotonic() + 2.0
            for proc in procs:
                proc.join(max(0.0, deadline - time.monotonic()))
            assert [proc.exitcode for proc in procs] == [0, 0, 0]

    def test_executor_requires_specs(self):
        with pytest.raises(ServiceError):
            ResidentProcessExecutor((), 2)

    def test_startup_failure_surfaces_worker_error(self, workload):
        pool, _stream = workload
        config = ServiceConfig(shards=2, kernel="dense", executor="resident")
        service = ValidationService(pool, config)
        try:
            specs = service._build_specs()
            children = set(multiprocessing.active_children())
            # The worker's rebuild must fail and the constructor must
            # surface the worker traceback, not hang.
            with pytest.raises(ServiceError, match="failed to start"):
                ResidentProcessExecutor([poison(specs[0]), specs[1]], 2)
            # The healthy worker was stopped, not left serving.
            assert set(multiprocessing.active_children()) == children
        finally:
            service.close()


class TestFailedConstruction:
    """A constructor that raises must stop any worker it started before
    re-raising."""

    def test_failed_replay_starts_no_worker(self):
        log = ValidationLog()
        log.record({1, 2, 3, 4, 5}, 1, "spans-two-groups")
        config = ServiceConfig(shards=2, executor="resident", kernel="dense")
        children = set(multiprocessing.active_children())
        with pytest.raises(GroupingError):
            ValidationService(example1().pool, config, initial_log=log)
        assert set(multiprocessing.active_children()) == children

    def test_failed_worker_startup_stops_every_worker(
        self, workload, monkeypatch
    ):
        pool, _stream = workload
        build_specs = ValidationService._build_specs

        def poison_first(service, initial_log=None):
            specs = build_specs(service, initial_log)
            return [poison(specs[0]), *specs[1:]]

        monkeypatch.setattr(ValidationService, "_build_specs", poison_first)
        config = ServiceConfig(shards=2, executor="resident", kernel="dense")
        children = set(multiprocessing.active_children())
        with pytest.raises(ServiceError, match="failed to start"):
            ValidationService(pool, config)
        assert set(multiprocessing.active_children()) == children


class TestOneBuildPath:
    """Shard state is built once, by the executor that owns it."""

    @pytest.mark.parametrize(
        "executor, built", [("serial", [0, 1]), ("resident", [])]
    )
    def test_coordinator_builds_equation_state_only_when_serial(
        self, monkeypatch, executor, built
    ):
        """The count sees only this process, never a worker."""
        groups = []
        original = GroupSlice.__init__

        def counting(self, structure, aggregates, group_id, **kwargs):
            groups.append(group_id)
            original(self, structure, aggregates, group_id, **kwargs)

        monkeypatch.setattr(GroupSlice, "__init__", counting)
        scenario = example1()
        config = ServiceConfig(shards=2, kernel="dense", executor=executor)
        with ValidationService(scenario.pool, config) as service:
            outcomes = service.process(scenario.usages)
        assert [outcome.accepted for outcome in outcomes] == [True, True]
        assert sorted(groups) == built


#: Child script: under the start method in argv[1], serve a journal-warmed
#: pool on resident and serial, assert equal verdicts, print what ran.
_START_METHOD_CHILD = """
import multiprocessing
import sys

from repro.logstore.log import ValidationLog
from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator


def verdicts(pool, journal, tail, kernel, executor):
    config = ServiceConfig(shards=2, kernel=kernel, executor=executor)
    with ValidationService(pool, config, initial_log=journal) as service:
        return [
            (o.usage_id, o.accepted, o.rejection_reason)
            for o in service.process(tail)
        ]


if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    generator = WorkloadGenerator(
        WorkloadConfig(n_licenses=10, seed=5, n_records=0, target_groups=3)
    )
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, 80, skew=0.6))
    with ValidationService(pool, ServiceConfig(shards=2)) as cold:
        cold.process(stream[:40])
        journal = ValidationLog()
        for record in cold.log:
            journal.record(record.license_set, record.count, record.issued_id)
    for kernel in ("tree", "dense"):
        serial = verdicts(pool, journal, stream[40:], kernel, "serial")
        resident = verdicts(pool, journal, stream[40:], kernel, "resident")
        assert resident == serial, (kernel, resident, serial)
        assert any(accepted for _id, accepted, _reason in serial)
    print(multiprocessing.get_start_method(), len(journal), "ok")
"""


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_resident_verdicts_under_every_start_method(tmp_path, method):
    """Under ``spawn`` and ``forkserver`` a worker sees only its specs,
    never state inherited from the coordinator's heap.  The method is set
    in a child interpreter, never in this test process."""
    script = tmp_path / "serve.py"
    script.write_text(_START_METHOD_CHILD)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.abspath(src), env.get("PYTHONPATH")])
    )
    done = subprocess.run(
        [sys.executable, str(script), method],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    used, journal_records, status = done.stdout.split()
    assert (used, status) == (method, "ok")
    assert int(journal_records) > 0
