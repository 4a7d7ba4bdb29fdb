"""Where a wire flush drains, and what a failed or cancelled drain answers.

The server drains on its event-loop thread with either executor: a
serial drain is CPU work run right there, and a resident drain is
dispatched, its worker pipes awaited on the loop, and only then
collected.  Resident workers are forked, so a ``GroupShard`` method
patched before the service starts is the one they run.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.errors import TransportError
from repro.net.client import AdmissionClient
from repro.net.server import AdmissionServer, WireServerConfig
from repro.service import ServiceConfig, ValidationService
from repro.service.shard import GroupShard

#: Extra seconds every shard drain takes under ``slow_drains``.
SLOW_S = 0.5

#: Two workers; shard 0 belongs to worker 0.
RESIDENT = ServiceConfig(shards=2, executor="resident", workers=2)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="resident workers inherit a patched drain only when forked",
)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def slow_drains(monkeypatch):
    """Make every shard drain sleep ``SLOW_S`` first."""
    original = GroupShard.process_pending

    def slow(shard, requests):
        time.sleep(SLOW_S)
        return original(shard, requests)

    monkeypatch.setattr(GroupShard, "process_pending", slow)


def routed_to_shard0(pool, stream, count):
    """The first ``count`` usages that ``RESIDENT`` queues on shard 0."""
    picked = []
    with ValidationService(pool, ServiceConfig(shards=2)) as probe:
        for usage in stream:
            queued = probe.queue_depths()[0]
            probe.submit(usage)
            if probe.queue_depths()[0] > queued:
                picked.append(usage)
            if len(picked) == count:
                return picked
    raise AssertionError("stream routes too few usages to shard 0")


async def _serve(pool, config, **wire):
    service = ValidationService(pool, config)
    server = AdmissionServer(service, WireServerConfig(**wire))
    host, port = await server.start()
    return service, server, host, port


async def _until(predicate, what, timeout=5.0):
    deadline = time.perf_counter() + timeout
    while not predicate():
        assert time.perf_counter() < deadline, f"never saw {what}"
        await asyncio.sleep(0.005)


def test_serial_drain_runs_on_the_event_loop_thread(workload, monkeypatch):
    pool, stream = workload
    threads = []
    original = GroupShard.process_pending

    def recording(shard, requests):
        threads.append(threading.get_ident())
        return original(shard, requests)

    monkeypatch.setattr(GroupShard, "process_pending", recording)

    async def scenario():
        service, server, host, port = await _serve(pool, ServiceConfig(shards=2))
        try:
            async with AdmissionClient(host, port) as client:
                await client.request_many(list(stream[:30]), window=4)
            return threading.get_ident()
        finally:
            await server.shutdown()
            service.close()

    loop_thread = run(scenario())
    assert threads
    assert set(threads) == {loop_thread}


@needs_fork
def test_ping_answered_while_a_resident_drain_is_outstanding(
    workload, slow_drains
):
    pool, stream = workload
    (usage,) = routed_to_shard0(pool, stream, 1)

    async def scenario():
        service, server, host, port = await _serve(pool, RESIDENT)
        try:
            async with AdmissionClient(host, port) as busy, AdmissionClient(
                host, port
            ) as idle:
                started = time.perf_counter()
                request = asyncio.ensure_future(busy.request(usage))
                # A drain that blocked the loop would submit and answer
                # the request in one loop step: never seen in flight.
                await _until(
                    lambda: server.in_flight == 1, "the request in flight"
                )
                pinged = time.perf_counter()
                await idle.ping()
                pong_s = time.perf_counter() - pinged
                outstanding = not request.done()
                outcome = await request
                answered_s = time.perf_counter() - started
            return outstanding, pong_s, answered_s, outcome
        finally:
            await server.shutdown()
            service.close()

    outstanding, pong_s, answered_s, outcome = run(scenario())
    assert outcome.usage_id == usage.license_id
    # The drain really was slow, and the PONG did not wait for it.
    assert answered_s >= SLOW_S
    assert outstanding
    assert pong_s < SLOW_S / 2


@needs_fork
def test_cancelled_flush_collects_and_answers_its_batch(workload, slow_drains):
    pool, stream = workload
    usages = routed_to_shard0(pool, stream, 4)

    async def scenario():
        service, server, host, port = await _serve(
            pool, RESIDENT, auto_flush=False
        )
        try:
            async with AdmissionClient(host, port) as client:
                requests = [
                    asyncio.ensure_future(client.request(usage))
                    for usage in usages[:3]
                ]
                await _until(lambda: server.in_flight == 3, "3 requests in flight")
                flush = asyncio.ensure_future(server.flush())
                await _until(
                    lambda: service._executor._in_flight, "a dispatched batch"
                )
                flush.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await flush
                # The cancelled flush still collected its batch ...
                assert server.in_flight == 0
                assert service._executor._in_flight == []
                outcomes = await asyncio.wait_for(asyncio.gather(*requests), 5.0)
                # ... and the pipes hold no stale reply for the next one.
                follow_up = asyncio.ensure_future(client.request(usages[3]))
                await _until(lambda: server.in_flight == 1, "the follow-up")
                assert await server.flush() == 1
                outcomes.append(await follow_up)
            return outcomes
        finally:
            await server.shutdown()
            service.close()

    outcomes = run(scenario())
    assert [o.usage_id for o in outcomes] == [u.license_id for u in usages]


@needs_fork
@pytest.mark.parametrize("when", ["before_dispatch", "while_outstanding"])
def test_worker_death_answers_each_request_internal(workload, slow_drains, when):
    pool, stream = workload
    usages = routed_to_shard0(pool, stream, 3)

    async def scenario():
        service, server, host, port = await _serve(pool, RESIDENT)
        worker = service._executor._procs[0]

        def kill_worker():
            os.kill(worker.pid, signal.SIGKILL)
            worker.join(5.0)

        try:
            first = AdmissionClient(host, port, retries=0)
            second = AdmissionClient(host, port, retries=0)
            await first.connect()
            await second.connect()
            if when == "before_dispatch":
                kill_worker()
            answers = [asyncio.ensure_future(first.request(usages[0]))]
            if when == "while_outstanding":
                await _until(lambda: server.in_flight == 1, "a drain outstanding")
            answers.append(asyncio.ensure_future(second.request(usages[1])))
            if when == "while_outstanding":
                kill_worker()
            started = time.perf_counter()
            results = await asyncio.wait_for(
                asyncio.gather(*answers, return_exceptions=True), 5.0
            )
            answer_s = time.perf_counter() - started
            assert server.in_flight == 0
            # The executor stays failed: a retry is refused, never served.
            with pytest.raises(TransportError, match="internal"):
                await first.request(usages[2])
            assert server.in_flight == 0
            assert server.connections_open == 2
            await first.close()
            await second.close()
            await asyncio.wait_for(server.shutdown(), 5.0)
            await asyncio.wait_for(server.wait_drained(), 1.0)
        finally:
            service.close()
        return results, answer_s, server.requests_served

    results, answer_s, served = run(scenario())
    for result in results:
        assert isinstance(result, TransportError)
        assert "'internal'" in str(result)
    assert answer_s < SLOW_S
    assert served == 0


def test_dead_worker_answers_internal_never_overloaded(workload):
    """A service whose executor failed refuses each later request with
    ``internal``: its shard queue never fills up into ``overloaded``,
    which would tell a retrying client to back off and try again."""
    pool, stream = workload
    usages = routed_to_shard0(pool, stream, 20)
    config = ServiceConfig(shards=1, executor="resident", queue_capacity=8)

    async def scenario():
        service, server, host, port = await _serve(pool, config)
        worker = service._executor._procs[0]
        os.kill(worker.pid, signal.SIGKILL)
        worker.join(5.0)
        try:
            client = AdmissionClient(host, port, retries=0)
            await client.connect()
            errors = []
            for usage in usages:
                with pytest.raises(TransportError) as raised:
                    await client.request(usage)
                errors.append(str(raised.value))
            assert server.in_flight == 0
            await client.close()
            await asyncio.wait_for(server.shutdown(), 5.0)
        finally:
            service.close()
        return errors, server.metrics.counter("wire_requests_total")

    errors, requests = run(scenario())
    assert len(errors) == 20
    assert all("'internal'" in error for error in errors)
    assert requests.value(("overloaded",)) == 0
    assert requests.value(("internal",)) == 20
