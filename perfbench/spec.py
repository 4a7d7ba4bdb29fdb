"""The benchmark's fixed settings: workloads, frozen rates, metric table.

Everything a later change is compared on lives here and never adapts to
the machine: offered rates, latency limits and stream sizes were picked
once from the closed-loop capacity measured when the benchmark was
introduced, so a faster program shows up as lower latency at the same
offered load.  The rates are about 15% (lo) and 30% (hi) of that
capacity, on the 2-vCPU host this was tuned on, whose speed drifts by
+-30% over seconds.  At half of capacity about half the requests queue
behind another, so the median sits on the edge between waiting and not
waiting and p50 spread 70-90% between runs of unchanged code; at two
thirds, queueing tails spread 40-80%.

On the in-process workloads every reported time is scaled to the speed
of that host: a probe of the host's speed (:func:`host_speed`) runs
before and after each round of passes, and each pass's time is
multiplied by the mean of the two.  The raw figures stay in the run's
details.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Tuple

from repro import ServiceConfig, ValidationService

from perfbench.fixture import Fixture, hot_fixture, unique_fixture

#: The service configuration ``repro serve`` ships by default; kernel,
#: executor and match cache stay at the ``ServiceConfig`` defaults so a
#: change of default is measured here.
SERVICE = {"shards": 4, "batch_size": 32, "queue_capacity": 256}
#: The client's connections (closed loop) or lanes (open loop): at most
#: the host's core count, and never a multi-worker server.
CONNECTIONS = 2
#: Closed-loop passes per measuring round (one open-loop pass per rate).
CLOSED_PER_ROUND = 2
#: Set-up is repeated this often per run; the median is reported.
SETUP_REPEATS = 5
#: Requests per set-up that exercise every lazy path before timing.
WARMUP_REQUESTS = 64
#: Iterations of the host-speed probe, and the probe's median seconds on
#: the host the rates were frozen on.
PROBE_LOOP = 30_000
PROBE_REFERENCE_S = 0.0031


def host_speed() -> float:
    """How fast this host runs the interpreter now, relative to the host
    the benchmark was frozen on (above 1 is faster).

    Over minutes the host's speed moves by up to 1.7x, and ten runs of
    unchanged code then spread past any usable bound; a fixed pure-Python
    loop slows and speeds with it.  The best of three timings ignores a
    stall that hits one of them.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(PROBE_LOOP):
            total += value * value % 7
        best = min(best, time.perf_counter() - started)
    return PROBE_REFERENCE_S / best


def fresh_service(fixture: Fixture) -> ValidationService:
    return ValidationService(
        fixture.pool, ServiceConfig(**SERVICE), initial_log=fixture.journal
    )


def drive_closed(service: ValidationService, stream) -> list:
    """Closed loop in process: ``CONNECTIONS`` requests submitted, then
    drained together, as the wire server does for two waiting clients."""
    outcomes: list = []
    for start in range(0, len(stream), CONNECTIONS):
        for usage in stream[start:start + CONNECTIONS]:
            service.submit(usage)
        outcomes.extend(service.drain())
    return outcomes


@dataclass(frozen=True)
class Workload:
    name: str
    wire: bool
    fixture: Callable[[int], Fixture]
    lo_rps: float
    hi_rps: float
    #: Latency limit of the ``hi`` phase; a request over it, or a failed
    #: one, misses the objective.
    slo_ms: float
    why: str


_UNIQUE = partial(
    unique_fixture, groups=8, group_size=8, requests=400, aggregates=(20, 52)
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "wire-unique",
            wire=True,
            fixture=_UNIQUE,
            lo_rps=100.0,
            hi_rps=180.0,
            slo_ms=20.0,
            why="the canonical 8x8 pool over TCP with unique, mostly accepted "
            "requests; the only workload that runs repro.net",
        ),
        Workload(
            "inproc-unique",
            wire=False,
            fixture=_UNIQUE,
            lo_rps=160.0,
            hi_rps=320.0,
            slo_ms=10.0,
            why="same pool and stream as wire-unique straight into the "
            "service: write-heavy, every match lookup misses the cache",
        ),
        Workload(
            "inproc-hot",
            wire=False,
            fixture=partial(
                hot_fixture,
                groups=4,
                group_size=10,
                requests=800,
                offers_per_size=1,
                history=600,
                aggregates=(20, 60),
            ),
            lo_rps=300.0,
            hi_rps=600.0,
            slo_ms=10.0,
            why="N_k=10 groups under a hot catalog of 40 offers: read-heavy "
            "headroom lookups, most rejected, ~95% match-cache hits",
        ),
    )
}

#: ``(name, unit, better, bound)`` of every end-to-end metric.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("throughput_rps", "1/s", "higher", 0.25),
    ("p50_lo_ms", "ms", "lower", 0.25),
    ("p50_hi_ms", "ms", "lower", 0.25),
    ("slo_met_frac", "frac", "higher", 0.05),
    ("rss_mb", "MB", "lower", 0.1),
)

#: ``(name, unit, better, end-to-end metric it should move, where it is
#: dominant / where it is flat)`` of every per-layer metric.
PER_LAYER: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("net.protocol.decode_us", "us", "lower", "throughput_rps, p50_*",
     "wire-unique / absent in-process"),
    ("net.protocol.encode_us", "us", "lower", "throughput_rps, p50_*",
     "wire-unique / absent in-process"),
    ("net.protocol.bytes_per_req", "B", "lower", "throughput_rps, p50_*",
     "wire-unique / absent in-process"),
    ("net.server.flush_us", "us", "lower", "throughput_rps, p50_hi_ms, slo_met_frac",
     "wire-unique / absent in-process"),
    ("net.server.reqs_per_flush", "count", "higher", "throughput_rps, p50_hi_ms, slo_met_frac",
     "wire-unique / absent in-process"),
    ("net.client.call_us", "us", "lower", "p50_*",
     "wire-unique / absent in-process"),
    ("net.wire_remainder_us", "us", "lower", "p50_*",
     "wire-unique / absent in-process"),
    ("service.submit_us", "us", "lower", "all latencies", "all three"),
    ("service.drain_us", "us", "lower", "all latencies", "all three"),
    ("service.queue_wait_us", "us", "lower", "all latencies", "all three"),
    ("service.cache.match_us", "us", "lower", "throughput_rps",
     "inproc-unique (misses) / inproc-hot (hits)"),
    ("service.cache.hit_ratio", "frac", "higher", "throughput_rps",
     "inproc-hot / 0 on the unique workloads"),
    ("matching.match_us", "us", "lower", "throughput_rps",
     "inproc-unique / small on inproc-hot"),
    ("service.shard.process_us", "us", "lower", "p50_hi_ms, slo_met_frac",
     "all three"),
    ("service.shard.reqs_per_batch", "count", "higher", "p50_hi_ms, slo_met_frac",
     "all three"),
    ("core.incremental.headroom_us", "us", "lower", "throughput_rps, p50_*",
     "inproc-hot (reads), inproc-unique (tree kernel)"),
    ("core.incremental.insert_us", "us", "lower", "throughput_rps",
     "inproc-unique (writes) / small on inproc-hot"),
    ("core.incremental.revalidate_us", "us", "lower", "throughput_rps",
     "inproc-unique (writes) / small on inproc-hot"),
    ("core.incremental.equations_per_req", "count", "lower", "throughput_rps",
     "inproc-unique (writes) / small on inproc-hot"),
    ("core.incremental.accept_ratio", "frac", "higher", "throughput_rps",
     "inproc-unique (writes) / small on inproc-hot"),
    ("service.metrics.observe_us", "us", "lower", "all latencies", "all three"),
    ("trace.coverage_frac", "frac", "higher", "none (validity of the budget)",
     "all three"),
    ("trace.overhead_frac", "frac", "lower", "none (validity of the budget)",
     "all three"),
)
