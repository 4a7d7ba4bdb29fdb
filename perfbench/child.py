"""Serving side of the benchmark, run as a process of its own.

``child.py --workload W --seed N`` builds that workload's inputs, prints
``{"gen_s": ...}`` and then obeys one JSON command per stdin line,
answering each with one JSON line on stdout:

* ``start`` -- a fresh ``ValidationService`` + ``AdmissionServer`` with
  the configuration ``repro serve`` ships; answers ``{"port": ...}``;
* ``trace`` -- time the serving layers until ``stop`` (see
  :mod:`perfbench.tracing`);
* ``stop`` -- shut the server down gracefully and report what it served,
  its peak RSS and, when traced, its spans;
* ``quit``.

With ``--inproc`` it instead measures one in-process set-up: build the
service, push a warm-up pass through it, print the ready line and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.spec import (  # noqa: E402
    WARMUP_REQUESTS,
    WORKLOADS,
    drive_closed,
    fresh_service,
)


def _reply(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def _inputs(workload: str, seed: int):
    started = time.perf_counter()
    fixture = WORKLOADS[workload].fixture(seed)
    return fixture, time.perf_counter() - started


def probe_inproc(workload: str, seed: int) -> None:
    fixture, gen_s = _inputs(workload, seed)
    with fresh_service(fixture) as service:
        drive_closed(service, fixture.stream[:WARMUP_REQUESTS])
    _reply(gen_s=gen_s)


async def serve(workload: str, seed: int) -> None:
    from repro.net.server import AdmissionServer, WireServerConfig

    from perfbench.tracing import (
        SpanRecorder,
        server_targets,
        trace_of,
        wire_targets,
    )

    fixture, gen_s = _inputs(workload, seed)
    loop = asyncio.get_running_loop()
    commands = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(commands), sys.stdin
    )
    _reply(gen_s=gen_s)
    recorder = SpanRecorder()
    service = server = None
    window = []
    while True:
        line = await commands.readline()
        cmd = json.loads(line)["cmd"] if line else "quit"
        if cmd == "start":
            service = fresh_service(fixture)
            server = AdmissionServer(service, WireServerConfig())
            _host, port = await server.start()
            _reply(port=port)
        elif cmd == "trace":
            recorder.spans.clear()
            recorder.install(server_targets() + wire_targets())
            window = [time.perf_counter_ns()]
            _reply(tracing=True)
        elif cmd == "stop":
            trace = None
            if recorder.installed:
                window.append(time.perf_counter_ns())
                recorder.uninstall()
                trace = trace_of(
                    service, recorder.spans, threading.get_ident(), window
                )
            await server.shutdown()
            service.close()
            _reply(
                served=server.requests_served,
                logged=len(service.log),
                executor=service.executor_backend,
                rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                trace=trace,
            )
        else:
            return


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inproc", action="store_true")
    args = parser.parse_args()
    if args.inproc:
        probe_inproc(args.workload, args.seed)
    else:
        asyncio.run(serve(args.workload, args.seed))


if __name__ == "__main__":
    main()
