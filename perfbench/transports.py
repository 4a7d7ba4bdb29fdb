"""The two ways requests reach the service, behind one interface.

:class:`Inproc` calls :class:`ValidationService` directly from this
process; :class:`Wire` talks TCP to an :class:`AdmissionServer` running
in a child process (``perfbench/child.py``).  Both offer:

* ``setup()`` -- launch to ready-to-serve, repeated, median seconds;
* ``closed(stream)`` -- a closed loop of ``CONNECTIONS`` callers, each
  sending its next request when the previous verdict arrives;
* ``open(stream, rate)`` -- requests due on a fixed schedule regardless
  of completions, each timed from its due time.

Every call starts a fresh service, because admission state accumulates.
"""

from __future__ import annotations

import asyncio
import gc
import json
import resource
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional

from repro.errors import ReproError

from perfbench.spec import CONNECTIONS, SETUP_REPEATS, drive_closed, fresh_service
from perfbench.tracing import SpanRecorder, client_targets, server_targets, trace_of

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
#: Seconds the parent waits for any reply of the server child.
CHILD_TIMEOUT = 60.0


@dataclass
class Rep:
    """One pass of a stream through a fresh service."""

    #: Verdict per stream position; ``None`` where the request failed.
    outcomes: List[Optional[object]]
    #: Wall seconds from the first due time to the last verdict.
    elapsed: float
    #: Open loop only: seconds from due time to verdict, ``None`` if failed.
    latencies: Optional[List[Optional[float]]] = None
    #: Open loop only: seconds each request was sent after its due time.
    lags: Optional[List[float]] = None
    #: Verdicts the serving side handed out, and accepted records it logged.
    served: int = 0
    logged: int = 0
    #: Traced passes only: spans and counters of the serving side.
    trace: Optional[dict] = None
    client_spans: Optional[list] = None


def _wait_until(due: float) -> None:
    # Spin rather than sleep: a sleeping virtual CPU can take milliseconds
    # to be scheduled again, which would time the host, not the service.
    while time.perf_counter() < due:
        pass


def _settle() -> None:
    """Collect, then freeze, everything the benchmark holds so far (its
    inputs and earlier passes' verdicts), so the collector's full passes
    during a timed pass walk only what the service itself allocates."""
    gc.collect()
    gc.freeze()


def rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _readline(proc: subprocess.Popen) -> str:
    """The child's next stdout line; fails instead of hanging on it."""
    if not select.select([proc.stdout], [], [], CHILD_TIMEOUT)[0]:
        raise RuntimeError(f"child gave no answer in {CHILD_TIMEOUT:.0f} s")
    return proc.stdout.readline()


def _probe_setup(args: List[str]) -> float:
    """Seconds from launching a child to its ready line, less the time
    the child spent generating benchmark inputs."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(CHILD), *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    try:
        ready = json.loads(_readline(proc) or "{}")
        elapsed = time.perf_counter() - started
        proc.wait(timeout=CHILD_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or "gen_s" not in ready:
        raise RuntimeError(f"set-up child failed (exit {proc.returncode})")
    return elapsed - ready["gen_s"]


class Inproc:
    """Requests submitted straight into the service by one thread."""

    def __init__(self, workload: str, seed: int, fixture):
        self._args = ["--workload", workload, "--seed", str(seed)]
        self._fixture = fixture
        self.executor = ""

    def __enter__(self) -> "Inproc":
        return self

    def __exit__(self, *_exc) -> None:
        pass

    def setup(self, warmup) -> float:
        """Median over fresh processes of imports, service construction
        and a warm-up pass; then warm this process up untimed."""
        seconds = [
            _probe_setup([*self._args, "--inproc"]) for _ in range(SETUP_REPEATS)
        ]
        with fresh_service(self._fixture) as service:
            drive_closed(service, warmup)
            self.executor = service.executor_backend
        return statistics.median(seconds)

    def rss_mb(self) -> float:
        return rss_mb()

    def closed(self, stream, traced: bool = False) -> Rep:
        recorder = SpanRecorder()
        _settle()
        with fresh_service(self._fixture) as service:
            if traced:
                recorder.install(server_targets())
            started = time.perf_counter_ns()
            try:
                outcomes = drive_closed(service, stream)
            finally:
                ended = time.perf_counter_ns()
                recorder.uninstall()
            rep = Rep(outcomes, (ended - started) / 1e9, served=len(outcomes),
                      logged=len(service.log))
            if traced:
                rep.trace = trace_of(service, recorder.spans, None, (started, ended))
        return rep

    def open(self, stream, rate: float) -> Rep:
        """A paced submitter: submit whatever is due, drain, repeat."""
        count = len(stream)
        latencies: List[Optional[float]] = [None] * count
        lags = [0.0] * count
        outcomes: list = []
        _settle()
        with fresh_service(self._fixture) as service:
            first_due = time.perf_counter() + 0.001
            done = first_due
            index = 0
            while index < count:
                _wait_until(first_due + index / rate)
                now = time.perf_counter()
                batch_start = index
                while index < count and first_due + index / rate <= now:
                    lags[index] = time.perf_counter() - (first_due + index / rate)
                    service.submit(stream[index])
                    index += 1
                outcomes.extend(service.drain())
                done = time.perf_counter()
                for position in range(batch_start, index):
                    latencies[position] = done - (first_due + position / rate)
            logged = len(service.log)
        return Rep(outcomes, done - first_due, latencies, lags,
                   served=len(outcomes), logged=logged)


async def _spin() -> None:
    """Keep the client's event loop polling instead of sleeping in
    ``select``, for the same reason as :func:`_wait_until`."""
    while True:
        await asyncio.sleep(0)


async def _call(client, usage):
    try:
        return (await client.call(usage)).outcome
    except (ReproError, OSError, asyncio.TimeoutError):
        return None


class Wire:
    """Requests sent over TCP to an admission server in a child process."""

    def __init__(self, workload: str, seed: int, _fixture):
        self._args = ["--workload", workload, "--seed", str(seed)]
        self._proc: Optional[subprocess.Popen] = None
        self._loop = asyncio.new_event_loop()
        self._rss_kb = 0
        self.executor = ""

    def __enter__(self) -> "Wire":
        return self

    def __exit__(self, *_exc) -> None:
        self._quit()
        self._loop.close()

    # -- child control ------------------------------------------------
    def _launch(self) -> float:
        self._proc = subprocess.Popen(
            [sys.executable, str(CHILD), *self._args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )
        return self._read()["gen_s"]

    def _read(self) -> dict:
        line = _readline(self._proc)
        if not line:
            raise RuntimeError(f"server child exited ({self._proc.poll()})")
        return json.loads(line)

    def _command(self, cmd: str) -> dict:
        self._proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self._proc.stdin.flush()
        return self._read()

    def _quit(self) -> None:
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            if proc.poll() is None:
                proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
                proc.stdin.flush()
            proc.wait(timeout=CHILD_TIMEOUT)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        finally:
            proc.stdin.close()
            proc.stdout.close()

    def _session(self, body, traced: bool = False) -> Rep:
        """Fresh server, ``CONNECTIONS`` clients, run ``body``, stop."""
        from repro.net.client import AdmissionClient

        port = self._command("start")["port"]

        async def run():
            _settle()
            clients = [
                AdmissionClient("127.0.0.1", port, timeout=CHILD_TIMEOUT)
                for _ in range(CONNECTIONS)
            ]
            for client in clients:
                await client.connect()
            spinner = asyncio.ensure_future(_spin())
            recorder = None
            if traced:
                self._command("trace")
                recorder = SpanRecorder()
                recorder.install(client_targets())
            try:
                rep = await body(clients)
            finally:
                spinner.cancel()
                if recorder is not None:
                    recorder.uninstall()
                stats = self._command("stop")
                for client in clients:
                    await client.close()
            rep.served, rep.logged = stats["served"], stats["logged"]
            rep.trace = stats["trace"]
            if recorder is not None:
                rep.client_spans = recorder.spans
            self._rss_kb = max(self._rss_kb, stats["rss_kb"])
            self.executor = stats["executor"]
            return rep

        return self._loop.run_until_complete(run())

    # -- interface ----------------------------------------------------
    def setup(self, warmup) -> float:
        """Median over fresh server processes of spawn, imports, service
        and server construction, connecting, and a warm-up pass (with its
        graceful shutdown)."""
        seconds = []
        for _ in range(SETUP_REPEATS):
            self._quit()
            started = time.perf_counter()
            gen_s = self._launch()
            self.closed(warmup)
            seconds.append(time.perf_counter() - started - gen_s)
        return statistics.median(seconds)

    def rss_mb(self) -> float:
        return self._rss_kb / 1024.0

    def closed(self, stream, traced: bool = False) -> Rep:
        async def body(clients):
            outcomes: List[Optional[object]] = [None] * len(stream)

            async def lane(offset):
                client = clients[offset]
                for index in range(offset, len(stream), CONNECTIONS):
                    outcomes[index] = await _call(client, stream[index])

            started = time.perf_counter()
            await asyncio.gather(*(lane(k) for k in range(CONNECTIONS)))
            return Rep(outcomes, time.perf_counter() - started)

        return self._session(body, traced)

    def open(self, stream, rate: float) -> Rep:
        async def body(clients):
            count = len(stream)
            outcomes: List[Optional[object]] = [None] * count
            latencies: List[Optional[float]] = [None] * count
            lags = [0.0] * count
            first_due = time.perf_counter() + 0.005
            last = [first_due]

            async def timed(index, due):
                outcome = await _call(clients[index % CONNECTIONS], stream[index])
                done = time.perf_counter()
                last[0] = max(last[0], done)
                if outcome is not None:
                    outcomes[index] = outcome
                    latencies[index] = done - due

            tasks = []
            for index in range(count):
                due = first_due + index / rate
                while time.perf_counter() < due:
                    await asyncio.sleep(0)
                lags[index] = time.perf_counter() - due
                tasks.append(asyncio.ensure_future(timed(index, due)))
            await asyncio.gather(*tasks)
            return Rep(outcomes, last[0] - first_due, latencies, lags)

        return self._session(body)
