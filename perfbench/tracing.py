"""Per-layer spans recorded from outside the program.

:class:`SpanRecorder` replaces public functions of the serving layers
with timing wrappers for the length of a traced phase and restores them
afterwards; nothing under ``src/`` knows it is being measured.  Spans
stay in memory as ``(layer, thread, start_ns, end_ns, extra)`` tuples.

:func:`self_times` turns the spans of one process into per-layer self
time.  Spans nest per thread; across threads (the wire server drains on
a pool thread while its event loop waits) the most recently started
span of a *running* thread owns each instant.  On the event-loop thread
time spent inside ``select`` is idle, and running time no named span
covers is the unattributed remainder that ``trace.coverage_frac``
reports against.
"""

from __future__ import annotations

import asyncio
import selectors
import statistics
import threading
import time
from bisect import bisect_left
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span name of the event loop's wait in ``select``.
IDLE = "idle"

Span = Tuple[str, int, int, int, object]


def _byte_len(_args, _kwargs, result) -> int:
    return len(result)


def _fed_len(args, _kwargs, _result) -> int:
    return len(args[1])


def _flush_written(_args, _kwargs, result) -> int:
    return result


def _batch_shape(_args, _kwargs, result) -> Tuple[int, int]:
    stats = result[1]
    return stats.processed, stats.batches


def server_targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """``(owner, attribute, layer, extra)`` for every timed server call."""
    from repro.core.incremental import GroupSlice
    from repro.matching.index import IndexedMatcher
    from repro.service.cache import MatchCache
    from repro.service.metrics import Counter, Gauge, Histogram
    from repro.service.service import ValidationService
    from repro.service.shard import GroupShard

    return [
        (ValidationService, "submit", "service.submit", None),
        (ValidationService, "drain", "service.drain", None),
        (MatchCache, "match", "service.cache.match", None),
        (IndexedMatcher, "match", "matching.match", None),
        (GroupShard, "process_pending", "service.shard.process", _batch_shape),
        (GroupSlice, "headroom", "core.incremental.headroom", None),
        (GroupSlice, "headroom_batch", "core.incremental.headroom", None),
        (GroupSlice, "insert", "core.incremental.insert", None),
        (GroupSlice, "revalidate", "core.incremental.revalidate", None),
        (Counter, "inc", "service.metrics.observe", None),
        (Gauge, "set", "service.metrics.observe", None),
        (Histogram, "observe", "service.metrics.observe", None),
    ]


def wire_targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """Timed calls of the wire server, on top of :func:`server_targets`."""
    from repro.net import protocol
    from repro.net.server import AdmissionServer

    return [
        (protocol.FrameDecoder, "feed", "net.protocol.decode", _fed_len),
        (protocol, "usage_from_payload", "net.protocol.decode", None),
        (protocol, "outcome_to_payload", "net.protocol.encode", None),
        (protocol, "encode_frame", "net.protocol.encode", _byte_len),
        (AdmissionServer, "flush", "net.server.flush", _flush_written),
        # The loop's wait for I/O: idle time, never a layer.
        (selectors.DefaultSelector, "select", IDLE, None),
    ]


def client_targets() -> List[Tuple[object, str, str, Optional[Callable]]]:
    """Timed calls of the wire client."""
    from repro.net.client import AdmissionClient

    return [(AdmissionClient, "call", "net.client.call", None)]


class SpanRecorder:
    """Installs timing wrappers and collects their spans in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._undo: List[Tuple[object, str, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    def install(self, targets) -> None:
        for owner, attribute, layer, extra in targets:
            # An inherited method (the selector's ``select``) is shadowed
            # on ``owner`` and later deleted instead of restored.
            inherited = attribute not in vars(owner)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._wrap(original, layer, extra))
            self._undo.append((owner, attribute, None if inherited else original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def _wrap(self, fn, layer: str, extra: Optional[Callable]):
        spans = self.spans
        clock = time.perf_counter_ns
        ident = threading.get_ident
        if asyncio.iscoroutinefunction(fn):

            async def timed_async(*args, **kwargs):
                start = clock()
                result = await fn(*args, **kwargs)
                spans.append(
                    (layer, ident(), start, clock(),
                     extra(args, kwargs, result) if extra else None)
                )
                return result

            return timed_async

        def timed(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            spans.append(
                (layer, ident(), start, clock(),
                 extra(args, kwargs, result) if extra else None)
            )
            return result

        return timed


def self_times(
    spans: List[Span], loop_thread: Optional[int], window: Tuple[int, int]
) -> Tuple[Dict[str, float], float]:
    """Return ``({layer: self_ns}, busy_ns)`` over ``window``.

    ``loop_thread`` is the event-loop thread, which counts as running
    whenever it is outside ``select``; any other thread runs only while
    one of its spans is open.  Busy time is the union of running time;
    the ``None`` key of the result holds running time no span names.
    """
    low, high = window
    events: List[Tuple[int, int, int]] = []  # (time, +1 open / 0 close, index)
    for index, (_layer, _tid, start, end, _x) in enumerate(spans):
        start, end = max(start, low), min(end, high)
        if start < end:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    open_by_thread: Dict[int, List[int]] = defaultdict(list)
    idle_threads = set()
    owned: Dict[Optional[str], float] = defaultdict(float)
    busy = 0.0
    previous = low
    for at, opening, index in events:
        if at > previous:
            owner = _owner(spans, open_by_thread, idle_threads, loop_thread)
            if owner is not IDLE:
                owned[owner] += at - previous
                busy += at - previous
            previous = at
        layer, tid = spans[index][0], spans[index][1]
        if layer == IDLE:
            (idle_threads.add if opening else idle_threads.discard)(tid)
        elif opening:
            open_by_thread[tid].append(index)
        else:
            open_by_thread[tid].remove(index)
    if high > previous:
        owner = _owner(spans, open_by_thread, idle_threads, loop_thread)
        if owner is not IDLE:
            owned[owner] += high - previous
            busy += high - previous
    return dict(owned), busy


def _owner(spans, open_by_thread, idle_threads, loop_thread):
    """Layer owning the current instant: ``IDLE`` when no thread runs,
    ``None`` when only the event loop runs outside every span."""
    best: Optional[int] = None
    loop_running = loop_thread is not None and loop_thread not in idle_threads
    for tid, stack in open_by_thread.items():
        if not stack or tid in idle_threads:
            continue
        top = max(stack, key=lambda i: spans[i][2])
        if best is None or spans[top][2] > spans[best][2]:
            best = top
    if best is not None:
        return spans[best][0]
    return None if loop_running else IDLE


def trace_of(service, spans: List[Span], loop_thread: Optional[int], window) -> dict:
    """One traced pass: its spans plus the service's own counters."""
    hits, misses, _evictions = service.match_cache_stats()
    return {
        "spans": spans,
        "loop_thread": loop_thread,
        "window": list(window),
        "cache": [hits, misses],
        "equations": service.metrics.counter("equations_checked_total").total(),
    }


#: Layers whose self time per request is reported as ``<layer>_us``.
SELF_TIMED_LAYERS = (
    "net.protocol.decode",
    "net.protocol.encode",
    "net.server.flush",
    "service.submit",
    "service.drain",
    "service.cache.match",
    "matching.match",
    "service.shard.process",
    "core.incremental.headroom",
    "core.incremental.insert",
    "core.incremental.revalidate",
    "service.metrics.observe",
)


def layer_budget(reps, overhead_frac: float) -> Dict[str, float]:
    """Per-layer metrics of traced passes (see ``spec.PER_LAYER``).

    Layers a transport never calls (the ``net.*`` ones in process) read
    0.  ``trace.coverage_frac`` is the share of server-side busy time
    that named layers own.
    """
    owned: Dict[Optional[str], float] = defaultdict(float)
    busy = 0.0
    requests = accepted = hits = misses = equations = 0
    wire_bytes = flushes = flushed = processed = batches = 0
    waits: List[int] = []
    calls: List[int] = []
    for rep in reps:
        trace = rep.trace
        spans = trace["spans"]
        layer_ns, busy_ns = self_times(spans, trace["loop_thread"], tuple(trace["window"]))
        for layer, ns in layer_ns.items():
            owned[layer] += ns
        busy += busy_ns
        requests += rep.served
        accepted += sum(1 for outcome in rep.outcomes if outcome and outcome.accepted)
        hits, misses = hits + trace["cache"][0], misses + trace["cache"][1]
        equations += trace["equations"]
        drain_starts = []
        submit_ends = []
        for layer, _tid, start, end, extra in spans:
            if layer in ("net.protocol.decode", "net.protocol.encode") and extra:
                wire_bytes += extra
            elif layer == "net.server.flush" and extra:
                flushes, flushed = flushes + 1, flushed + extra
            elif layer == "service.shard.process":
                processed, batches = processed + extra[0], batches + extra[1]
            elif layer == "service.submit":
                submit_ends.append(end)
            elif layer == "service.drain":
                drain_starts.append(start)
        drain_starts.sort()
        for end in submit_ends:
            after = bisect_left(drain_starts, end)
            if after < len(drain_starts):
                waits.append(drain_starts[after] - end)
        calls.extend(end - start for _l, _t, start, end, _x in rep.client_spans or ())
    per_request_us = 1e-3 / max(requests, 1)
    metrics = {
        f"{layer}_us": owned.get(layer, 0.0) * per_request_us
        for layer in SELF_TIMED_LAYERS
    }
    call_us = statistics.fmean(calls) * 1e-3 if calls else 0.0
    metrics.update({
        "net.protocol.bytes_per_req": wire_bytes / max(requests, 1),
        "net.server.reqs_per_flush": flushed / flushes if flushes else 0.0,
        "net.client.call_us": call_us,
        "net.wire_remainder_us": call_us - busy * per_request_us if calls else 0.0,
        "service.queue_wait_us": statistics.fmean(waits) * 1e-3 if waits else 0.0,
        "service.cache.hit_ratio": hits / max(hits + misses, 1),
        "service.shard.reqs_per_batch": processed / batches if batches else 0.0,
        "core.incremental.equations_per_req": equations / max(requests, 1),
        "core.incremental.accept_ratio": accepted / max(requests, 1),
        "trace.coverage_frac": (busy - owned.get(None, 0.0)) / busy if busy else 0.0,
        "trace.overhead_frac": overhead_frac,
    })
    return metrics
