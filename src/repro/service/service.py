"""The validation service: concurrent, batched, cached license serving.

:class:`ValidationService` is the serving-architecture composition of the
whole library -- the ROADMAP's "heavy traffic" layer built directly on
Theorem 2:

1. **match** -- the request's instance-match set is resolved against the
   pool through an LRU memo (:class:`repro.service.cache.MatchCache`);
   an empty set is an instant ``instance`` rejection, never queued;
2. **route** -- the match set belongs to exactly one overlap group
   (Corollary 1.1), and groups are assigned to shards round-robin, so
   the request lands on a single shard's bounded queue (a full queue
   raises :class:`repro.errors.ServiceOverloadedError` -- backpressure);
3. **admit** -- :meth:`drain` runs every busy shard through the
   configured executor; shards process their queues in FIFO batches with
   exact group-restricted headroom admission and one incremental
   revalidation pass per batch.  A caller that must not block first
   calls :meth:`dispatch`, waits for the returned worker pipes, and
   then drains;
4. **account** -- counters (accepted / rejected-by-reason / overload),
   end-to-end latency histograms (p50/p95/p99), per-shard queue-depth
   gauges, and cache statistics land in a
   :class:`repro.service.metrics.MetricsRegistry` with pluggable hooks.

Verdicts depend only on the per-group submission order, so the outcome
stream (ordered by sequence number) is byte-identical for every shard
count and executor backend -- the determinism property the test suite
pins down.

Examples
--------
>>> from repro.workloads.scenarios import example1
>>> scenario = example1()
>>> service = ValidationService(scenario.pool)
>>> [service.issue(usage).accepted for usage in scenario.usages]
[True, True]
>>> service.metrics.counter("requests_total").value(("accepted",))
2
"""

from __future__ import annotations

import time
from multiprocessing.connection import Connection
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.errors import GroupingError, ServiceError, ServiceOverloadedError
from repro.errors import ValidationError
from repro.core.incremental import active_kernel
from repro.licenses.license import UsageLicense
from repro.licenses.pool import LicensePool
from repro.logstore.log import ValidationLog
from repro.matching.index import IndexedMatcher
from repro.obs.events import (
    EVENT_ADMISSION,
    EVENT_BACKPRESSURE,
    EVENT_CACHE_EVICTION,
    EVENT_REJECTION,
    EventLog,
)
from repro.obs.distrib import TIMING_PHASES, ServerTiming
from repro.obs.trace import NULL_SPAN, Span, Tracer, _NullSpan
from repro.online.session import IssuanceOutcome
from repro.service.cache import GroupTables, MatchCache
from repro.service.config import ServiceConfig
from repro.service.executor import SerialExecutor
from repro.service.metrics import MetricsRegistry
from repro.service.resident import ResidentProcessExecutor
from repro.service.shard import (
    ShardQueue,
    ShardRequest,
    ShardResult,
    ShardSpec,
)

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.obs.monitor import Monitor

__all__ = ["ValidationService"]

#: Rejection reason for requests with an empty instance-match set.
REASON_INSTANCE = "instance"
#: Label used on the overload counter and outcome streams.
REASON_OVERLOAD = "overload"


class ValidationService:
    """Group-sharded issuance/validation service over one license pool.

    Parameters
    ----------
    pool:
        The redistribution licenses being served.
    config:
        Tuning knobs; defaults to a single-shard serial service.
    initial_log:
        Previously accepted issuances to replay into the shard state
        before serving (a restarting authority's journal).
    metrics:
        An externally owned registry (e.g. shared across services of one
        distributor); a fresh one is created when omitted.
    tracer:
        Optional :class:`repro.obs.trace.Tracer`.  When given, every
        request grows a span tree (request -> match/queue_wait/admission)
        and every drain one (drain -> shard_batch -> revalidate with
        ``equations_checked``).  Tracing is strictly out-of-band: verdict
        streams are byte-identical with it on or off.
    events:
        Optional :class:`repro.obs.events.EventLog` receiving the
        structured admission/rejection/backpressure/cache-eviction
        journal.
    monitor:
        Optional :class:`repro.obs.monitor.Monitor`.  When given, it is
        attached to this service's registry at construction and ticked
        once per drain, turning the raw telemetry into health
        indicators, SLO grades, and alerts.  Like tracing, monitoring
        is strictly out-of-band: verdict streams are byte-identical
        with a monitor attached or ``monitor=None``.
    """

    def __init__(
        self,
        pool: LicensePool,
        config: Optional[ServiceConfig] = None,
        *,
        initial_log: Optional[ValidationLog] = None,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        events: Optional[EventLog] = None,
        monitor: Optional["Monitor"] = None,
    ):
        if not pool:
            raise ValidationError("service needs a non-empty pool")
        self.config = config or ServiceConfig()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer
        self.events = events
        self._pool = pool
        self._tables = GroupTables(pool)
        self._matcher = MatchCache(
            IndexedMatcher(pool),
            self.config.match_cache_size,
            on_evict=self._on_cache_evict if events is not None else None,
        )
        self._shard_count = min(self.config.shards, self._tables.group_count)
        #: Whether finished requests keep a ServerTiming until popped.
        self._keep_timings = False
        self._request_timings: Dict[int, ServerTiming] = {}
        #: Summed microseconds of each of TIMING_PHASES over the ``_timed``
        #: finished requests (plain ints, outside the metrics registry).
        self._phase_totals_us = [0] * len(TIMING_PHASES)
        self._timed = 0
        self._latency = self.metrics.histogram(
            "latency_seconds", self.config.latency_window
        )
        self._seq = 0
        self._request_spans: Dict[int, object] = {}
        #: The ``drain`` span of a :meth:`dispatch` not yet collected by
        #: :meth:`drain` (``NULL_SPAN`` when untraced), else ``None``.
        self._dispatched: Optional[Span | _NullSpan] = None
        self._pending_outcomes: Dict[int, IssuanceOutcome] = {}
        self._log = ValidationLog()
        #: Why submits, dispatches and drains are refused; empty while
        #: serving.  Set by :meth:`close` and by a failed executor.
        self._refusal = ""
        self.monitor = monitor
        # The coordinator keeps queues and routing (group k -> shard k mod
        # shard_count); the executor builds and owns the equation state.
        group_count = self._tables.group_count
        self._shards: List[ShardQueue] = [
            ShardQueue(
                shard_id,
                range(shard_id, group_count, self._shard_count),
                self.config.queue_capacity,
            )
            for shard_id in range(self._shard_count)
        ]
        self._kernel_by_group: List[str] = [
            active_kernel(self.config.kernel, size, self.config.kernel_cap)
            for size in self._tables.structure.sizes
        ]
        specs = self._build_specs(initial_log)
        self._executor: SerialExecutor | ResidentProcessExecutor
        if self.config.executor == "resident":
            self._executor = ResidentProcessExecutor(
                specs,
                self.config.workers or self._shard_count,
                on_fail=self._refuse_after_failure,
            )
        else:
            self._executor = SerialExecutor(specs)
        if monitor is not None:
            try:
                monitor.attach(self)
            except BaseException:
                # Nothing else owns the workers yet.
                self.close()
                raise

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def pool(self) -> LicensePool:
        """Return the pool being served."""
        return self._pool

    @property
    def shard_count(self) -> int:
        """Return the effective shard count (clamped to the group count)."""
        return self._shard_count

    @property
    def group_count(self) -> int:
        """Return the number of disconnected overlap groups."""
        return self._tables.group_count

    @property
    def group_sizes(self) -> List[int]:
        """Return the member count of each overlap group (the ``N_k`` of
        the paper's Equation 3 denominator)."""
        return list(self._tables.structure.sizes)

    def match_cache_stats(self) -> Tuple[int, int, int]:
        """Return ``(hits, misses, evictions)`` of the match cache."""
        return (self._matcher.hits, self._matcher.misses, self._matcher.evictions)

    @property
    def log(self) -> ValidationLog:
        """Return the log of issuances *this service* accepted (replayed
        initial records are not repeated here)."""
        return self._log

    @property
    def pending(self) -> int:
        """Return the number of queued, not-yet-drained requests."""
        return sum(shard.depth for shard in self._shards)

    def queue_depths(self) -> Dict[int, int]:
        """Return ``{shard_id: depth}`` for all shards."""
        return {shard.shard_id: shard.depth for shard in self._shards}

    @property
    def executor_backend(self) -> str:
        """Return the executor backend running the drains."""
        return self._executor.name

    # ------------------------------------------------------------------
    # Per-request phase timings
    # ------------------------------------------------------------------
    def enable_request_timings(self) -> None:
        """Keep each finished request's phase breakdown until popped.

        Phases are stamped for every request regardless; this only makes
        every sequence id completed from now on own one
        :class:`~repro.obs.distrib.ServerTiming`, claimable exactly once
        via :meth:`pop_request_timing`.  It stays opt-in because a caller
        that never pops would hold one entry per request.
        :class:`repro.net.server.AdmissionServer` turns it on for the v2
        timing echo.
        """
        self._keep_timings = True

    def pop_request_timing(self, seq: int) -> Optional[ServerTiming]:
        """Claim (and forget) the timing breakdown for ``seq``.

        Returns ``None`` when retention is off, the seq is unknown, or
        the timing was already claimed -- callers must pop every
        completed seq to keep the buffer from growing.
        """
        return self._request_timings.pop(seq, None)

    def phase_means_us(self) -> Dict[str, float]:
        """Return the mean microseconds per finished request of each
        server phase (``queue_us``, ``match_us``, ``admission_us``,
        ``revalidate_us``); empty before any request finished."""
        if not self._timed:
            return {}
        return {
            phase: total / self._timed
            for phase, total in zip(TIMING_PHASES, self._phase_totals_us)
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release executor resources (safe to repeat).  Submitting
        afterwards raises."""
        self._executor.close()
        self._refusal = "service is closed"

    def _refuse_after_failure(self) -> None:
        """Refuse all further work once the resident executor failed.

        Its workers' state may have diverged, so no later drain could
        serve a queued request; refusing at submit answers each caller
        at once, instead of filling the queue until submits read as the
        retryable overload.
        """
        self._refusal = "resident executor failed; restart the service"

    def __enter__(self) -> "ValidationService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def submit(
        self,
        usage: UsageLicense,
        *,
        trace_context: Optional[object] = None,
    ) -> int:
        """Match, route, and enqueue one request; return its sequence id.

        Instance rejections are decided immediately (no shard owns them);
        everything else waits for the next :meth:`drain`.

        ``trace_context`` optionally parents this request's span under a
        *remote* span -- any object exposing ``trace_id``/``span_id``
        attributes works (e.g. :class:`repro.obs.distrib.TraceContext`
        decoded from a wire frame), making the request one trace across
        the process boundary.  Ignored when no tracer is configured.

        Raises
        ------
        ServiceOverloadedError
            When the target shard's queue is full.  The request is NOT
            recorded; the caller should drain and resubmit (which
            :meth:`process` automates).
        ServiceError
            When the service is closed, or its executor failed: no later
            drain could serve the request, so retrying cannot help.
        """
        if self._refusal:
            raise ServiceError(self._refusal)
        tracer = self.tracer
        span = (
            tracer.start_span(
                "request", parent=trace_context, usage_id=usage.license_id
            )
            if tracer is not None
            else NULL_SPAN
        )
        if trace_context is not None and span:
            # Both processes draw span ids from identical seeded
            # counters, so the id alone cannot prove a parent lives in
            # another journal; the assembler keys on this marker.
            span.set_attr("remote_parent", True)
        hits = self._matcher.hits if tracer is not None else 0
        received = time.perf_counter()
        matched = tuple(sorted(self._matcher.match(usage)))
        enqueued = time.perf_counter()
        seq = self._seq
        if tracer is not None and span:
            tracer.record(
                "match",
                start=received,
                duration=enqueued - received,
                parent=span,
                attrs={
                    "cache_hit": self._matcher.hits > hits,
                    "matched": len(matched),
                },
            )
            span.set_attr("seq", seq)
        if not matched:
            self._seq += 1
            outcome = IssuanceOutcome(
                usage.license_id,
                usage.count,
                matched,
                False,
                REASON_INSTANCE,
                rejection_detail="no redistribution license contains the request",
            )
            self._pending_outcomes[seq] = outcome
            self._count_outcome(outcome)
            self._emit_outcome_event(seq, outcome)
            self._observe(seq, received, enqueued)
            span.set_attr("outcome", "rejected")
            span.set_attr("reason", REASON_INSTANCE)
            span.end()
            return seq
        group_id = self._tables.group_of[matched[0]]
        shard = self._shards[group_id % self._shard_count]
        request = ShardRequest(
            seq=seq,
            usage_id=usage.license_id,
            group_id=group_id,
            members=matched,
            count=usage.count,
            received=received,
            enqueued=enqueued,
        )
        try:
            shard.enqueue(request)
        except ServiceOverloadedError:
            self.metrics.counter("overload_total").inc((f"shard{shard.shard_id}",))
            if self.events is not None:
                self.events.emit(
                    EVENT_BACKPRESSURE,
                    usage_id=usage.license_id,
                    shard=shard.shard_id,
                    depth=shard.depth,
                )
            span.set_attr("outcome", REASON_OVERLOAD)
            span.end()
            raise
        self._seq += 1
        if span:
            span.set_attr("group_id", group_id)
            span.set_attr("shard", shard.shard_id)
            self._request_spans[seq] = span
        self.metrics.gauge("queue_depth").set(
            shard.depth, (f"shard{shard.shard_id}",)
        )
        return seq

    def dispatch(self) -> List[Connection]:
        """Ship every queued batch to the executor without waiting.

        Returns the worker pipes whose replies the next :meth:`drain`
        collects.  A caller that must not block -- an event loop --
        waits for them to become readable (``loop.add_reader(
        pipe.fileno(), ...)``) and only then drains, so the drain never
        waits in a receive.  The serial executor has no workers: it
        ships nothing, returns ``[]``, and does all the work in
        :meth:`drain`.  Calling :meth:`drain` without a dispatch does
        both halves.
        """
        if self._refusal:
            raise ServiceError(self._refusal)
        busy = [shard for shard in self._shards if shard.depth]
        if busy and self._dispatched is None:
            self._dispatched = self._start_drain_span()
        return self._executor.dispatch(busy)

    def drain(self) -> List[IssuanceOutcome]:
        """Process every queued request; return all newly completed
        outcomes (instant rejects included) in submission order.

        Collects what :meth:`dispatch` shipped and drains whatever it
        did not.
        """
        return [outcome for _seq, outcome in self._drain_completed()]

    def issue(self, usage: UsageLicense) -> IssuanceOutcome:
        """Single-request convenience: submit, drain, return the verdict.

        Matches the :class:`repro.online.session.IssuanceSession.issue`
        shape, so a session can delegate to a service one-for-one.  Any
        outcomes of interleaved :meth:`submit` calls completed by the
        same drain are re-buffered for the next :meth:`drain`.
        """
        seq = self.submit(usage)
        target: Optional[IssuanceOutcome] = None
        for completed_seq, outcome in self._drain_completed():
            if completed_seq == seq:
                target = outcome
            else:
                self._pending_outcomes[completed_seq] = outcome
        assert target is not None  # its shard was just drained
        return target

    def process(
        self, usages: Iterable[UsageLicense]
    ) -> List[IssuanceOutcome]:
        """Serve a whole stream with automatic backpressure handling.

        Submits until a shard pushes back, drains, resubmits, and drains
        the tail; returns outcomes in stream order.  Overload never drops
        a request here -- it only forces an early drain -- so the verdict
        stream is identical for every queue capacity.
        """
        outcomes: Dict[int, IssuanceOutcome] = {}
        order: List[int] = []
        for usage in usages:
            while True:
                try:
                    order.append(self.submit(usage))
                    break
                except ServiceOverloadedError:
                    outcomes.update(self._drain_completed())
        outcomes.update(self._drain_completed())
        return [outcomes[seq] for seq in order]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Return a human-readable metrics report for this service."""
        self.metrics.gauge("match_cache_hits").set(self._matcher.hits)
        self.metrics.gauge("match_cache_misses").set(self._matcher.misses)
        self.metrics.gauge("match_cache_evictions").set(self._matcher.evictions)
        return self.metrics.render(
            title=(
                f"validation service: {self.group_count} group(s) on "
                f"{self._shard_count} shard(s), batch={self.config.batch_size}, "
                f"executor={self.config.executor}"
            )
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drain_completed(self) -> List[Tuple[int, IssuanceOutcome]]:
        """Run busy shards, then hand out ``(seq, outcome)`` pairs sorted
        by sequence number, clearing the completion buffer."""
        if self._refusal:
            raise ServiceError(self._refusal)
        busy = [shard for shard in self._shards if shard.depth]
        drain_span, self._dispatched = self._dispatched, None
        if busy or drain_span is not None:
            if drain_span is None:
                drain_span = self._start_drain_span()
            outputs = self._executor.drain(busy)
            # Resident backend: per-drain IPC is O(batch) -- record it
            # so the bench can prove state never crosses the boundary.
            shipped = getattr(self._executor, "last_drain_bytes", None)
            if shipped is not None:
                self.metrics.counter("ipc_bytes_shipped_total").inc(
                    amount=shipped
                )
            now = time.perf_counter()
            completed_results: List[ShardResult] = []
            revalidate_us: Dict[int, int] = {}
            for shard_id, (results, stats) in outputs:
                self.metrics.gauge("queue_depth").set(
                    self._shards[shard_id].depth, (f"shard{shard_id}",)
                )
                self._observe_batches(
                    drain_span, shard_id, stats.batch_timings, revalidate_us
                )
                self.metrics.counter("batches_total").inc(amount=stats.batches)
                self.metrics.counter("equations_checked_total").inc(
                    amount=stats.equations_checked
                )
                if stats.audit_violations:
                    self.metrics.counter("audit_violations_total").inc(
                        amount=stats.audit_violations
                    )
                # Kernel counters stay silent on pure-tree configs so the
                # metrics surface (and its golden renders) is unchanged
                # unless the dense kernel is actually in play.
                if stats.kernel_fast_path_hits:
                    self.metrics.counter("kernel_fast_path_hits").inc(
                        amount=stats.kernel_fast_path_hits
                    )
                if stats.kernel_fallback:
                    self.metrics.counter("kernel_fallback").inc(
                        amount=stats.kernel_fallback
                    )
                completed_results.extend(results)
            # Complete in global submission order so the service log (and
            # every metric derived from it) is independent of how groups
            # were spread over shards.
            for result in sorted(completed_results, key=lambda r: r.seq):
                self._complete(result, now, revalidate_us.get(result.group_id, 0))
            if drain_span:
                drain_span.set_attr(
                    "shards", len({shard_id for shard_id, _output in outputs})
                )
            drain_span.end()
        if self.monitor is not None:
            self.monitor.tick()
        completed = sorted(self._pending_outcomes.items())
        self._pending_outcomes.clear()
        return completed

    def _start_drain_span(self) -> Span | _NullSpan:
        tracer = self.tracer
        return tracer.start_span("drain") if tracer is not None else NULL_SPAN

    def _build_specs(
        self, initial_log: Optional[ValidationLog] = None
    ) -> List[ShardSpec]:
        """Build one :class:`ShardSpec` per shard, routing each record of
        ``initial_log`` to its group's shard as a preload: O(config +
        journal), no equation state.  A record spanning groups raises
        :class:`GroupingError` before any executor starts."""
        group_of = self._tables.group_of
        preloads: List[List[Tuple[int, Tuple[int, ...], int]]] = [
            [] for _ in self._shards
        ]
        for record in initial_log or ():
            members = tuple(sorted(record.license_set))
            group_id = group_of[members[0]]
            strays = [index for index in members if group_of.get(index) != group_id]
            if strays:
                raise GroupingError(
                    f"journal record {record.issued_id!r}: licenses {strays} "
                    f"are not in group {group_id + 1}"
                )
            preloads[group_id % self._shard_count].append(
                (group_id, members, record.count)
            )
        return [
            ShardSpec(
                shard_id=queue.shard_id,
                group_ids=queue.group_ids,
                batch_size=self.config.batch_size,
                kernel=self.config.kernel,
                kernel_cap=self.config.kernel_cap,
                structure=self._tables.structure,
                aggregates=tuple(self._tables.aggregates),
                preloads=tuple(preloads[queue.shard_id]),
            )
            for queue in self._shards
        ]

    def _complete(
        self, result: ShardResult, completed: float, revalidate_us: int
    ) -> None:
        if result.accepted:
            detail = None
            self._log.record(result.members, result.count, result.usage_id)
        else:
            detail = (
                f"headroom {result.headroom} < requested {result.count} "
                f"in group {result.group_id + 1}"
            )
        outcome = IssuanceOutcome(
            result.usage_id,
            result.count,
            result.members,
            result.accepted,
            result.reason,
            rejection_detail=detail,
        )
        self._pending_outcomes[result.seq] = outcome
        self._count_outcome(outcome)
        self._emit_outcome_event(result.seq, outcome, group_id=result.group_id)
        self._observe(
            result.seq,
            result.received,
            result.enqueued,
            result,
            completed,
            revalidate_us,
        )

    # ------------------------------------------------------------------
    # Timing views: every one is derived from the same clock stamps
    # ------------------------------------------------------------------
    def _observe(
        self,
        seq: int,
        received: float,
        enqueued: float,
        result: Optional[ShardResult] = None,
        completed: float = 0.0,
        revalidate_us: int = 0,
    ) -> None:
        """Derive one finished request's timing views from its stamps.

        The ``latency_seconds`` histogram (enqueue to the drain's end
        at ``completed``), the phase totals behind
        :meth:`phase_means_us`, the retained
        :class:`~repro.obs.distrib.ServerTiming`, and the ``queue_wait``
        and ``admission`` spans read the same stamps as the ``match``
        span recorded at submit, so every view agrees to the
        microsecond.  ``result`` is ``None`` for an instance rejection,
        which never reaches a shard: its queue, admission, and
        revalidate phases are zero and it has no latency sample.
        ``revalidate_us`` is the full time the request's group spent
        revalidating in the drain that completed it -- the time its
        verdict waited for, not a share.
        """
        if result is None:
            dequeued = decided = enqueued
        else:
            dequeued, decided = result.dequeued, result.decided
            self._latency.observe(completed - enqueued)
        queue_us = int((dequeued - enqueued) * 1e6)
        match_us = int((enqueued - received) * 1e6)
        admission_us = int((decided - dequeued) * 1e6)
        totals = self._phase_totals_us
        totals[0] += queue_us
        totals[1] += match_us
        totals[2] += admission_us
        totals[3] += revalidate_us
        self._timed += 1
        if self._keep_timings:
            if result is None:
                shard_id, kernel = -1, "none"
            else:
                shard_id = result.group_id % self._shard_count
                kernel = self._kernel_by_group[result.group_id]
            self._request_timings[seq] = ServerTiming(
                queue_us, match_us, admission_us, revalidate_us, shard_id, kernel
            )
        span = self._request_spans.pop(seq, None)
        tracer = self.tracer
        if span is None or tracer is None or result is None:
            return
        tracer.record(
            "queue_wait", start=enqueued, duration=dequeued - enqueued, parent=span
        )
        tracer.record(
            "admission",
            start=dequeued,
            duration=decided - dequeued,
            parent=span,
            attrs={
                "group_id": result.group_id,
                "headroom": result.headroom,
                "accepted": result.accepted,
            },
        )
        span.set_attr("outcome", "accepted" if result.accepted else "rejected")
        if result.reason:
            span.set_attr("reason", result.reason)
        span.end()

    def _observe_batches(
        self,
        drain_span,
        shard_id: int,
        batch_timings,
        revalidate_us: Dict[int, int],
    ) -> None:
        """Add one shard's per-group revalidation time to ``revalidate_us``
        and, when tracing, stitch its ``shard_batch``/``revalidate`` spans
        under ``drain_span`` (see :attr:`ShardStats.batch_timings`)."""
        tracer = self.tracer
        for size, started, ended, revalidations in batch_timings:
            batch_record = (
                tracer.record(
                    "shard_batch",
                    start=started,
                    duration=ended - started,
                    parent=drain_span,
                    attrs={"shard": shard_id, "batch_size": size},
                )
                if tracer is not None
                else None
            )
            for group_id, checked, violations, begun, done in revalidations:
                revalidate_us[group_id] = revalidate_us.get(group_id, 0) + int(
                    (done - begun) * 1e6
                )
                if tracer is not None and batch_record is not None:
                    tracer.record(
                        "revalidate",
                        start=begun,
                        duration=done - begun,
                        parent=batch_record,
                        attrs={
                            "group_id": group_id,
                            "equations_checked": checked,
                            "violations": violations,
                        },
                    )

    def _count_outcome(self, outcome: IssuanceOutcome) -> None:
        if outcome.accepted:
            self.metrics.counter("requests_total").inc(("accepted",))
        else:
            self.metrics.counter("requests_total").inc(
                ("rejected", outcome.rejection_reason or "unknown")
            )

    # ------------------------------------------------------------------
    # Observability plumbing (all strictly out-of-band)
    # ------------------------------------------------------------------
    def _emit_outcome_event(
        self,
        seq: int,
        outcome: IssuanceOutcome,
        group_id: Optional[int] = None,
    ) -> None:
        if self.events is None:
            return
        if outcome.accepted:
            self.events.emit(
                EVENT_ADMISSION,
                seq_no=seq,
                usage_id=outcome.usage_id,
                count=outcome.count,
                group_id=group_id,
            )
        else:
            self.events.emit(
                EVENT_REJECTION,
                seq_no=seq,
                usage_id=outcome.usage_id,
                count=outcome.count,
                group_id=group_id,
                reason=outcome.rejection_reason,
                detail=outcome.rejection_detail,
            )

    def _on_cache_evict(self, key, _value) -> None:
        self.metrics.counter("match_cache_evictions_total").inc()
        events = self.events
        if events is None:  # pragma: no cover - hook registered iff events
            return
        events.emit(
            EVENT_CACHE_EVICTION,
            cache="match",
            content_id=key[0] if key else None,
        )
