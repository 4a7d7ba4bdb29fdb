"""Observability for the validation pipeline: tracing, events, exporters.

The serving layer (:mod:`repro.service`) answers *what* happened --
counters, gauges, latency quantiles.  This package answers *why* and
*where*:

* :mod:`repro.obs.trace` -- hierarchical span tracing
  (:class:`Tracer`/:class:`Span`): monotonic-clock timings, parent/child
  nesting, per-span attributes (``group_id``, ``equations_checked``,
  ``cache_hit``), deterministic span ids from a seeded counter, and
  head-based sampling so heavy traffic can keep a representative slice;
* :mod:`repro.obs.events` -- an append-only structured JSONL event log
  (admissions, rejections with reason codes, backpressure, cache
  evictions) with bounded-size rotation;
* :mod:`repro.obs.export` -- renderers: the
  :class:`repro.service.metrics.MetricsRegistry` to Prometheus text
  format or JSON, finished traces to JSONL / ASCII span trees /
  top-N-slowest reports;
* :mod:`repro.obs.instrument` -- the tiny no-op-by-default
  :class:`Instrumentation` protocol the core validators accept, so
  un-instrumented runs pay (almost) nothing;
* :mod:`repro.obs.monitor` -- the consumption layer: windowed metric
  streams, derived health indicators (including the Equation-3
  efficiency-drift signal and wire in-flight saturation), SLO
  error-budget tracking, and an alert engine (static thresholds + EWMA
  anomaly detection) behind one :class:`Monitor` object a service
  accepts via ``monitor=``;
* :mod:`repro.obs.distrib` -- cross-process tracing: the
  :class:`TraceContext` carried in wire REQUEST frames, the
  :class:`ServerTiming` phase breakdown echoed in RESPONSE frames, and
  :func:`assemble`, which merges a client and a server trace journal
  into one clock-aligned span forest.

The contract with the serving layer: observability is strictly
*out-of-band*.  Verdict streams are byte-identical with tracing enabled
or disabled (pinned by ``tests/obs/test_service_tracing.py``), and the
disabled-instrumentation overhead is benchmarked in
``benchmarks/bench_obs_overhead.py``.
"""

from repro.obs.distrib import (
    AssembledTrace,
    ServerTiming,
    TraceContext,
    assemble,
    assemble_files,
)
from repro.obs.events import (
    EVENT_ADMISSION,
    EVENT_ALERT,
    EVENT_BACKPRESSURE,
    EVENT_CACHE_EVICTION,
    EVENT_REJECTION,
    EventLog,
)
from repro.obs.export import (
    load_trace_jsonl,
    parse_prometheus,
    registry_to_json,
    render_prometheus,
    render_span_tree,
    summarize_events,
    top_slowest,
)
from repro.obs.instrument import (
    NOOP,
    CountingInstrumentation,
    Instrumentation,
    TracingInstrumentation,
)
from repro.obs.monitor import (
    EwmaRule,
    HealthThresholds,
    Monitor,
    MonitorConfig,
    Slo,
    ThresholdRule,
)
from repro.obs.trace import NULL_SPAN, SamplingConfig, Span, SpanRecord, Tracer

__all__ = [
    "EVENT_ADMISSION",
    "EVENT_ALERT",
    "EVENT_BACKPRESSURE",
    "EVENT_CACHE_EVICTION",
    "EVENT_REJECTION",
    "AssembledTrace",
    "CountingInstrumentation",
    "EventLog",
    "EwmaRule",
    "HealthThresholds",
    "Instrumentation",
    "Monitor",
    "MonitorConfig",
    "NOOP",
    "NULL_SPAN",
    "SamplingConfig",
    "ServerTiming",
    "Slo",
    "Span",
    "SpanRecord",
    "ThresholdRule",
    "TraceContext",
    "Tracer",
    "TracingInstrumentation",
    "assemble",
    "assemble_files",
    "load_trace_jsonl",
    "parse_prometheus",
    "registry_to_json",
    "render_prometheus",
    "render_span_tree",
    "summarize_events",
    "top_slowest",
]
