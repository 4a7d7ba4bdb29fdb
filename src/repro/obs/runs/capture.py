"""Builders turning live run outputs into :class:`RunRecord` values.

The emitters (``repro serve-bench --record``, ``repro loadgen
--record``, the benchmark session's ``--record-runs``) all end with the
same move: take what the run produced -- a finished
:class:`~repro.service.ValidationService`, a loadgen report JSON, a pile
of bench sections -- and fold it into one registry record.  These
builders own that folding so every emitter captures the same shape and
the attribution engine always finds its fields under the same names.

Builders *never* read ambient time: ``recorded_at`` comes from an
injected clock (0.0 when the caller has none), ids from the registry's
seeded counter, git metadata from an injectable probe.
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Optional

from repro.obs.runs.record import GitProbe, RunRecord, git_metadata
from repro.obs.runs.registry import RunRegistry

__all__ = [
    "build_bench_record",
    "build_loadgen_record",
    "build_serve_bench_record",
    "counter_totals",
]

#: Optional wall clock for ``recorded_at`` (injected, never ambient).
Clock = Callable[[], float]


def counter_totals(snapshot: Mapping[str, object]) -> Dict[str, float]:
    """Flatten a ``MetricsRegistry.snapshot()`` into per-counter totals.

    Label cells are summed (``requests_total`` = accepted + rejected +
    ...), which is the granularity attribution diffs at.
    """
    totals: Dict[str, float] = {}
    counters = snapshot.get("counters")
    if not isinstance(counters, Mapping):
        return totals
    for name, cells in sorted(counters.items()):
        if isinstance(cells, Mapping):
            totals[str(name)] = float(sum(cells.values()))
    return totals


def _stamp(clock: Optional[Clock]) -> float:
    return float(clock()) if clock is not None else 0.0


def build_serve_bench_record(
    registry: RunRegistry,
    service,
    *,
    elapsed: float,
    requests: int,
    accepted: int,
    config: Optional[Mapping[str, object]] = None,
    label: str = "",
    clock: Optional[Clock] = None,
    git_probe: Optional[GitProbe] = None,
) -> RunRecord:
    """Build (not append) a ``serve-bench`` record from a finished
    in-process service run.

    ``phases_us`` holds the service's mean server phases per finished
    request (:meth:`~repro.service.ValidationService.phase_means_us`),
    which are stamped on every run, traced or not.
    """
    snapshot = service.metrics.snapshot()
    latency = service.metrics.histogram("latency_seconds")
    stats: Dict[str, float] = {
        "rps": requests / elapsed if elapsed > 0 else 0.0,
        "p50": latency.quantile(0.50),
        "p95": latency.quantile(0.95),
        "p99": latency.quantile(0.99),
        "requests": float(requests),
        "accepted": float(accepted),
        "rejected": float(requests - accepted),
        "elapsed": float(elapsed),
    }
    health = None
    slos: list = []
    if service.monitor is not None:
        health = service.monitor.snapshot()
        slos = [dict(entry) for entry in health.get("slos", ())]
    return RunRecord(
        run_id=registry.next_run_id(),
        kind="serve-bench",
        label=label,
        recorded_at=_stamp(clock),
        git=git_metadata(git_probe),
        config=dict(config or {}),
        stats=stats,
        phases_us=service.phase_means_us(),
        counters=counter_totals(snapshot),
        metrics=snapshot,
        health=health,
        slos=slos,
    )


def _bench_headline(
    sections: Mapping[str, object],
) -> Dict[str, float]:
    """Pull headline stats out of recorded bench sections.

    The service throughput sweep's highest shard count is the headline
    configuration (it is what the gate's throughput floor watches);
    ``equations`` from the same entry lands in the counters via
    :func:`build_bench_record`.
    """
    stats: Dict[str, float] = {}
    sweep = sections.get("throughput_vs_shards")
    if isinstance(sweep, Mapping):
        runs = sweep.get("runs")
        if isinstance(runs, Mapping) and runs:
            best = runs[max(runs, key=int)]
            if isinstance(best, Mapping):
                for name in ("rps", "p50", "p95", "p99", "elapsed"):
                    if name in best:
                        stats[name] = float(best[name])  # type: ignore[arg-type]
    return stats


def build_bench_record(
    registry: RunRegistry,
    sections: Mapping[str, object],
    artifacts: Mapping[str, str],
    *,
    config: Optional[Mapping[str, object]] = None,
    label: str = "",
    clock: Optional[Clock] = None,
    git_probe: Optional[GitProbe] = None,
) -> RunRecord:
    """Build (not append) a ``bench`` record from one benchmark session.

    ``sections`` are the merged ``BENCH_service.json`` /
    ``BENCH_kernel.json`` payloads the session produced; ``artifacts``
    the rendered ``benchmarks/results`` text summaries keyed by stem.
    """
    counters: Dict[str, float] = {}
    sweep = sections.get("throughput_vs_shards")
    if isinstance(sweep, Mapping):
        runs = sweep.get("runs")
        if isinstance(runs, Mapping) and runs:
            best = runs[max(runs, key=int)]
            if isinstance(best, Mapping) and "equations" in best:
                counters["equations_checked_total"] = float(
                    best["equations"]  # type: ignore[arg-type]
                )
    return RunRecord(
        run_id=registry.next_run_id(),
        kind="bench",
        label=label,
        recorded_at=_stamp(clock),
        git=git_metadata(git_probe),
        config=dict(config or {}),
        stats=_bench_headline(sections),
        counters=counters,
        bench={name: sections[name] for name in sorted(sections)},
        artifacts={stem: str(text) for stem, text in sorted(artifacts.items())},
    )


def build_loadgen_record(
    registry: RunRegistry,
    payload: Mapping[str, object],
    *,
    config: Optional[Mapping[str, object]] = None,
    label: str = "",
    clock: Optional[Clock] = None,
    git_probe: Optional[GitProbe] = None,
) -> RunRecord:
    """Build (not append) a ``loadgen`` record from a
    :meth:`~repro.net.loadgen.LoadReport.to_json` payload.

    The report's ``phases_us`` means carry straight over; the client's
    ``wire`` remainder is normalised to the registry's ``wire_us`` key.
    """
    stats: Dict[str, float] = {}
    for name in ("rps", "p50", "p95", "p99", "elapsed"):
        if name in payload:
            stats[name] = float(payload[name])  # type: ignore[arg-type]
    for name in ("requests", "measured", "accepted", "retries"):
        if name in payload:
            stats[name] = float(payload[name])  # type: ignore[arg-type]
    rejected = payload.get("rejected")
    if isinstance(rejected, Mapping):
        stats["rejected"] = float(sum(rejected.values()))
    phases_us: Dict[str, float] = {}
    raw_phases = payload.get("phases_us")
    if isinstance(raw_phases, Mapping):
        for phase, mean in sorted(raw_phases.items()):
            key = "wire_us" if phase == "wire" else str(phase)
            phases_us[key] = float(mean)  # type: ignore[arg-type]
    counters: Dict[str, float] = {}
    for name in ("overloaded_failures", "retries"):
        if name in payload:
            counters[name] = float(payload[name])  # type: ignore[arg-type]
    return RunRecord(
        run_id=registry.next_run_id(),
        kind="loadgen",
        label=label,
        recorded_at=_stamp(clock),
        git=git_metadata(git_probe),
        config=dict(config or {}),
        stats=stats,
        phases_us=phases_us,
        counters=counters,
    )
