"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``
    Produce a synthetic workload and write the pool (JSON) and log (JSONL).
``validate``
    Offline-validate a pool + log with a chosen engine.
``experiment``
    Regenerate one of the paper's figures (6-10) as an ASCII table.
``headroom``
    Query how many more counts a license set can absorb given a log.
``diagnose``
    On an invalid log: minimal violated sets + a minimal revocation plan.
``serve-bench``
    Drive a synthetic workload through the group-sharded validation
    service and print its metrics report (throughput, latency
    percentiles, rejection breakdown).  ``--trace``/``--events-out``/
    ``--metrics-out`` export span JSONL, the structured event journal,
    and Prometheus text for offline analysis.
``serve``
    Run the wire-level admission server (:mod:`repro.net`): a framed
    TCP front end over the validation service with bounded in-flight
    backpressure and graceful drain on SIGTERM/SIGINT.  ``--port 0``
    binds an ephemeral port; ``--port-file`` publishes it for scripts.
``loadgen``
    Drive an async open-loop or closed-loop usage stream at a running
    ``serve`` instance and print accepted/rejected counts, throughput,
    and nearest-rank latency percentiles.  The workload knobs
    (``-n``/``--seed``/``--clusters``/``--stream``/``--skew``) must
    match the server's so the regenerated stream matches its pool.
    ``--trace`` writes the client span journal for ``trace-assemble``.
``admin``
    Query a *live* ``serve`` instance over the wire's ADMIN message
    family (protocol v2): metrics snapshot, graded health, SLO
    statuses, top-N slowest server spans, or the event-log tail.
``trace-assemble``
    Merge a client (``loadgen --trace``) and a server (``serve
    --trace``) span journal into one clock-aligned cross-process span
    tree: the server's request subtree parents under the client's
    ``wire_request`` span.
``obs-report``
    Summarize a trace (span trees, slowest spans, per-name totals)
    and/or a structured event log produced by ``serve-bench``.
``report``
    Render the auto-generated performance report from the persistent
    run registry (``benchmarks/runs/registry.jsonl``): run inventory,
    rps/p99 trajectories, phase breakdowns, kernel crossover, and
    cross-run regression attribution.  ``--results-dir`` regenerates
    (or, with ``--check``, drift-checks) the ``benchmarks/results``
    text summaries from the newest recorded bench run.  Runs are
    recorded by ``serve-bench --record`` / ``loadgen --record`` and the
    benchmark suite's ``--record-runs`` / ``REPRO_BENCH_RECORD=1``.
``monitor-report``
    Render monitoring artifacts: the alert timeline from an event
    journal, a health snapshot written by ``serve-bench --health-out``,
    and/or alert/SLO gauges from an exported Prometheus file.
``demo``
    Walk through the paper's Example 1 end to end.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.analysis.experiments import (
    ExperimentSuite,
    render_figure6,
    render_figure7,
    render_figure8,
    render_figure9,
    render_figure10,
)
from repro.core.kernel import KERNEL_NAMES, KERNEL_TREE
from repro.core.validator import GroupedValidator
from repro.licenses.rel import dumps_pool, loads_pool
from repro.logstore.io import dump_log, load_log
from repro.service.config import EXECUTOR_BACKENDS, ServiceConfig
from repro.validation.limits import DEFAULT_KERNEL_CAP
from repro.validation.naive import ExpansionValidator, ScanValidator
from repro.validation.tree import ValidationTree
from repro.validation.tree_validator import TreeValidator
from repro.validation.zeta import ZetaValidator
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

if TYPE_CHECKING:  # pragma: no cover - imports for annotations only
    from repro.licenses.pool import LicensePool
    from repro.logstore.log import ValidationLog
    from repro.obs.monitor import Slo

__all__ = ["main", "build_parser"]


def _add_workload_flags(
    parser: argparse.ArgumentParser, *, stream: bool = True
) -> None:
    """Add the synthetic-workload knobs of ``serve-bench``, ``serve`` and
    ``loadgen`` (see :func:`_wire_workload`); ``serve`` only needs the
    pool's, not the request stream's."""
    parser.add_argument("-n", "--licenses", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--clusters", type=int, default=8)
    if stream:
        parser.add_argument("--stream", type=int, default=1000)
        parser.add_argument("--skew", type=float, default=0.0)


def _add_service_flags(parser: argparse.ArgumentParser) -> None:
    """Add the :class:`ServiceConfig` knobs of ``serve-bench`` and
    ``serve`` (read back by :func:`_service_config`)."""
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument(
        "--executor", choices=EXECUTOR_BACKENDS, default="serial",
        help="drain scheduling backend: 'serial' drains in the caller; "
             "'resident' keeps long-lived worker processes that own "
             "shard state (O(batch) IPC per drain)",
    )
    parser.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="resident-backend worker processes (0 = one per shard)",
    )
    parser.add_argument("--queue-capacity", type=int, default=256)
    parser.add_argument(
        "--kernel", choices=KERNEL_NAMES, default=KERNEL_TREE,
        help="per-group equation engine: 'tree' walks the validation tree "
             "of [10]; 'dense' keeps resident headroom tables for O(1) "
             "admission (identical verdicts, different cost model)",
    )
    parser.add_argument(
        "--kernel-cap", type=int, default=DEFAULT_KERNEL_CAP, metavar="N",
        help="largest group size served by the dense kernel; bigger "
             "groups fall back to the tree walk (default %(default)s)",
    )


def _service_config(args: argparse.Namespace) -> ServiceConfig:
    """Build the :class:`ServiceConfig` the service flags describe."""
    return ServiceConfig(
        shards=args.shards,
        batch_size=args.batch,
        queue_capacity=args.queue_capacity,
        executor=args.executor,
        workers=args.workers,
        kernel=args.kernel,
        kernel_cap=args.kernel_cap,
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Geometric DRM license validation (paper reproduction).",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="generate a synthetic workload")
    generate.add_argument("-n", "--licenses", type=int, required=True)
    generate.add_argument("--records", type=int, default=None)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--pool-out", default="pool.json")
    generate.add_argument("--log-out", default="log.jsonl")

    validate = commands.add_parser("validate", help="offline-validate a pool + log")
    validate.add_argument("--pool", required=True)
    validate.add_argument("--log", required=True)
    validate.add_argument(
        "--engine",
        choices=["grouped", "grouped-zeta", "tree", "scan", "expansion", "zeta"],
        default="grouped",
    )

    experiment = commands.add_parser("experiment", help="regenerate a paper figure")
    experiment.add_argument("figure", type=int, choices=[6, 7, 8, 9, 10])
    experiment.add_argument(
        "--sweep", type=int, nargs="+", default=None, metavar="N"
    )
    experiment.add_argument("--seed", type=int, default=0)
    experiment.add_argument("--records-per-license", type=int, default=60)

    headroom = commands.add_parser(
        "headroom", help="remaining capacity for a license set"
    )
    headroom.add_argument("--pool", required=True)
    headroom.add_argument("--log", required=True)
    headroom.add_argument(
        "--set", required=True, type=int, nargs="+", metavar="INDEX",
        help="1-based license indexes of the set",
    )

    diagnose = commands.add_parser(
        "diagnose", help="minimal violations + revocation plan for a log"
    )
    diagnose.add_argument("--pool", required=True)
    diagnose.add_argument("--log", required=True)

    profile = commands.add_parser(
        "profile", help="shape statistics of a pool + log workload"
    )
    profile.add_argument("--pool", required=True)
    profile.add_argument("--log", required=True)

    simulate = commands.add_parser(
        "simulate", help="compare online validation policies on one stream"
    )
    simulate.add_argument("-n", "--licenses", type=int, default=8)
    simulate.add_argument("--stream", type=int, default=400)
    simulate.add_argument("--seed", type=int, default=0)

    serve = commands.add_parser(
        "serve-bench", help="drive a workload through the validation service"
    )
    _add_workload_flags(serve)
    _add_service_flags(serve)
    serve.add_argument(
        "--compare", action="store_true",
        help="also sweep shard counts {1, 2, 4, 8} and print a table",
    )
    serve.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the run's span tree as JSONL (enables tracing)",
    )
    serve.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="head-sampling rate for traces (default 1.0 = keep all)",
    )
    serve.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the structured event journal (admissions, rejections, "
             "backpressure) as JSONL",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics registry in Prometheus text format",
    )
    serve.add_argument(
        "--slo", action="append", default=None, metavar="SPEC",
        help="attach a monitor with this SLO; SPEC is "
             "'availability:OBJECTIVE' or 'latency:OBJECTIVE:TARGET_SECONDS' "
             "(repeatable)",
    )
    serve.add_argument(
        "--health-out", default=None, metavar="PATH",
        help="attach a monitor and write its final snapshot "
             "(health/SLOs/alerts) as JSON",
    )
    serve.add_argument(
        "--record", default=None, metavar="DIR",
        help="append this run to the persistent run registry rooted at "
             "DIR (registry.jsonl; see 'repro report')",
    )
    serve.add_argument(
        "--record-label", default="", metavar="LABEL",
        help="free-form label stored with the recorded run",
    )

    wire = commands.add_parser(
        "serve", help="run the wire-level admission server"
    )
    _add_workload_flags(wire, stream=False)
    _add_service_flags(wire)
    wire.add_argument("--host", default="127.0.0.1")
    wire.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default 0 = ephemeral)",
    )
    wire.add_argument(
        "--port-file", default=None, metavar="PATH",
        help="write the bound port number here once listening "
             "(ephemeral-port discovery for scripts)",
    )
    wire.add_argument(
        "--max-inflight", type=int, default=256,
        help="bounded in-flight admission window; excess requests get "
             "wire-level OVERLOADED responses (default 256)",
    )
    wire.add_argument(
        "--events-out", default=None, metavar="PATH",
        help="write the structured event journal (conn_open/conn_close/"
             "drain plus admission events) as JSONL",
    )
    wire.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write the final metrics registry in Prometheus text format",
    )
    wire.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the server span journal as JSONL on drain; spans of "
             "v2 requests parent under the client's wire_request span "
             "(merge with the client journal via trace-assemble)",
    )
    wire.add_argument(
        "--sample-rate", type=float, default=1.0,
        help="head-sampling rate for server traces (default 1.0); "
             "remote-parented request spans are always kept",
    )
    wire.add_argument(
        "--monitor", action="store_true",
        help="attach a default monitor so admin health/slo queries "
             "answer with graded indicators",
    )

    loadgen = commands.add_parser(
        "loadgen", help="drive async load at a running serve instance"
    )
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True)
    _add_workload_flags(loadgen)
    loadgen.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = fixed concurrency, back-to-back; "
             "open = fixed arrival rate (default closed)",
    )
    loadgen.add_argument("--concurrency", type=int, default=4)
    loadgen.add_argument(
        "--rate", type=float, default=500.0,
        help="open-loop arrival rate in requests/second (default 500)",
    )
    loadgen.add_argument(
        "--warmup", type=int, default=0,
        help="leading responses excluded from the measured window",
    )
    loadgen.add_argument("--timeout", type=float, default=10.0)
    loadgen.add_argument("--retries", type=int, default=4)
    loadgen.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the report summary as JSON",
    )
    loadgen.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the client span journal (one wire_request span per "
             "request, context propagated to the server) as JSONL",
    )
    loadgen.add_argument(
        "--record", default=None, metavar="DIR",
        help="append this run (stats + server phase means) to the "
             "persistent run registry rooted at DIR",
    )
    loadgen.add_argument(
        "--record-label", default="", metavar="LABEL",
        help="free-form label stored with the recorded run",
    )

    admin = commands.add_parser(
        "admin", help="query a live serve instance over the ADMIN channel"
    )
    admin.add_argument(
        "query",
        choices=["metrics", "health", "slo", "slowest", "events"],
        help="metrics = registry snapshot; health = wire window + graded "
             "indicators; slo = error-budget statuses; slowest = top-N "
             "server spans; events = event-log tail",
    )
    admin.add_argument("--host", default="127.0.0.1")
    admin.add_argument("--port", type=int, required=True)
    admin.add_argument(
        "--limit", type=int, default=None,
        help="result cap for slowest/events (server default 10/50)",
    )

    trace_assemble = commands.add_parser(
        "trace-assemble",
        help="merge client and server trace journals into one "
             "cross-process span tree",
    )
    trace_assemble.add_argument(
        "--client", required=True, metavar="PATH",
        help="client span JSONL (loadgen --trace)",
    )
    trace_assemble.add_argument(
        "--server", required=True, metavar="PATH",
        help="server span JSONL (serve --trace)",
    )
    trace_assemble.add_argument(
        "--max-traces", type=int, default=3,
        help="how many merged trees to render, in start order (default 3)",
    )
    trace_assemble.add_argument(
        "--no-align", action="store_true",
        help="skip midpoint-rule clock-skew alignment of server spans",
    )
    trace_assemble.add_argument(
        "--json-out", default=None, metavar="PATH",
        help="also write the merged span forest + summary as JSON",
    )

    obs_report = commands.add_parser(
        "obs-report", help="summarize a trace and/or event file"
    )
    obs_report.add_argument(
        "--trace", default=None, metavar="PATH",
        help="span JSONL produced by serve-bench --trace",
    )
    obs_report.add_argument(
        "--events", default=None, metavar="PATH",
        help="event JSONL produced by serve-bench --events-out",
    )
    obs_report.add_argument(
        "--top", type=int, default=10,
        help="how many slowest spans to list (default 10)",
    )
    obs_report.add_argument(
        "--max-traces", type=int, default=3,
        help="how many span trees to render, in start order (default 3)",
    )

    monitor_report = commands.add_parser(
        "monitor-report", help="render monitoring artifacts"
    )
    monitor_report.add_argument(
        "--health", default=None, metavar="PATH",
        help="health snapshot JSON from serve-bench --health-out",
    )
    monitor_report.add_argument(
        "--events", default=None, metavar="PATH",
        help="event JSONL (the alert timeline is extracted)",
    )
    monitor_report.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="Prometheus text from serve-bench --metrics-out "
             "(alert/SLO gauges are extracted)",
    )

    run_report = commands.add_parser(
        "report",
        help="render the performance report from the persistent run "
             "registry (or regenerate/check benchmarks/results)",
    )
    run_report.add_argument(
        "--runs-dir", default="benchmarks/runs", metavar="DIR",
        help="registry directory (default benchmarks/runs)",
    )
    run_report.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the markdown report here instead of stdout",
    )
    run_report.add_argument(
        "--title", default="Performance report",
        help="report heading (default 'Performance report')",
    )
    run_report.add_argument(
        "--results-dir", default=None, metavar="DIR",
        help="instead of the report, regenerate the benchmark results "
             "text summaries in DIR from the newest recorded bench run",
    )
    run_report.add_argument(
        "--check", action="store_true",
        help="with --results-dir: verify the on-disk summaries match "
             "the registry instead of rewriting them (exit 1 on drift)",
    )

    conformance = commands.add_parser(
        "conformance", help="run the built-in conformance vectors"
    )
    conformance.add_argument(
        "--export-dir", default=None,
        help="also write the vectors as JSON files into this directory",
    )

    lint = commands.add_parser(
        "lint", help="run the repository's AST-based invariant checker"
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    commands.add_parser("demo", help="walk through the paper's Example 1")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    config = WorkloadConfig(
        n_licenses=args.licenses, seed=args.seed, n_records=args.records
    )
    generator = WorkloadGenerator(config)
    workload = generator.generate()
    with open(args.pool_out, "w", encoding="utf-8") as stream:
        stream.write(dumps_pool(workload.pool, workload.schema, indent=2))
    records = dump_log(workload.log, args.log_out)
    print(
        f"wrote {len(workload.pool)} licenses to {args.pool_out} "
        f"and {records} log records to {args.log_out}"
    )
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    with open(args.pool, "r", encoding="utf-8") as stream:
        pool, _schema = loads_pool(stream.read())
    log = load_log(args.log)
    aggregates = pool.aggregate_array()
    if args.engine == "grouped":
        report = GroupedValidator.from_pool(pool).validate(log)
    elif args.engine == "grouped-zeta":
        from repro.core.grouped_zeta import GroupedZetaValidator

        report = GroupedZetaValidator.from_pool(pool).validate(log)
    elif args.engine == "tree":
        report = TreeValidator(aggregates).validate(ValidationTree.from_log(log))
    elif args.engine == "scan":
        report = ScanValidator(aggregates).validate_log(log)
    elif args.engine == "expansion":
        report = ExpansionValidator(aggregates).validate_log(log)
    else:
        report = ZetaValidator(aggregates).validate_log(log)
    print(report)
    return 0 if report.is_valid else 1


def _cmd_experiment(args: argparse.Namespace) -> int:
    suite = ExperimentSuite(
        n_values=args.sweep or None or ExperimentSuite().n_values,
        seed=args.seed,
        records_per_license=args.records_per_license,
    )
    if args.figure == 6:
        print(render_figure6(suite.figure6()))
    elif args.figure == 7:
        from repro.analysis.charts import timing_chart

        rows = suite.figure7()
        print(render_figure7(rows))
        print()
        print(timing_chart(rows, title="Figure 7"))
    elif args.figure == 8:
        rows = suite.figure7()
        print(render_figure8(suite.figure8(rows)))
    elif args.figure == 9:
        print(render_figure9(suite.figure9()))
    else:
        print(render_figure10(suite.figure10()))
    return 0


def _load_pool_and_log(
    args: argparse.Namespace,
) -> "Tuple[LicensePool, ValidationLog]":
    with open(args.pool, "r", encoding="utf-8") as stream:
        pool, _schema = loads_pool(stream.read())
    return pool, load_log(args.log)


def _cmd_headroom(args: argparse.Namespace) -> int:
    pool, log = _load_pool_and_log(args)
    validator = GroupedValidator.from_pool(pool)
    slack = validator.headroom(log, set(args.set))
    names = ", ".join(pool[i].license_id for i in sorted(set(args.set)))
    print(f"headroom for {{{names}}}: {slack} counts")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.validation.diagnosis import minimal_violations, revocation_plan
    from repro.validation.bitset import indexes_of

    pool, log = _load_pool_and_log(args)
    report = GroupedValidator.from_pool(pool).validate(log)
    print(report.summary())
    if report.is_valid:
        return 0
    print("minimal violated sets:")
    for violation in minimal_violations(report):
        names = ", ".join(
            pool[i].license_id for i in sorted(violation.license_set)
        )
        print(f"  {{{names}}}: issued {violation.lhs} > capacity {violation.rhs}")
    total, plan = revocation_plan(log.counts_by_mask(), pool.aggregate_array())
    print(f"minimum counts to revoke: {total}")
    for mask, amount in sorted(plan.items()):
        names = ", ".join(pool[i].license_id for i in indexes_of(mask))
        print(f"  revoke {amount} from issuances matched to {{{names}}}")
    return 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.analysis.profile import profile_workload

    pool, log = _load_pool_and_log(args)
    print(profile_workload(pool, log).render())
    validator = GroupedValidator.from_pool(pool)
    print()
    print(validator.explain())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.analysis.tables import render_table
    from repro.online.session import IssuanceSession
    from repro.online.strategies import (
        BestFit,
        FirstFit,
        GreedyMaxRemaining,
        LastFit,
        RandomPick,
    )

    config = WorkloadConfig(
        n_licenses=args.licenses,
        seed=args.seed,
        n_records=0,
        aggregate_range=(300, 900),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, args.stream))
    rows = []
    for policy in (RandomPick(seed=args.seed), LastFit(), FirstFit(),
                   BestFit(), GreedyMaxRemaining(), "equation"):
        session = IssuanceSession(pool, policy)
        for usage in stream:
            session.issue(usage)
        accepted = sum(outcome.accepted for outcome in session.outcomes)
        rows.append(
            [session.policy_name, accepted, len(stream) - accepted,
             session.accepted_counts]
        )
    print(
        render_table(
            ["policy", "accepted", "rejected", "counts served"],
            rows,
            title=(
                f"Online policies: N={args.licenses}, "
                f"{len(stream)} usage licenses"
            ),
        )
    )
    return 0


def _parse_slo_spec(spec: str) -> "Slo":
    """Parse a ``--slo`` spec: ``availability:OBJ`` / ``latency:OBJ:TARGET``."""
    from repro.errors import ServiceError
    from repro.obs.monitor import Slo

    parts = spec.split(":")
    if parts[0] == "availability" and len(parts) == 2:
        return Slo("availability", objective=float(parts[1]))
    if parts[0] == "latency" and len(parts) == 3:
        return Slo(
            "latency",
            objective=float(parts[1]),
            kind="latency",
            latency_target=float(parts[2]),
        )
    raise ServiceError(
        f"bad --slo spec {spec!r}: expected 'availability:OBJECTIVE' or "
        "'latency:OBJECTIVE:TARGET_SECONDS'"
    )


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import time

    from repro.analysis.tables import render_table
    from repro.service import ValidationService

    generator, pool = _wire_workload(args)
    stream = list(generator.issue_stream(pool, args.stream, skew=args.skew))

    tracer = None
    events = None
    if args.trace:
        from repro.obs.trace import SamplingConfig, Tracer

        tracer = Tracer(SamplingConfig(rate=args.sample_rate))
    if args.events_out:
        from repro.obs.events import EventLog

        events = EventLog(args.events_out)
    monitor = None
    if args.slo or args.health_out:
        from repro.obs.monitor import Monitor, MonitorConfig

        config_kwargs = {}
        if args.slo:
            config_kwargs["slos"] = tuple(
                _parse_slo_spec(spec) for spec in args.slo
            )
        monitor = Monitor(MonitorConfig(**config_kwargs), events=events)

    def run(shards: int, *, observed: bool = False):
        service = ValidationService(
            pool,
            replace(_service_config(args), shards=shards),
            tracer=tracer if observed else None,
            events=events if observed else None,
            monitor=monitor if observed else None,
        )
        started = time.perf_counter()
        outcomes = service.process(stream)
        elapsed = time.perf_counter() - started
        service.close()
        return service, outcomes, elapsed

    service, outcomes, elapsed = run(args.shards, observed=True)
    accepted = sum(outcome.accepted for outcome in outcomes)
    print(service.report())
    print()
    print(
        f"{len(stream)} requests in {elapsed:.3f}s -> "
        f"{len(stream) / elapsed:,.0f} req/s "
        f"({accepted} accepted, {len(stream) - accepted} rejected; "
        f"{service.group_count} group(s) on {service.shard_count} shard(s))"
    )
    if monitor is not None:
        print()
        print(monitor.report())
    if args.health_out:
        import json

        with open(args.health_out, "w", encoding="utf-8") as handle:
            json.dump(monitor.snapshot(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote health snapshot to {args.health_out}")
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(
            f"wrote {len(tracer.records())} span(s) "
            f"({tracer.roots_sampled}/{tracer.roots_started} roots sampled) "
            f"to {args.trace}"
        )
    if events is not None:
        events.close()
        print(f"wrote {events.emitted} event(s) to {args.events_out}")
    if args.metrics_out:
        from repro.obs.export import render_prometheus

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(service.metrics))
        print(f"wrote Prometheus metrics to {args.metrics_out}")
    if args.record:
        from repro.obs.runs import RunRegistry, build_serve_bench_record

        registry = RunRegistry(args.record)
        record = registry.append(
            build_serve_bench_record(
                registry,
                service,
                elapsed=elapsed,
                requests=len(stream),
                accepted=accepted,
                config={
                    "licenses": args.licenses,
                    "stream": args.stream,
                    "seed": args.seed,
                    "shards": args.shards,
                    "batch": args.batch,
                    "executor": service.executor_backend,
                    "workers": args.workers,
                    "kernel": args.kernel,
                    "clusters": args.clusters,
                    "skew": args.skew,
                },
                label=args.record_label,
            )
        )
        print(f"recorded {record.run_id} in {registry.path}")
    if args.compare:
        rows = []
        reference = [outcome.accepted for outcome in outcomes]
        for shards in (1, 2, 4, 8):
            swept_service, swept, swept_elapsed = run(shards)
            assert [outcome.accepted for outcome in swept] == reference, (
                "verdict stream changed with shard count"
            )
            rows.append(
                [
                    shards,
                    swept_service.shard_count,
                    f"{len(stream) / swept_elapsed:,.0f}",
                    f"{swept_elapsed:.3f}",
                ]
            )
        print()
        print(
            render_table(
                ["shards requested", "effective", "req/s", "seconds"],
                rows,
                title=f"Shard sweep ({args.executor} executor, verdicts identical)",
            )
        )
    return 0


def _wire_workload(args: argparse.Namespace) -> "Tuple[WorkloadGenerator, LicensePool]":
    """Regenerate the shared serve-bench/serve/loadgen workload
    deterministically.

    Every command builds the same :class:`WorkloadConfig` from the same
    knobs, so a ``loadgen`` run pointed at a ``serve`` run with matching
    ``-n``/``--seed``/``--clusters`` issues exactly the stream the
    server's pool was generated for.
    """
    config = WorkloadConfig(
        n_licenses=args.licenses,
        seed=args.seed,
        n_records=0,
        target_groups=min(args.clusters, args.licenses),
        aggregate_range=(300, 900),
    )
    generator = WorkloadGenerator(config)
    return generator, generator.generate_pool()


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.net.server import AdmissionServer, WireServerConfig
    from repro.service import ValidationService

    _generator, pool = _wire_workload(args)
    events = None
    if args.events_out:
        from repro.obs.events import EventLog

        events = EventLog(args.events_out)
    tracer = None
    if args.trace:
        from repro.obs.trace import SamplingConfig, Tracer

        tracer = Tracer(SamplingConfig(rate=args.sample_rate))
    monitor = None
    if args.monitor:
        from repro.obs.monitor import Monitor, MonitorConfig

        monitor = Monitor(MonitorConfig(), events=events)
    service = ValidationService(
        pool,
        _service_config(args),
        tracer=tracer,
        events=events,
        monitor=monitor,
    )
    server = AdmissionServer(
        service,
        WireServerConfig(
            host=args.host, port=args.port, max_inflight=args.max_inflight
        ),
    )

    async def _serve() -> None:
        host, port = await server.start()
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as handle:
                handle.write(f"{port}\n")
        print(
            f"serving {len(pool)} license(s) on {host}:{port} "
            f"(max in-flight {args.max_inflight}); "
            "SIGTERM/SIGINT drains and exits",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await server.shutdown()

    asyncio.run(_serve())
    print(
        f"drained: {server.requests_served} request(s) served, "
        f"{server.in_flight} in flight",
        flush=True,
    )
    service.close()
    if events is not None:
        events.close()
        print(f"wrote {events.emitted} event(s) to {args.events_out}")
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"wrote {len(tracer.records())} span(s) to {args.trace}")
    if args.metrics_out:
        from repro.obs.export import render_prometheus

        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(render_prometheus(service.metrics))
        print(f"wrote Prometheus metrics to {args.metrics_out}")
    return 0


def _cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.net.loadgen import LoadGenerator, LoadgenConfig

    generator, pool = _wire_workload(args)
    stream = list(generator.issue_stream(pool, args.stream, skew=args.skew))
    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer()
    load = LoadGenerator(
        LoadgenConfig(
            mode=args.mode,
            concurrency=args.concurrency,
            rate=args.rate,
            warmup=args.warmup,
            timeout=args.timeout,
            retries=args.retries,
        ),
        tracer=tracer,
    )
    report = load.run_sync(args.host, args.port, stream)
    print(report.render())
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.json_out}")
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"wrote {len(tracer.records())} span(s) to {args.trace}")
    if args.record:
        from repro.obs.runs import RunRegistry, build_loadgen_record

        registry = RunRegistry(args.record)
        record = registry.append(
            build_loadgen_record(
                registry,
                report.to_json(),
                config={
                    "licenses": args.licenses,
                    "stream": args.stream,
                    "seed": args.seed,
                    "clusters": args.clusters,
                    "skew": args.skew,
                    "mode": args.mode,
                    "concurrency": args.concurrency,
                    "rate": args.rate,
                    "warmup": args.warmup,
                },
                label=args.record_label,
            )
        )
        print(f"recorded {record.run_id} in {registry.path}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import os

    from repro.obs.runs import RunRegistry, render_report, render_results
    from repro.obs.runs import results_drift

    registry = RunRegistry(args.runs_dir)
    if args.results_dir:
        if args.check:
            drift = results_drift(registry, args.results_dir)
            if drift:
                for message in drift:
                    print(f"results drift: {message}", file=sys.stderr)
                return 1
            print("benchmark results match the recorded run")
            return 0
        rendered = render_results(registry)
        if not rendered:
            print("no recorded bench run carries results artifacts")
            return 0
        os.makedirs(args.results_dir, exist_ok=True)
        for stem, text in rendered.items():
            path = os.path.join(args.results_dir, f"{stem}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"wrote {path}")
        return 0
    text = render_report(registry, title=args.title)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_admin(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.net.client import AdmissionClient

    async def _query() -> dict:
        client = AdmissionClient(
            args.host, args.port, client_name="repro-admin"
        )
        await client.connect()
        try:
            return await client.admin(args.query, limit=args.limit)
        finally:
            await client.close()

    reply = asyncio.run(_query())
    print(json.dumps(reply, indent=2, sort_keys=True))
    return 0


def _cmd_trace_assemble(args: argparse.Namespace) -> int:
    from repro.obs.distrib import assemble_files

    merged = assemble_files(
        args.client, args.server, align_clocks=not args.no_align
    )
    print(merged.render(max_traces=args.max_traces))
    if args.json_out:
        import json

        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(merged.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote assembled trace to {args.json_out}")
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs.events import EventLog
    from repro.obs.export import (
        load_trace_jsonl,
        render_span_tree,
        summarize_events,
        top_slowest,
    )

    import os

    if not args.trace and not args.events:
        print("obs-report: provide --trace and/or --events", file=sys.stderr)
        return 2
    if args.trace:
        # A missing or empty journal is a zero-data report, not a crash:
        # fresh deployments ask for reports before any span is written.
        records = (
            load_trace_jsonl(args.trace)
            if os.path.exists(args.trace)
            else []
        )
        traces = {record.trace_id for record in records}
        per_name: dict = {}
        for record in records:
            count, total = per_name.get(record.name, (0, 0.0))
            per_name[record.name] = (count + 1, total + record.duration)
        print(f"{len(records)} span(s) across {len(traces)} trace(s)")
        for name in sorted(per_name):
            count, total = per_name[name]
            print(f"  {name}: {count} span(s), {total * 1e3:.3f}ms total")
        print()
        print(top_slowest(records, args.top))
        print()
        print(render_span_tree(records, max_traces=args.max_traces))
    if args.events:
        if args.trace:
            print()
        print(summarize_events(EventLog.iter_file(args.events)))
    return 0


def _cmd_monitor_report(args: argparse.Namespace) -> int:
    import json

    if not args.health and not args.events and not args.metrics:
        print(
            "monitor-report: provide --health, --events, and/or --metrics",
            file=sys.stderr,
        )
        return 2
    sections: List[str] = []
    if args.health:
        with open(args.health, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        lines = [f"health: {snapshot['status']} ({snapshot['ticks']} tick(s))"]
        for ind in snapshot.get("indicators", ()):
            lines.append(
                f"  [{ind['status']:8s}] {ind['name']}: {ind['value']:.4g}  "
                f"({ind['detail']})"
            )
        for slo in snapshot.get("slos", ()):
            verdict = "met" if slo["met"] else "VIOLATED"
            lines.append(
                f"  slo {slo['name']} ({slo['kind']}): {verdict}, "
                f"compliance {slo['compliance']:.6f} vs {slo['objective']:.6f}, "
                f"burn {slo['burn_rate']:.3f}"
            )
        for rule, state in snapshot.get("alerts", {}).items():
            lines.append(f"  alert {rule}: {state}")
        sections.append("\n".join(lines))
    if args.events:
        from repro.obs.events import EVENT_ALERT, EventLog

        transitions = [
            event for event in EventLog.iter_file(args.events)
            if event.get("kind") == EVENT_ALERT
        ]
        lines = [f"alert timeline: {len(transitions)} transition(s)"]
        by_rule: dict = {}
        for event in transitions:
            by_rule.setdefault(event["rule"], []).append(event)
            lines.append(
                f"  seq={event['seq']} at={event['at']:.3f} "
                f"{event['rule']}: {event['from_state']} -> "
                f"{event['to_state']} (value {event['value']:.4g})"
            )
        for rule in sorted(by_rule):
            fired = sum(
                1 for event in by_rule[rule] if event["to_state"] == "firing"
            )
            lines.append(
                f"  {rule}: {len(by_rule[rule])} transition(s), {fired} firing"
            )
        sections.append("\n".join(lines))
    if args.metrics:
        from repro.obs.export import parse_prometheus

        with open(args.metrics, "r", encoding="utf-8") as handle:
            samples = parse_prometheus(handle.read())
        wanted = (
            "alert_state", "slo_compliance", "slo_burn_rate",
            "alert_transitions_total",
            # Wire-server series (exported since the net layer landed).
            "wire_requests_total", "wire_protocol_errors_total",
            "wire_in_flight", "wire_connections_open", "wire_drains_total",
        )
        monitoring = [
            (name, labels, value)
            for name, series in sorted(samples.items())
            # Exported names may carry a namespace prefix (repro_...).
            if any(name == k or name.endswith(f"_{k}") for k in wanted)
            for labels, value in sorted(series.items())
        ]
        lines = [f"monitoring gauges: {len(monitoring)} series"]
        for name, labels, value in monitoring:
            label_text = ",".join(f"{k}={v}" for k, v in labels) or "-"
            lines.append(f"  {name}{{{label_text}}} = {value:g}")
        sections.append("\n".join(lines))
    print("\n\n".join(sections))
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.conformance import builtin_vectors, dumps_vector, run_vector

    failures = 0
    for name, vector in builtin_vectors():
        results = run_vector(vector)
        bad = [result for result in results if not result.passed]
        failures += len(bad)
        print(f"{name}: {len(results) - len(bad)}/{len(results)} checks passed")
        for result in bad:
            print(f"  {result}")
        if args.export_dir:
            target = Path(args.export_dir)
            target.mkdir(parents=True, exist_ok=True)
            (target / f"{name}.json").write_text(
                dumps_vector(vector, indent=2), encoding="utf-8"
            )
    return 1 if failures else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint.cli import run as run_lint

    return run_lint(args)


def _cmd_demo(_args: argparse.Namespace) -> int:
    # Imported lazily to keep CLI startup light.
    from repro.workloads.scenarios import example1, example1_log

    scenario = example1()
    validator = GroupedValidator.from_pool(scenario.pool)
    print("Example 1 pool: 5 redistribution licenses for (K, play)")
    print(f"overlap edges: {sorted(validator.graph.edges())}")
    print(f"groups: {[sorted(group) for group in validator.structure.groups]}")
    print(
        f"equations: {validator.equations_baseline} -> "
        f"{validator.equations_required} "
        f"(theoretical gain {validator.theoretical_gain:.1f}x, paper: 3.1x)"
    )
    report = validator.validate(example1_log())
    print(report.summary())
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "validate": _cmd_validate,
        "experiment": _cmd_experiment,
        "headroom": _cmd_headroom,
        "diagnose": _cmd_diagnose,
        "profile": _cmd_profile,
        "simulate": _cmd_simulate,
        "serve-bench": _cmd_serve_bench,
        "serve": _cmd_serve,
        "loadgen": _cmd_loadgen,
        "admin": _cmd_admin,
        "report": _cmd_report,
        "trace-assemble": _cmd_trace_assemble,
        "obs-report": _cmd_obs_report,
        "monitor-report": _cmd_monitor_report,
        "conformance": _cmd_conformance,
        "lint": _cmd_lint,
        "demo": _cmd_demo,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
