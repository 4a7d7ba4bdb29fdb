"""The serving benchmark: one command, one workload, every metric.

    python3 perfbench/run.py --workload wire-unique --seed 1 --seconds 36 --trace 0

Generates the workload's pool and stream from ``--seed``, measures set-up
(several fresh launches, median), then spends ``--seconds`` on fresh
services: a closed loop for throughput and open loops at two frozen
offered rates for latency (see ``perfbench/spec.py``).  In process,
every time it reports is scaled to a fixed reference host speed; the details line
keeps the raw figures and the probed speeds.  Every verdict of every
pass is checked (``perfbench/check.py``).  ``--trace 1`` instead
alternates untraced and traced closed-loop passes and reports the
per-layer budget; end-to-end numbers come only from untraced runs.

The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it holds the run's details (host, configuration, phases).
Exit status: 0 on success, 1 on a wrong verdict, 2 when the program under
test cannot be imported, 3 when an open-loop phase fell behind schedule.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
#: Where the traced run writes its spans (inside the checkout).
OUT = ROOT / ".perfbench"
#: An open-loop pass that completes under this share of its offered rate
#: fell behind its schedule and reports no percentiles.
KEEP_UP = 0.9


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; failed requests count as infinitely slow."""
    ordered = sorted(math.inf if value is None else value for value in values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _rounds(run_round, seconds: float, host_speed) -> list:
    """Repeat ``run_round`` while the next round still fits ``seconds``;
    return ``(speed, result)`` per round, ``speed`` being the mean of the
    host speeds probed just before and just after it."""
    rounds, spent = [], 0.0
    before = host_speed()
    while True:
        started = time.perf_counter()
        result = run_round()
        last = time.perf_counter() - started
        after = host_speed()
        rounds.append(((before + after) / 2, result))
        before = after
        spent += last
        if spent + last > seconds:
            return rounds


def _open_phase(passes, rate: float) -> dict:
    """An open-loop phase from ``(speed, rep)`` passes: each pass's raw
    latency percentiles, and how well the generator kept to its
    schedule."""
    reps = [rep for _speed, rep in passes]
    lags = [value for rep in reps for value in rep.lags]
    achieved = min(len(rep.latencies) / rep.elapsed for rep in reps)
    per_pass = {
        f"p{round(q * 100)}_ms": [_quantile(rep.latencies, q) * 1e3 for rep in reps]
        for q in (0.5, 0.9, 0.99)
    }
    return {
        "offered_rps": rate,
        "achieved_rps": achieved,
        "behind": achieved < KEEP_UP * rate,
        "passes": len(reps),
        "samples_per_pass": len(reps[0].latencies),
        "lag_p99_ms": _quantile(lags, 0.99) * 1e3,
        "lag_max_ms": max(lags) * 1e3,
        "host_speed": [speed for speed, _rep in passes],
        **per_pass,
    }


def measure(transport, workload, stream, seconds: float, spec, host_speed):
    """Rounds of closed-loop passes and two open-loop passes, each on a
    fresh service, until ``seconds`` are spent; returns ``(reps, metrics,
    phases)``.

    The host's speed drifts by tens of percent over seconds and it stalls
    for 10-40 ms a few times a minute, so the phases are interleaved and
    every figure is the median over passes of that pass's figure: a pass
    hit by a stall does not set the run's figure, though its requests
    still count against the latency limit.  A closed-loop pass is short,
    so each round runs ``CLOSED_PER_ROUND`` of them.  Each pass's figure
    is scaled by the ``host_speed`` probed around its round before the
    median is taken (see ``perfbench/spec.py``).  The p90 and p99 of each
    pass are in the details only: over ten runs of unchanged code they
    spread further than any bound a regression check could use.
    """
    rounds = _rounds(
        lambda: (
            [transport.closed(stream) for _ in range(spec.CLOSED_PER_ROUND)],
            transport.open(stream, workload.lo_rps),
            transport.open(stream, workload.hi_rps),
        ),
        seconds,
        host_speed,
    )
    closed = [(speed, rep) for speed, (batch, _lo, _hi) in rounds for rep in batch]
    lo = [(speed, rep) for speed, (_closed, rep, _hi) in rounds]
    hi = [(speed, rep) for speed, (_closed, _lo, rep) in rounds]
    phases = {
        "closed": {
            "connections": spec.CONNECTIONS,
            "passes": len(closed),
            "stream": len(stream),
            "host_speed": [speed for speed, _rep in closed],
            "rps": [len(stream) / rep.elapsed for _speed, rep in closed],
        },
        "lo": _open_phase(lo, workload.lo_rps),
        "hi": _open_phase(hi, workload.hi_rps),
    }
    metrics = {
        "throughput_rps": statistics.median(
            rps / speed
            for rps, speed in zip(phases["closed"]["rps"], phases["closed"]["host_speed"])
        ),
        "slo_met_frac": sum(
            1 for speed, rep in hi for value in rep.latencies
            if value is not None and value * speed * 1e3 <= workload.slo_ms
        ) / sum(len(rep.latencies) for _speed, rep in hi),
        "rss_mb": transport.rss_mb(),
    }
    for name in ("lo", "hi"):
        phase = phases[name]
        if not phase["behind"]:
            metrics[f"p50_{name}_ms"] = statistics.median(
                p50 * speed for p50, speed in zip(phase["p50_ms"], phase["host_speed"])
            )
    reps = [rep for passes in (closed, lo, hi) for _speed, rep in passes]
    return reps, metrics, phases


def trace_budget(transport, stream, seconds: float, tracing, spans_path: Path):
    """Alternate untraced and traced closed-loop passes; the traced ones
    give the per-layer budget (raw times, not scaled to host speed) and,
    written to ``spans_path``, their spans; the pairs give the tracing
    overhead."""
    rounds = _rounds(
        lambda: (
            transport.closed(stream),
            transport.closed(stream, traced=True),
        ),
        seconds,
        lambda: 1.0,
    )
    pairs = [pair for _speed, pair in rounds]
    untraced = [plain for plain, _traced in pairs]
    traced = [traced for _plain, traced in pairs]

    def rps(reps):
        return statistics.fmean(len(stream) / rep.elapsed for rep in reps)

    metrics = tracing.layer_budget(traced, 1.0 - rps(traced) / rps(untraced))
    spans_path.parent.mkdir(exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"passes": [rep.trace for rep in traced],
                   "client": [rep.client_spans for rep in traced]}, handle)
    return untraced + traced, metrics, {
        "pairs": len(pairs),
        "untraced_rps": rps(untraced),
        "traced_rps": rps(traced),
    }


def verify(reps, fixture, truth, reference, check) -> list:
    """Every wrong or missing verdict of every pass, described."""
    problems = []
    known = {}
    for number, rep in enumerate(reps):
        delivered = [outcome for outcome in rep.outcomes if outcome is not None]
        if rep.served != len(delivered):
            problems.append(
                f"pass {number}: served {rep.served} verdict(s), "
                f"{len(delivered)} arrived"
            )
        if rep.logged != sum(1 for outcome in delivered if outcome.accepted):
            problems.append(f"pass {number}: logged accepts differ from verdicts")
        signature = check.signature(rep.outcomes)
        if reference is not None and signature != reference:
            problems.append(f"pass {number}: verdicts differ from process()")
        if signature not in known:
            known[signature] = check.violations(
                fixture.pool, fixture.stream, rep.outcomes, truth, fixture.journal
            )
        problems.extend(f"pass {number}: {text}" for text in known[signature])
    return problems


def reference_run(fixture, spec, group_of):
    """``ValidationService.process`` over the stream on a fresh service:
    the byte-identity reference and the kernel each group really uses."""
    with spec.fresh_service(fixture) as service:
        service.enable_request_timings()
        outcomes = service.process(fixture.stream)
        kernels = {}
        for seq, outcome in enumerate(outcomes):
            timing = service.pop_request_timing(seq)
            if outcome.license_set and timing is not None:
                kernels[group_of[outcome.license_set[0]]] = timing.kernel
    return outcomes, {str(group): kernels[group] for group in sorted(kernels)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Serving benchmark: one workload, every metric."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        from perfbench import check, spec, tracing, transports
        from perfbench.fixture import group_of_licenses
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in spec.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(spec.WORKLOADS)}")
    workload = spec.WORKLOADS[args.workload]
    fixture = workload.fixture(args.seed)
    pool, stream = fixture.pool, fixture.stream
    truth = check.true_match_sets(pool, stream)
    reference, kernels = reference_run(fixture, spec, group_of_licenses(pool))
    transport_class = transports.Wire if workload.wire else transports.Inproc
    # The probe times this process.  The wire workload's work runs in the
    # server child, whose speed the probe does not follow (scaling by it
    # widened that workload's spread), so its times stay raw.
    host_speed = (lambda: 1.0) if workload.wire else spec.host_speed
    with transport_class(args.workload, args.seed, fixture) as transport:
        before = host_speed()
        raw_setup_s = transport.setup(stream[:spec.WARMUP_REQUESTS])
        setup_speed = (before + host_speed()) / 2
        if args.trace:
            reps, metrics, phases = trace_budget(
                transport, stream, args.seconds, tracing,
                OUT / f"spans-{args.workload}-{args.seed}.json",
            )
            table = spec.PER_LAYER
        else:
            reps, metrics, phases = measure(
                transport, workload, stream, args.seconds, spec, host_speed
            )
            metrics["setup_s"] = raw_setup_s * setup_speed
            table = spec.END_TO_END
        executor = transport.executor
    problems = verify(
        reps, fixture, truth,
        None if workload.wire else check.signature(reference), check,
    )
    attempted = len(reps) * len(stream)
    failed = sum(rep.outcomes.count(None) for rep in reps) + len(problems)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": {"nproc": os.cpu_count(), "python": platform.python_version()},
        "config": {
            **spec.SERVICE,
            "executor": executor,
            "kernel_by_group": kernels,
            "connections": spec.CONNECTIONS,
            "licenses": len(pool),
            "journal": len(fixture.journal or ()),
            "stream": len(stream),
        },
        "frozen": {
            "lo_rps": workload.lo_rps,
            "hi_rps": workload.hi_rps,
            "slo_ms": workload.slo_ms,
        },
        "raw_setup_s": raw_setup_s,
        "setup_host_speed": setup_speed,
        "phases": phases,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
    }
    units = {row[0]: row[1] for row in table}
    for name, unit, _better, *moves in table:
        value = metrics.get(name)
        shown = "-" if value is None else f"{value:.6g}"
        # Per-layer rows also name the end-to-end metric they should move.
        print(f"{name:36s} {shown:>12s} {unit:6s} {' | '.join(map(str, moves))}")
    for text in problems[:20]:
        print(f"VIOLATION {text}")
    print(json.dumps(details))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items() if name in metrics
        },
    }))
    if problems:
        return 1
    behind = not args.trace and (phases["lo"]["behind"] or phases["hi"]["behind"])
    return 3 if behind else 0


if __name__ == "__main__":
    sys.exit(main())
