"""Service throughput: requests/sec vs shard count and batch size.

Drives one fixed multi-group workload through the
:class:`repro.service.ValidationService` under varying shard counts
({1, 2, 4, 8}), executor backends, and admission batch sizes, reporting
requests/sec, latency percentiles, and the incremental-revalidation
equation counts.

Two effects are measured:

* **Sharding** -- more shards means each shard's admission batches are
  denser in its own groups, so far fewer ``Σ_dirty (2^{N_k} - 1)``
  revalidation passes run per request (a deterministic, hardware-
  independent win), plus executor concurrency across shards on
  multi-core hosts.  The verdict stream must stay byte-identical for
  every shard count (group independence, Theorem 2).
* **Batching** -- larger batches amortize the per-batch revalidation
  pass over more requests; ``equations_checked_total`` falls roughly
  linearly in the batch size.

Set ``REPRO_BENCH_SMOKE=1`` to shrink the workload for CI smoke runs.
"""

import os
import time

from repro.service import ServiceConfig, ValidationService
from repro.workloads.config import WorkloadConfig
from repro.workloads.generator import WorkloadGenerator

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

#: Pool size / group structure / stream length of the fixed workload.
#: 64 licenses across 8 groups gives ~8 members per group, so each
#: revalidation pass costs ~2^8 - 1 equations and the pass-skipping
#: effect of sharding/batching dominates wall time.
N_LICENSES = 32 if SMOKE else 64
TARGET_GROUPS = 8
STREAM = 600 if SMOKE else 2400
SEED = 0
SHARD_COUNTS = (1, 2, 4, 8)
BATCH_SIZES = (1, 8, 32)
#: Timing repeats per configuration; the minimum elapsed is reported
#: (standard practice to suppress scheduler noise on shared hosts).
REPEATS = 1 if SMOKE else 2


def _workload():
    config = WorkloadConfig(
        n_licenses=N_LICENSES,
        seed=SEED,
        n_records=0,
        target_groups=TARGET_GROUPS,
        aggregate_range=(400, 1200),
    )
    generator = WorkloadGenerator(config)
    pool = generator.generate_pool()
    stream = list(generator.issue_stream(pool, STREAM))
    return pool, stream


def _run(pool, stream, shards, batch, executor, repeats=REPEATS, kernel="tree"):
    """Run the stream through a fresh service ``repeats`` times.

    Returns plain scalars only (never the service object itself) so the
    sweep loops do not keep earlier runs' shard trees and histogram
    windows alive while later runs are being timed.  The minimum elapsed
    across repeats is reported; verdicts and metric totals are identical
    on every repeat (the service is deterministic).
    """
    elapsed = float("inf")
    for _ in range(max(1, repeats)):
        service = ValidationService(
            pool,
            ServiceConfig(
                shards=shards,
                batch_size=batch,
                queue_capacity=max(64, STREAM // 4),
                executor=executor,
                kernel=kernel,
            ),
        )
        started = time.perf_counter()
        outcomes = service.process(stream)
        elapsed = min(elapsed, time.perf_counter() - started)
        service.close()
    verdicts = "".join(
        "A" if outcome.accepted else (outcome.rejection_reason or "?")[0]
        for outcome in outcomes
    )
    latency = service.metrics.histogram("latency_seconds").summary()
    executor_obj = service._executor
    run = {
        "groups": service.group_count,
        "verdicts": verdicts,
        "elapsed": elapsed,
        "rps": len(stream) / elapsed,
        "equations": service.metrics.counter("equations_checked_total").total(),
        "batches": service.metrics.counter("batches_total").total(),
        "accepted": service.metrics.counter("requests_total").value(("accepted",)),
        "p50": latency["p50"],
        "p95": latency["p95"],
        "p99": latency["p99"],
        # Hardware/backend context: invisible rps comparisons across
        # machines were the motivating bug (a committed process-executor
        # row measured at cpu_count=1 looked like a backend regression).
        "executor": service.executor_backend,
        "max_workers": getattr(executor_obj, "workers", 1),
        "cpu_count": os.cpu_count(),
    }
    if hasattr(executor_obj, "bytes_shipped_total"):
        drains = max(1, executor_obj.drains)
        # O(batch) proof: per-drain IPC for the resident backend; see
        # test_resident_ipc for the state-independence assertion.
        run["bytes_shipped_per_drain"] = (
            executor_obj.bytes_shipped_total // drains
        )
        run["drains"] = executor_obj.drains
    return run


#: Scalar fields persisted for every run row (see satellite note in
#: _run: executor/max_workers/cpu_count contextualize rps trajectories).
_ROW_FIELDS = (
    "rps", "elapsed", "equations", "batches", "accepted",
    "p50", "p95", "p99", "executor", "max_workers", "cpu_count",
)


def _json_row(run):
    """Strip a run dict to the scalar fields worth persisting as JSON."""
    row = {key: run[key] for key in _ROW_FIELDS}
    for optional in ("bytes_shipped_per_drain", "drains"):
        if optional in run:
            row[optional] = run[optional]
    return row


def test_throughput_vs_shards(report, bench_json):
    """Shard sweep: req/s up, equations down, verdicts byte-identical."""
    pool, stream = _workload()
    runs = {}
    for shards in SHARD_COUNTS:
        runs[shards] = _run(pool, stream, shards, batch=32, executor="serial")
    lines = [
        f"service throughput vs shard count (serial executor, "
        f"{N_LICENSES} licenses, {runs[1]['groups']} groups, "
        f"{STREAM} requests, batch=32)",
        "",
        "shards | req/s    | equations | p50 ms  | p95 ms  | p99 ms",
        "-------+----------+-----------+---------+---------+--------",
    ]
    for shards, run in runs.items():
        lines.append(
            f"{shards:6d} | {run['rps']:8,.0f} | {run['equations']:9d} | "
            f"{run['p50'] * 1e3:7.3f} | {run['p95'] * 1e3:7.3f} | "
            f"{run['p99'] * 1e3:7.3f}"
        )

    # The hard guarantee: the verdict stream is byte-identical for every
    # shard count (disconnected groups share no equations -- Theorem 2).
    reference = runs[1]["verdicts"]
    for shards in SHARD_COUNTS[1:]:
        assert runs[shards]["verdicts"] == reference, (
            f"verdict stream changed at {shards} shards"
        )
    lines.append("")
    lines.append(f"verdict streams byte-identical across shard counts: yes")

    # Sharding makes batches group-denser: strictly less audit work with
    # 8 shards than 1 (deterministic, so asserted unconditionally).
    assert runs[8]["equations"] < runs[1]["equations"], (
        f"sharding should cut revalidation work: "
        f"{runs[8]['equations']} !< {runs[1]['equations']}"
    )
    best_rps = max(runs[s]["rps"] for s in SHARD_COUNTS[1:])
    speedup = best_rps / runs[1]["rps"]
    lines.append(f"best multi-shard speedup over 1 shard: {speedup:.2f}x")
    report("service_throughput_shards", "\n".join(lines))
    bench_json(
        "throughput_vs_shards",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "licenses": N_LICENSES,
            "batch": 32,
            "executor": "serial",
            "speedup_best_vs_1": speedup,
            "runs": {str(s): _json_row(run) for s, run in runs.items()},
        },
    )
    # Wall-clock follows the equation reduction even on one core; keep a
    # generous margin so scheduler noise cannot flake the suite.
    assert speedup > 1.02, f"expected measurable multi-shard speedup, got {speedup:.3f}x"


def test_throughput_vs_executor(report, bench_json):
    """Executor backends must agree verdict-for-verdict; report their cost."""
    pool, stream = _workload()
    runs = {
        backend: _run(pool, stream, shards=4, batch=32, executor=backend)
        for backend in ("serial", "resident")
    }
    reference = runs["serial"]["verdicts"]
    for backend, run in runs.items():
        assert run["verdicts"] == reference, f"{backend} diverged from serial"
    lines = [
        f"executor comparison (4 shards, batch=32, {STREAM} requests, "
        f"{os.cpu_count()} cpu core(s))",
        "",
        "executor          | req/s    | p95 ms | ipc B/drain",
        "------------------+----------+--------+------------",
    ]
    for backend, run in runs.items():
        per_drain = run.get("bytes_shipped_per_drain")
        lines.append(
            f"{backend:17s} | {run['rps']:8,.0f} | {run['p95'] * 1e3:6.3f} | "
            f"{per_drain if per_drain is not None else '-':>11}"
        )
    lines.append("")
    lines.append(
        "note: process parallelism pays off on multi-core hosts; on a "
        "single core the serial backend is optimal and the resident one "
        "measures pure coordination overhead.  The resident backend's "
        "per-drain IPC is O(batch): shard state never crosses the pipe."
    )
    report("service_throughput_executors", "\n".join(lines))
    bench_json(
        "throughput_vs_executor",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "shards": 4,
            "batch": 32,
            "cpu_count": os.cpu_count(),
            "runs": {backend: _json_row(run) for backend, run in runs.items()},
        },
    )
    # The acceptance criterion is inherently about hardware: with one
    # core there is no parallelism to win, only coordination overhead,
    # so the floor is asserted on multi-core runners only.  The smoke
    # stream is about two drains, too short for the comparison to rise
    # above run-to-run noise, so it is asserted at full size only.
    if not SMOKE and (os.cpu_count() or 1) >= 2:
        assert runs["resident"]["rps"] >= runs["serial"]["rps"], (
            "resident backend should not lose to serial on multi-core: "
            f"{runs['resident']['rps']:,.0f} < {runs['serial']['rps']:,.0f} rps"
        )


def test_resident_ipc(report, bench_json):
    """Per-drain IPC of the resident backend is O(batch), not O(state).

    Two proofs, both deterministic:

    * the *same workload* served with ``kernel="tree"`` vs
      ``kernel="dense"`` ships per-drain traffic equal to within pickle
      integer-width jitter (the dense stats reply carries larger
      ``kernel_fast_path_hits`` counters, a few bytes), even though the
      dense configuration keeps up to ``2 x 8 * 2^{N_k}`` bytes of
      mutable kernel state per group -- state never crosses the pipe
      (each worker builds and owns its groups' tables);
    * verdicts are byte-identical to the serial reference either way.
    """
    pool, stream = _workload()
    serial = _run(pool, stream, shards=4, batch=32, executor="serial")
    by_kernel = {
        kernel: _run(
            pool, stream, shards=4, batch=32, executor="resident",
            kernel=kernel,
        )
        for kernel in ("tree", "dense")
    }
    parity = all(
        run["verdicts"] == serial["verdicts"] for run in by_kernel.values()
    )
    # 64 B absolute tolerance: counter-width jitter is single bytes,
    # while the dense tables that must NOT cross the pipe are KiB-MiB.
    state_independent = (
        abs(
            by_kernel["tree"]["bytes_shipped_per_drain"]
            - by_kernel["dense"]["bytes_shipped_per_drain"]
        )
        <= 64
    )
    assert parity, "resident verdicts diverged from serial"
    assert state_independent, (
        "per-drain IPC must not depend on kernel state size: "
        f"tree={by_kernel['tree']['bytes_shipped_per_drain']} B vs "
        f"dense={by_kernel['dense']['bytes_shipped_per_drain']} B"
    )
    lines = [
        f"resident backend IPC (4 shards, batch=32, {STREAM} requests)",
        "",
        "kernel | ipc B/drain | drains | req/s",
        "-------+-------------+--------+---------",
    ]
    for kernel, run in by_kernel.items():
        lines.append(
            f"{kernel:6s} | {run['bytes_shipped_per_drain']:11,d} | "
            f"{run['drains']:6d} | {run['rps']:8,.0f}"
        )
    lines.append("")
    lines.append(
        "per-drain bytes equal across kernels (within integer-width "
        "jitter): the drain ships the pending batch only; kernel tables, "
        "trees and dense ones alike, stay resident in the worker that "
        "owns them."
    )
    report("service_resident_ipc", "\n".join(lines))
    bench_json(
        "resident_ipc",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "shards": 4,
            "batch": 32,
            "cpu_count": os.cpu_count(),
            "parity": parity,
            "state_independent": state_independent,
            "runs": {
                kernel: _json_row(run) for kernel, run in by_kernel.items()
            },
        },
    )


def test_throughput_vs_batch(report, bench_json):
    """Batch sweep: the per-batch revalidation pass amortizes."""
    pool, stream = _workload()
    runs = {
        batch: _run(pool, stream, shards=4, batch=batch, executor="serial")
        for batch in BATCH_SIZES
    }
    reference = runs[BATCH_SIZES[0]]["verdicts"]
    lines = [
        f"service throughput vs batch size (4 shards, serial executor, "
        f"{STREAM} requests)",
        "",
        "batch | req/s    | batches | equations",
        "------+----------+---------+----------",
    ]
    for batch, run in runs.items():
        assert run["verdicts"] == reference, (
            f"verdicts must not depend on batch boundaries (batch={batch})"
        )
        lines.append(
            f"{batch:5d} | {run['rps']:8,.0f} | {run['batches']:7d} | "
            f"{run['equations']:9d}"
        )
    # Deterministic amortization: one revalidation pass per batch, so
    # equations checked fall as batches coalesce.
    assert runs[32]["equations"] < runs[1]["equations"] / 4, (
        "batching should amortize the revalidation pass"
    )
    report("service_throughput_batching", "\n".join(lines))
    bench_json(
        "throughput_vs_batch",
        {
            "smoke": SMOKE,
            "stream": STREAM,
            "shards": 4,
            "executor": "serial",
            "runs": {str(b): _json_row(run) for b, run in runs.items()},
        },
    )
