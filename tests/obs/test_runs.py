"""Run registry, regression attribution, and the performance report.

Everything here runs on synthetic fixtures with injected clocks and a
canned git probe -- no wall time, no subprocess -- so the byte-stability
assertions (`render_report` twice over the same registry, id assignment
on a rebuilt registry) are exact, not tolerance-based.
"""

import json

import pytest

from repro.errors import RunRegistryError
from repro.obs.runs import (
    PHASE_KEYS,
    RunRecord,
    RunRegistry,
    attribute,
    build_bench_record,
    build_loadgen_record,
    build_serve_bench_record,
    counter_totals,
    git_metadata,
    render_report,
    render_results,
    results_drift,
)

FAKE_GIT = {
    ("rev-parse", "HEAD"): "deadbeefcafe0123",
    ("rev-parse", "--abbrev-ref", "HEAD"): "main",
    ("status", "--porcelain"): "",
}


def fake_probe(args):
    return FAKE_GIT[tuple(args)]


def make_record(
    run_id,
    kind="loadgen",
    *,
    rps=1000.0,
    p99=0.003,
    revalidate_us=120.0,
    equations=1000.0,
):
    return RunRecord(
        run_id=run_id,
        kind=kind,
        label="test",
        recorded_at=100.0,
        git=git_metadata(fake_probe),
        config={"shards": 4, "kernel": "tree"},
        stats={"rps": rps, "p50": 0.001, "p95": 0.002, "p99": p99},
        phases_us={
            "queue_us": 10.0,
            "match_us": 50.0,
            "admission_us": 5.0,
            "revalidate_us": revalidate_us,
            "wire_us": 40.0,
        },
        counters={"equations_checked_total": equations},
    )


class TestRecord:
    def test_round_trips_through_dict(self):
        record = make_record("run-000001")
        clone = RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert clone.to_dict() == record.to_dict()

    def test_requires_id_and_kind(self):
        with pytest.raises(RunRegistryError):
            RunRecord(run_id="", kind="bench")
        with pytest.raises(RunRegistryError):
            RunRecord(run_id="run-000001", kind="")
        with pytest.raises(RunRegistryError):
            RunRecord.from_dict({"kind": "bench"})

    def test_git_metadata_degrades_on_probe_failure(self):
        def broken(args):
            raise OSError("no git here")

        assert git_metadata(broken) == {
            "commit": None, "branch": None, "dirty": None
        }
        assert git_metadata(fake_probe)["commit"] == "deadbeefcafe0123"
        assert git_metadata(fake_probe)["dirty"] is False


class TestRegistry:
    def test_append_load_round_trip(self, tmp_path):
        registry = RunRegistry(str(tmp_path / "runs"))
        assert registry.load() == []
        first = registry.append(make_record(registry.next_run_id()))
        second = registry.append(
            make_record(registry.next_run_id(), kind="bench")
        )
        loaded = registry.load()
        assert [r.run_id for r in loaded] == ["run-000001", "run-000002"]
        assert loaded[0].to_dict() == first.to_dict()
        assert loaded[1].to_dict() == second.to_dict()

    def test_ids_come_from_seeded_counter_not_clock(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        for expected in ("run-000001", "run-000002", "run-000003"):
            assert registry.next_run_id() == expected
            registry.append(make_record(expected))
        # A rebuilt registry over the same file continues the sequence.
        assert RunRegistry(str(tmp_path)).next_run_id() == "run-000004"

    def test_latest_baseline_and_kind_filters(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record("run-000001", kind="loadgen"))
        registry.append(make_record("run-000002", kind="bench"))
        registry.append(make_record("run-000003", kind="loadgen"))
        assert registry.latest().run_id == "run-000003"
        assert registry.latest("bench").run_id == "run-000002"
        assert registry.baseline("loadgen").run_id == "run-000001"
        assert registry.baseline("bench") is None
        assert registry.kinds() == ["loadgen", "bench"]
        assert registry.get("run-000002").kind == "bench"
        with pytest.raises(RunRegistryError):
            registry.get("run-999999")

    def test_duplicate_ids_rejected(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record("run-000001"))
        with pytest.raises(RunRegistryError):
            registry.append(make_record("run-000001"))

    def test_malformed_line_names_line_number(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record("run-000001"))
        with open(registry.path, "a", encoding="utf-8") as handle:
            handle.write('{"run_id": "run-000002", "kind": trunc\n')
        with pytest.raises(RunRegistryError, match=":2"):
            registry.load()


class TestAttribution:
    def test_revalidate_slowdown_named_as_top_phase(self, tmp_path):
        """Acceptance: an artificial revalidate slowdown is attributed
        to the revalidate phase."""
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record(registry.next_run_id()))
        registry.append(
            make_record(
                registry.next_run_id(),
                rps=600.0,
                p99=0.012,
                revalidate_us=2300.0,
                equations=4100.0,
            )
        )
        comparison = attribute(
            registry.baseline("loadgen"), registry.latest("loadgen")
        )
        top = comparison.top_phase()
        assert top.phase == "revalidate_us"
        assert top.share > 0.9
        rendered = comparison.render()
        assert "revalidate is the top regressing phase" in rendered
        assert "equations_checked_total" in rendered
        assert comparison.render() == rendered  # deterministic

    def test_no_regression_verdict(self):
        comparison = attribute(
            make_record("run-000001"), make_record("run-000002")
        )
        assert comparison.top_phase() is None
        assert comparison.regressed_stats() == []
        assert "no headline regression" in comparison.render()

    def test_rejects_cross_kind_and_incomparable_runs(self):
        with pytest.raises(RunRegistryError, match="kinds"):
            attribute(
                make_record("run-000001", kind="bench"),
                make_record("run-000002", kind="loadgen"),
            )
        bare = RunRecord(run_id="run-000001", kind="serve")
        with pytest.raises(RunRegistryError, match="comparable"):
            attribute(bare, RunRecord(run_id="run-000002", kind="serve"))

    def test_phase_shares_sum_to_one_when_phases_move(self):
        comparison = attribute(
            make_record("run-000001"),
            make_record("run-000002", revalidate_us=240.0),
        )
        assert sum(p.share for p in comparison.phases) == pytest.approx(1.0)
        assert comparison.to_dict()["phases"][0]["phase"] == "revalidate_us"


class TestReport:
    def test_byte_stable_across_invocations(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record(registry.next_run_id()))
        registry.append(
            make_record(registry.next_run_id(), rps=900.0, p99=0.004)
        )
        first = render_report(registry)
        second = render_report(RunRegistry(str(tmp_path)))
        assert first == second
        assert "## Regression attribution — loadgen" in first
        assert "run-000002" in first

    def test_empty_registry_renders_no_data_report(self, tmp_path):
        text = render_report(RunRegistry(str(tmp_path / "missing")))
        assert text.startswith("# Performance report")
        assert "No runs recorded" in text

    def test_single_run_skips_attribution_gracefully(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        registry.append(make_record(registry.next_run_id()))
        text = render_report(registry)
        assert "no baseline to attribute against" in text

    def test_kernel_crossover_section_from_bench_data(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        record = RunRecord(
            run_id="run-000001",
            kind="bench",
            bench={
                "kernel_crossover": {
                    "sizes": {
                        "4": {
                            "tree_s": 0.008, "dense_s": 0.008,
                            "speedup": 1.0, "identical": True,
                        },
                        "12": {
                            "tree_s": 4.2, "dense_s": 0.022,
                            "speedup": 191.8, "identical": True,
                        },
                    },
                },
            },
        )
        registry.append(record)
        text = render_report(registry)
        assert "## Kernel crossover" in text
        assert "191.8x" in text


class TestResultsRegeneration:
    def seed(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        record = RunRecord(
            run_id="run-000001",
            kind="bench",
            artifacts={
                "kernel_crossover": "crossover table\n",
                "wire_end_to_end": "wire table\n",
            },
        )
        registry.append(record)
        return registry

    def test_render_results_returns_artifacts(self, tmp_path):
        registry = self.seed(tmp_path)
        assert render_results(registry) == {
            "kernel_crossover": "crossover table\n",
            "wire_end_to_end": "wire table\n",
        }
        assert render_results(RunRegistry(str(tmp_path / "empty"))) == {}

    def test_drift_detection(self, tmp_path):
        registry = self.seed(tmp_path)
        results = tmp_path / "results"
        results.mkdir()
        (results / "kernel_crossover.txt").write_text(
            "crossover table\n", encoding="utf-8"
        )
        drift = results_drift(registry, str(results))
        assert drift == ["wire_end_to_end.txt: missing (expected from registry)"]
        (results / "wire_end_to_end.txt").write_text(
            "stale\n", encoding="utf-8"
        )
        drift = results_drift(registry, str(results))
        assert len(drift) == 1 and "wire_end_to_end.txt" in drift[0]
        (results / "wire_end_to_end.txt").write_text(
            "wire table\n", encoding="utf-8"
        )
        assert results_drift(registry, str(results)) == []


class TestCaptureBuilders:
    def test_loadgen_builder_normalises_wire_phase(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        payload = {
            "rps": 1200.0, "p50": 0.001, "p95": 0.002, "p99": 0.003,
            "elapsed": 1.0, "requests": 1200, "measured": 1100,
            "accepted": 900, "retries": 3,
            "rejected": {"rejected": 200, "invalid": 100},
            "phases_us": {
                "queue_us": 10.0, "match_us": 40.0, "admission_us": 4.0,
                "revalidate_us": 100.0, "wire": 55.0,
            },
            "overloaded_failures": 2,
        }
        record = build_loadgen_record(
            registry, payload, config={"mode": "closed"},
            label="t", git_probe=fake_probe, clock=lambda: 7.0,
        )
        assert record.kind == "loadgen"
        assert record.run_id == "run-000001"
        assert record.recorded_at == 7.0
        assert record.stats["rejected"] == 300.0
        assert record.phases_us["wire_us"] == 55.0
        assert set(record.phases_us) == set(PHASE_KEYS)
        assert record.counters["overloaded_failures"] == 2.0

    def test_serve_bench_builder_reads_live_service(self, tmp_path):
        from repro.service import ServiceConfig, ValidationService
        from repro.workloads.config import WorkloadConfig
        from repro.workloads.generator import WorkloadGenerator

        generator = WorkloadGenerator(
            WorkloadConfig(n_licenses=8, seed=0, n_records=0)
        )
        pool = generator.generate_pool()
        stream = list(generator.issue_stream(pool, 50))
        service = ValidationService(pool, ServiceConfig(shards=2))
        outcomes = service.process(stream)
        service.close()
        registry = RunRegistry(str(tmp_path))
        record = build_serve_bench_record(
            registry,
            service,
            elapsed=2.0,
            requests=len(stream),
            accepted=sum(o.accepted for o in outcomes),
            config={"shards": 2},
            git_probe=fake_probe,
        )
        assert record.kind == "serve-bench"
        assert record.stats["rps"] == pytest.approx(25.0)
        assert record.counters["requests_total"] == 50.0
        assert "equations_checked_total" in record.counters
        assert record.metrics["counters"]
        # Server phases are stamped on every run, no tracer needed.
        assert set(record.phases_us) == set(PHASE_KEYS) - {"wire_us"}
        assert all(mean > 0 for mean in record.phases_us.values())

    def test_bench_builder_extracts_headline_from_sections(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        sections = {
            "throughput_vs_shards": {
                "runs": {
                    "1": {"rps": 2000.0, "p99": 0.4, "equations": 145000},
                    "8": {"rps": 2800.0, "p99": 0.8, "equations": 19000},
                },
            },
            "kernel_crossover": {"sizes": {}},
        }
        record = build_bench_record(
            registry, sections, {"kernel_crossover": "table\n"},
            config={"smoke": True}, label="smoke", git_probe=fake_probe,
        )
        assert record.kind == "bench"
        assert record.stats["rps"] == 2800.0
        assert record.counters["equations_checked_total"] == 19000.0
        assert record.bench["throughput_vs_shards"]["runs"]["8"]["rps"] == 2800.0
        assert record.artifacts == {"kernel_crossover": "table\n"}

    def test_counter_totals_sums_label_cells(self):
        snapshot = {
            "counters": {
                "requests_total": {"accepted": 40.0, "rejected": 10.0},
                "batches_total": {"_": 5.0},
            },
            "gauges": {},
        }
        assert counter_totals(snapshot) == {
            "requests_total": 50.0, "batches_total": 5.0,
        }
        assert counter_totals({}) == {}
