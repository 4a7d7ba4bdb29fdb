"""The benchmark's own tests, at tiny stream sizes.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from perfbench import run  # puts src/ on sys.path first
from perfbench import check, spec, tracing
from perfbench.fixture import unique_fixture

ROOT = Path(run.__file__).resolve().parent.parent


def _tiny(monkeypatch, name, **overrides):
    """Shrink a workload's stream; the pool stays the one its server child
    and set-up probes rebuild from the same seed."""
    workload = spec.WORKLOADS[name]
    fixture = overrides.pop("fixture", None) or partial(
        workload.fixture.func, **{**workload.fixture.keywords, "requests": 40}
    )
    monkeypatch.setitem(
        spec.WORKLOADS, name, dataclasses.replace(workload, fixture=fixture, **overrides)
    )


def _run(capsys, name, trace=0):
    code = run.main(
        ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(spec.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(monkeypatch, capsys, name, trace):
    _tiny(monkeypatch, name)
    code, details, result = _run(capsys, name, trace)
    assert code == 0, details["problems"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 40
    table = spec.PER_LAYER if trace else spec.END_TO_END
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        row[0]: row[1] for row in table
    }
    assert details["host"]["nproc"] and details["config"]["executor"] == "serial"
    assert set(details["config"]["kernel_by_group"].values()) == {"tree"}


def test_over_acceptance_trips_the_oracle(monkeypatch, capsys):
    """A headroom bug shared by every path passes byte-identity with
    process() but not the max-flow oracle, and the command fails."""
    from repro.core.incremental import GroupSlice

    _tiny(
        monkeypatch,
        "inproc-unique",
        fixture=partial(
            unique_fixture, groups=8, group_size=8, requests=40, aggregates=(1, 3)
        ),
    )
    monkeypatch.setattr(GroupSlice, "headroom", lambda self, members: 10**9)
    code, details, result = _run(capsys, "inproc-unique")
    assert code == 1
    assert not result["correct"] and result["failed"] > 0
    assert any("max-flow oracle" in text for text in details["problems"])


def test_wrong_verdicts_are_reported():
    fixture = unique_fixture(5, groups=2, group_size=3, requests=30, aggregates=(2, 4))
    pool, stream = fixture.pool, fixture.stream
    truth = check.true_match_sets(pool, stream)
    with spec.fresh_service(fixture) as service:
        outcomes = service.process(stream)
    assert check.violations(pool, stream, outcomes, truth) == []
    rejected = next(i for i, outcome in enumerate(outcomes) if not outcome.accepted)
    flipped = list(outcomes)
    flipped[rejected] = dataclasses.replace(
        outcomes[rejected], accepted=True, rejection_reason=None
    )
    assert any(
        "oracle" in text for text in check.violations(pool, stream, flipped, truth)
    )
    wrong_set = list(outcomes)
    wrong_set[0] = dataclasses.replace(outcomes[0], license_set=(99,))
    assert any(
        "match set" in text for text in check.violations(pool, stream, wrong_set, truth)
    )


def test_self_times_split_busy_time_between_threads():
    loop, pool_thread = 1, 2
    spans = [
        ("net.server.flush", loop, 10, 60, 1),
        (tracing.IDLE, loop, 20, 45, None),  # loop waits on the drain
        ("service.drain", pool_thread, 22, 40, None),
        ("core.incremental.revalidate", pool_thread, 25, 35, None),
        ("net.protocol.decode", loop, 62, 70, 100),
        (tracing.IDLE, loop, 80, 100, None),
    ]
    owned, busy = tracing.self_times(spans, loop, (0, 100))
    assert owned == {
        None: 10 + 2 + 10,  # loop outside spans: 0-10, 60-62, 70-80
        "net.server.flush": 10 + 15,  # 10-20 and 45-60
        "service.drain": 8,
        "core.incremental.revalidate": 10,
        "net.protocol.decode": 8,
    }
    assert busy == 100 - 2 - 5 - 20  # idle: 20-22, 40-45, 80-100
    assert sum(owned.values()) == busy


def test_traced_layers_cover_the_reported_share(monkeypatch, capsys):
    _tiny(monkeypatch, "wire-unique")
    code, _details, result = _run(capsys, "wire-unique", trace=1)
    assert code == 0
    coverage = result["metrics"]["trace.coverage_frac"]["value"]
    with open(run.OUT / "spans-wire-unique-3.json", encoding="utf-8") as handle:
        passes = json.load(handle)["passes"]
    named = busy = 0.0
    for trace in passes:
        owned, pass_busy = tracing.self_times(
            [tuple(span) for span in trace["spans"]],
            trace["loop_thread"],
            tuple(trace["window"]),
        )
        named += sum(ns for layer, ns in owned.items() if layer is not None)
        busy += pass_busy
    assert named / busy >= coverage - 1e-9
    assert 0.5 < coverage <= 1.0


def test_benchmark_json_matches_the_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [
        w.why for w in spec.WORKLOADS.values()
    ]
    assert [tuple(m.values()) for m in bench["end_to_end"]] == list(spec.END_TO_END)
    assert [tuple(m.values()) for m in bench["per_layer"]] == [
        row[:3] for row in spec.PER_LAYER
    ]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wire-unique",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={key: value for key, value in os.environ.items() if key != "PYTHONPATH"},
    )
    assert done.returncode != 0 and done.stdout == ""
