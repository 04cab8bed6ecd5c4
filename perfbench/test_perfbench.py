"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python -m pytest perfbench -q

The smoke tests start real servers at tiny sizes, so they take a few
seconds each.
"""

from __future__ import annotations

import json
import os
import random
import re
import shutil
import subprocess
import sys

import pytest

from perfbench import analytic, harness, ingest, layers, point_mix, run, shims, spans
from repro import server as server_package
from repro.server import protocol
from repro.workloads.loadgen import zipf_cdf

ROOT = harness.ROOT
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# BENCHMARK.json and the metric names
# ----------------------------------------------------------------------


def test_benchmark_json_shape():
    bench = _benchmark()
    assert set(bench) == {
        "command",
        "paths",
        "run_seconds",
        "workloads",
        "end_to_end",
        "per_layer",
    }
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    for workload in bench["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_names_and_units_follow_the_pattern():
    bench = _benchmark()
    names = [w["name"] for w in bench["workloads"]]
    for metric in bench["end_to_end"] + bench["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))


def test_end_to_end_metrics_match_the_runner():
    bench = _benchmark()
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    for metric in bench["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}


def test_per_layer_metrics_match_the_layer_table():
    bench = _benchmark()
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, _moves in layers.PER_LAYER
    ]
    for metric in bench["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------


def test_tail_needs_ten_samples_beyond_it():
    assert harness.supports(1000, 99)
    assert not harness.supports(999, 99)
    assert harness.supports(100, 90)
    assert not harness.supports(99, 90)
    assert harness.supports(200, 95)
    assert not harness.supports(199, 95)


def test_timings_summary_states_count_and_support():
    timings = harness.Timings("t")
    for value in range(1, 101):
        timings.add(float(value))
    summary = timings.summary()
    assert summary["count"] == 100
    assert summary["p50_ms"] == pytest.approx(50.5)
    assert summary["p90_ms"] == pytest.approx(90.1)
    assert timings.tail_note(90) == "100 samples"
    assert "too few for p99" in timings.tail_note(99)


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------


def test_point_mix_schedule_is_fixed_by_the_seed():
    cdf = zipf_cdf(point_mix.KEYS, point_mix.ZIPF_S)

    def plan(seed):
        return point_mix.plan_lane(random.Random(seed), 150.0, 3.0, cdf)

    first, again, other = plan(7), plan(7), plan(8)
    assert first == again
    assert first != other
    reads = [op for op in first if op.kind == "read"]
    assert 0.8 < len(reads) / len(first) < 0.97
    assert all(op.hql.startswith("TRUTH reads (k") for op in reads)
    assert [op.offset for op in first] == sorted(op.offset for op in first)


def test_ingest_plan_is_fixed_by_the_seed():
    def plan(seed):
        job = ingest._Run(seed, 1.0, False, None)
        _template, job.rows = ingest.rows_of(job.cones, seed)
        return job.requests()

    first, again = plan(3), plan(3)
    assert first == again
    kinds = {kind for kind, _rows, _hql in first}
    assert kinds <= {"batch", "single", "retract"} and "batch" in kinds


def test_analytic_toggles_are_fixed_by_the_seed():
    def toggles(seed):
        rng = random.Random(seed)
        return [analytic.toggle_target(rng, name) for name in ("left", "right", "jleft", "jright") * 5]

    assert toggles(1) == toggles(1)
    assert toggles(1) != toggles(2)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def self_times(tree):
    """Self time per node of an explicit span tree — ``{"name", "start",
    "end", "children"}`` — replayed through a Recorder."""
    recorder = spans.Recorder()

    def replay(node):
        frame = recorder.begin(node["name"], start=node["start"])
        for child in node.get("children", ()):
            replay(child)
        recorder.end(frame, end=node["end"])

    token = spans.CURRENT.set(None)
    try:
        replay(tree)
    finally:
        spans.CURRENT.reset(token)
    return {name: s["self_ms"] * 1e6 for name, s in recorder.snapshot()["spans"].items()}


def test_self_time_on_a_synthetic_tree():
    tree = {
        "name": "root",
        "start": 0,
        "end": 100,
        "children": [
            {
                "name": "a",
                "start": 10,
                "end": 40,
                "children": [{"name": "leaf", "start": 15, "end": 25}],
            },
            {"name": "b", "start": 50, "end": 90},
        ],
    }
    assert self_times(tree) == {
        "root": pytest.approx(30),
        "a": pytest.approx(20),
        "leaf": pytest.approx(10),
        "b": pytest.approx(40),
    }


def test_recorder_diff_and_failures():
    recorder = spans.Recorder()
    wrapped = spans.timed(recorder, "op", lambda fail: 1 / 0 if fail else 1)
    wrapped(False)
    before = recorder.snapshot()
    wrapped(False)
    with pytest.raises(ZeroDivisionError):
        wrapped(True)
    delta = spans.diff(recorder.snapshot(), before)["spans"]["op"]
    assert delta["calls"] == 2
    assert delta["failures"] == 1
    assert delta["self_ms"] == pytest.approx(delta["total_ms"])


def test_layer_metrics_cover_every_name():
    counters = {key: 0.0 for key in layers.COUNTER_SUFFIXES}
    counters.update({"querycache.hits": 3.0, "querycache.misses": 1.0})
    client = {"spans": {"client.send": {"calls": 2, "total_ms": 1.0, "self_ms": 1.0}}, "counters": {}}
    server = {
        "spans": {"server.request": {"calls": 2, "total_ms": 4.0, "self_ms": 1.0}},
        "counters": {},
    }
    values = layers.compute(client, server, counters, {"obs.unexplained_ms": 0.5})
    assert list(values) == layers.PER_LAYER_NAMES
    assert values["server.request_ms"] == 2.0
    assert values["server.dispatch_self_ms"] == 0.5
    assert values["querycache.hit_rate"] == 0.75
    with pytest.raises(KeyError):
        layers.compute(client, server, counters, {"no.such_metric": 1})


def test_counters_parse_prometheus_text_across_registries():
    text = "\n".join(
        [
            "# TYPE repro_querycache_hits counter",
            "repro_querycache_hits 2",
            "repro_tenant_ta_querycache_hits 5",
            'repro_hql_statement_ms_bucket{le="1.0"} 9',
            "repro_tenant_quota_denials 0",
            "repro_bulk_evaluator_builds 4",
        ]
    )
    counters = layers.parse_counters(text)
    assert counters["querycache.hits"] == 7
    assert counters["bulk.evaluator.builds"] == 4
    assert counters["tenant.quota.denials"] == 0


# ----------------------------------------------------------------------
# smoke runs at tiny sizes
# ----------------------------------------------------------------------


@pytest.fixture(autouse=False)
def clean_work():
    yield
    harness.remove_work()


def _assert_complete(outcome):
    assert outcome.correct, (outcome.checks, outcome.record.get("errors"))
    assert outcome.attempted > 0
    gated = {name: outcome.metrics[name] for name, _unit in run.END_TO_END}
    assert all(value > 0 for value in gated.values()), gated
    assert outcome.metrics["read_p50_ms"] > 0 and outcome.metrics["error_rate"] == 0


def test_point_mix_smoke(monkeypatch, clean_work):
    monkeypatch.setattr(point_mix, "KEYS", 64)
    monkeypatch.setattr(point_mix, "SETUP_REPEATS", 1)
    monkeypatch.setattr(point_mix, "RECOVERIES", 1)
    monkeypatch.setattr(point_mix, "WRITES_PRELOAD", 16)
    monkeypatch.setattr(point_mix, "CAPACITY_S", 0.5)
    monkeypatch.setattr(point_mix, "WARMUP_S", 0.2)
    monkeypatch.setattr(point_mix, "FIXED_RATE", 100.0)
    monkeypatch.setattr(point_mix, "LADDER", (50.0, 100.0, 108.0))
    _assert_complete(point_mix.run(1, 2.0))


def test_analytic_smoke(monkeypatch, clean_work):
    monkeypatch.setattr(analytic, "CONES", 20)
    monkeypatch.setattr(analytic, "JOIN_CONES", 6)
    monkeypatch.setattr(analytic, "MIN_ROTATIONS", 1)
    monkeypatch.setattr(analytic, "SETUP_REPEATS", 1)
    monkeypatch.setattr(analytic, "RECOVERIES", 1)
    outcome = analytic.run(1, 0.5)
    _assert_complete(outcome)
    assert set(outcome.record["per_query_p50_ms"]) == set(analytic.ROTATION)


def test_ingest_smoke(monkeypatch, clean_work):
    monkeypatch.setattr(ingest, "SETUP_REPEATS", 1)
    monkeypatch.setattr(ingest, "RECOVERIES", 1)
    outcome = ingest.run(1, 0.5)
    _assert_complete(outcome)
    assert all(outcome.checks.values()), outcome.checks


def test_traced_smoke_reports_every_layer(monkeypatch, clean_work):
    monkeypatch.setattr(analytic, "CONES", 20)
    monkeypatch.setattr(analytic, "JOIN_CONES", 6)
    monkeypatch.setattr(analytic, "MIN_ROTATIONS", 1)
    monkeypatch.setattr(analytic, "SETUP_REPEATS", 1)
    monkeypatch.setattr(analytic, "RECOVERIES", 1)
    for name in ("send_frame", "recv_frame", "decode_body"):
        # Registered so monkeypatch restores the client framing after the
        # test: the shims rebind these names wherever repro bound them.
        original = getattr(protocol, name)
        for module in (protocol, server_package):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, original)
    recorder = spans.Recorder()
    shims.install_client(recorder)
    outcome = analytic.run(1, 0.5, traced=True, recorder=recorder)
    assert outcome.correct
    assert set(outcome.layers) == set(layers.PER_LAYER_NAMES)
    assert outcome.layers["algebra.combine_ms"] > 0
    assert outcome.layers["server.request_ms"] > 0
    assert outcome.layers["client.send_ms"] > 0


def test_runner_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(
        os.path.join(ROOT, "perfbench"),
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
