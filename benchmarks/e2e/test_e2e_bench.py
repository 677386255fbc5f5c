"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` from the
repository root.  The smoke runs take about a minute in total.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
sys.path.insert(0, str(E2E_DIR))

import compare  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def invoke(*args: str, cwd: Path = ROOT, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# -- BENCHMARK.json and the smoke runs --------------------------------------


def test_benchmark_json_matches_the_runner():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.PER_LAYER_UNITS
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(trace):
    done = invoke("--smoke", "--trace", trace)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    final = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] > 0
    expected = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    for workload in run.WORKLOADS:
        for entry in expected:
            reported = final["metrics"][f"{workload}.{entry['name']}"]
            assert reported["unit"] == entry["unit"]
            assert isinstance(reported["value"], float)
    for entry in expected:
        assert any(
            line.split()[:1] == [entry["name"]] and entry["unit"] in line.split()
            for line in done.stdout.splitlines()
        ), entry["name"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(E2E_DIR, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".work", ".trace", "__pycache__"))
    done = invoke("--workload", "ssr_batch", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# -- inputs ------------------------------------------------------------------


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_the_seed_determines_the_inputs(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    first = cls(7, tmp_path, smoke=False).plan(12)
    again = cls(7, tmp_path, smoke=False).plan(12)
    other = cls(8, tmp_path, smoke=False).plan(12)
    assert first == again
    assert first != other


# -- output checks reject tampered results -----------------------------------


@pytest.fixture(scope="module")
def figure():
    import repro

    return repro.run(workloads.panel_scenario("fig2a"), mode="figure")


def test_figure_check_accepts_the_paper_panel(figure):
    assert workloads.check_figure(figure) == []


def test_figure_check_rejects_late_detection(figure):
    events = [
        dataclasses.replace(e, time=183.0) if e.time == 182.0 else e
        for e in figure.defended.detection_events
    ]
    tampered = dataclasses.replace(
        figure, defended=dataclasses.replace(figure.defended, detection_events=events)
    )
    assert any("expected 182.0" in p for p in workloads.check_figure(tampered))


def test_figure_check_rejects_a_false_positive_and_a_collision(figure):
    events = [
        dataclasses.replace(e, attack_detected=True) if e.time == 15.0 else e
        for e in figure.defended.detection_events
    ]
    tampered = dataclasses.replace(figure, defended=dataclasses.replace(
        figure.defended, detection_events=events, collision_time=250.0,
    ))
    problems = workloads.check_figure(tampered)
    assert any("false_positives=1" in p for p in problems)
    assert any("collided" in p for p in problems)


def test_replay_check_sees_a_single_changed_sample(figure):
    changed = dataclasses.replace(figure.defended, traces=dict(figure.defended.traces))
    series = changed.traces["true_distance"]
    changed.traces["true_distance"] = dataclasses.replace(
        series, values=series.values[:-1] + [series.values[-1] + 1e-12]
    )
    assert workloads.same_result(figure.defended, figure.defended)
    assert not workloads.same_result(figure.defended, changed)


def test_ssr_cycle_rejects_a_tampered_batch(tmp_path, monkeypatch):
    workload = workloads.SsrBatch(3, tmp_path, smoke=True)
    workload.setup()
    original = workloads.batch_mod.execute_batch

    def tampering(specs, **kwargs):
        batch = original(specs, **kwargs)
        if len(specs) == 1:  # the replays go through execute_batch too
            return batch
        first = batch.records[0]
        return dataclasses.replace(batch, records=(
            dataclasses.replace(first, payload=dataclasses.replace(
                first.payload, collision_time=12.0)),
            *batch.records[1:],
        ))

    monkeypatch.setattr(workloads.batch_mod, "execute_batch", tampering)
    tally = workloads.Tally()
    tally.new_cycle()
    workload.cycle(0, workloads.Timer(tally, None, 0), tally)
    workload.close()
    assert tally.failed == 1
    assert "replay differs" in tally.failures[0]


def test_sweep_cycle_rejects_a_replay_that_differs(tmp_path, monkeypatch):
    workload = workloads.SweepStore(3, tmp_path, smoke=True)
    original = workloads.sweep_mod.run_sweep
    calls = []

    def drifting(cells, **kwargs):
        calls.append(1)
        result = original(cells, **kwargs)
        if len(calls) == 2:  # the first replay
            cell = result.cells[0]
            cells_out = (dataclasses.replace(cell, values=cell.values[:-1] + (0.0,)),
                         *result.cells[1:])
            result = dataclasses.replace(result, cells=cells_out)
        return result

    monkeypatch.setattr(workloads.sweep_mod, "run_sweep", drifting)
    tally = workloads.Tally()
    tally.new_cycle()
    workload.cycle(0, workloads.Timer(tally, None, 0), tally)
    assert tally.attempted == 1 + workload.replays
    assert tally.failures == ["replay outcomes differ from the cold pass"]


def test_sweep_replay_check_counts_executions():
    import repro

    with workloads.count_executions() as executions:
        repro.run(workloads.panel_scenario("fig2a", horizon=30.0))
    assert executions.runs == 1


@pytest.mark.parametrize("status, payload, expect_hit, fragment", [
    (200, {"status": "done", "cache_hit": True}, False, "cache_hit True"),
    (500, {"status": "failed", "error": "boom"}, True, "500"),
    (200, {"status": "done", "cache_hit": False}, True, "expected True"),
])
def test_service_check_rejects_wrong_replies(status, payload, expect_hit, fragment):
    request = loadgen.Request("POST", "/v1/runs", b"{}", "7", expect_hit=expect_hit)
    reply = loadgen.Reply(request, 0.0, 0.0, 0.001, status, payload)
    problems = workloads.ServiceMixed._problems(reply)
    assert len(problems) == 1 and fragment in problems[0]
    good = loadgen.Reply(request, 0.0, 0.0, 0.001, 200,
                         {"status": "done", "cache_hit": expect_hit})
    assert workloads.ServiceMixed._problems(good) == []


# -- self-time arithmetic -----------------------------------------------------


def test_self_times_on_a_synthetic_span_tree(tmp_path, monkeypatch):
    clock = {"t": 0.0}
    monkeypatch.setattr(tracing, "perf_counter", lambda: clock["t"])

    def work(seconds):
        clock["t"] += seconds

    tracer = tracing.Tracer(tmp_path, role="bench")

    def leaf():
        work(2.0)

    wrapped_leaf = tracer._wrap(leaf, tracing.Target("m", "leaf", "t.leaf", "store"))
    wrapped_middle = tracer._wrap(
        lambda: (work(1.0), wrapped_leaf(), wrapped_leaf(), work(0.5)),
        tracing.Target("m", "middle", "t.middle", "simulation"),
    )
    with tracer.root("bench.cold"):
        work(0.25)
        wrapped_middle()

    assert list(tracer.stats["t.leaf"].durs) == [2.0, 2.0]
    assert list(tracer.stats["t.middle"].durs) == [5.5]
    assert list(tracer.stats["t.middle"].selfs) == [1.5]
    assert list(tracer.stats["bench.cold"].selfs) == [0.25]
    tracer.dump()
    merged = tracing.load_dir(tmp_path)
    assert tracing.layer_self_times(merged) == {
        "store": 4.0, "simulation": 1.5, "bench": 0.25,
    }
    metrics = tracing.layer_metrics(merged, wall_s=5.75, extra={})
    assert metrics["store.share"] == pytest.approx(4.0 / 5.75)
    assert metrics["trace.coverage"] == pytest.approx(5.5 / 5.75)
    assert set(metrics) == set(tracing.PER_LAYER_UNITS)


# -- compare.py ----------------------------------------------------------------


def _paired(parent, change):
    return compare.verdict(parent, change, "lower", 0.1)["verdict"]


def test_compare_improved_needs_nine_in_ten_wins_and_a_gap_beyond_the_spread():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert _paired(parent, [v * 0.8 for v in parent]) == "improved"
    # Eight wins in ten is not enough.
    mixed = [v * 0.8 for v in parent[:8]] + [v * 1.01 for v in parent[8:]]
    assert _paired(parent, mixed) == "unchanged"
    # Fewer than ten pairs never claim a gain.
    assert _paired(parent[:5], [v * 0.8 for v in parent[:5]]) == "unchanged"


def test_compare_regressed_beyond_the_bound_only():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    assert _paired(parent, [v * 1.2 for v in parent]) == "regressed"
    assert _paired(parent, [v * 1.05 for v in parent]) == "unchanged"
    # Higher-is-better metrics regress downwards.
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[
        "verdict"] == "regressed"


def test_compare_unresolved_when_the_spread_exceeds_the_bound():
    parent = [100.0, 140.0, 70.0, 120.0, 85.0, 130.0, 75.0, 110.0, 95.0, 125.0]
    change = [v * 1.12 for v in reversed(parent)]
    assert _paired(parent, change) == "unresolved"
    assert compare.verdict(parent, change, "lower", None)["verdict"] == "info"


def test_compare_cli_prints_one_row_per_metric_and_workload(tmp_path, capsys):
    def write(path, value):
        path.write_text(json.dumps({
            "host": {}, "seed": 1, "seconds": 1, "trace": 0,
            "workloads": {w: {"metrics": {
                "cold_ms_p50": {"value": value, "unit": "ms", "n": 1},
                "throughput_per_s": {"value": 1000.0 / value, "unit": "1/s", "n": 1},
            }} for w in ("ssr_batch", "sweep_store")},
        }))
        return path

    parent = [write(tmp_path / f"p{i}.json", 100.0 + i % 3) for i in range(10)]
    change = [write(tmp_path / f"c{i}.json", 150.0 + i % 3) for i in range(10)]
    assert compare.main(["--parent", *map(str, parent), "--change", *map(str, change)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if "regressed" in line]
    assert len(rows) == 4
