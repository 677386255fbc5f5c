"""Summary-only replays: sweeps and Monte-Carlo read a stored run's
``ResultSummary``, never its trace payload.

``run_sweep`` and ``run_monte_carlo`` reduce every run with
``monte_carlo._seed_outcome``, a ``SummaryReducer``; on a cache hit
``execute_batch`` serves it from ``RunStore.summary``.  These tests pin
that a warm replay gives the same ``SeedOutcome``s as the cold pass, in
every execution mode, and that it never decodes a payload.
"""

import sqlite3
from dataclasses import replace

import numpy as np
import pytest

import repro
import repro.store.runstore as runstore_module
from repro import telemetry
from repro.analysis.metrics import detection_latency
from repro.analysis.report import build_report
from repro.simulation import (
    PANELS,
    RunSpec,
    SimulationResult,
    panel_scenario,
    run_monte_carlo,
)
from repro.simulation.monte_carlo import SeedOutcome, _seed_outcome
from repro.simulation.results import TRACE_NAMES, ResultSummary
from repro.simulation.scenario import DEFENSE_STRATEGIES
from repro.simulation.sweep import SweepCell, run_sweep
from repro.store import RunStore, StoreCorruptionError, run_fingerprint
from repro.types import DetectionEvent

#: A fig2a seed on which secure reconstruction collides.
COLLIDING_SEED = 618468447


def _strategy(panel, strategy):
    scenario = panel_scenario(panel)
    return scenario.with_overrides(defense=replace(scenario.defense, strategy=strategy))


#: The four panels x rls / safety_filter, an attack-free cell, and
#: secure reconstruction (which collides on ``COLLIDING_SEED``).
CELLS = (
    *(
        SweepCell(f"{panel}/{strategy}", _strategy(panel, strategy))
        for panel in PANELS
        for strategy in ("rls", "safety_filter")
    ),
    SweepCell("fig2a/attack-free", panel_scenario("fig2a"), attack_enabled=False),
    SweepCell(
        "fig2a/secure_reconstruction", _strategy("fig2a", "secure_reconstruction")
    ),
)

SWEEP = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=2)
SEEDS = (7, COLLIDING_SEED)


def _sweep(**knobs):
    result = run_sweep(CELLS, **SWEEP, **knobs)
    return [(cell.key, cell.outcomes) for cell in result.cells]


def _monte_carlo(**knobs):
    return [
        (
            cell.key,
            run_monte_carlo(
                cell.scenario,
                seeds=SEEDS,
                attack_enabled=cell.attack_enabled,
                defended=cell.defended,
                **knobs,
            ).outcomes,
        )
        for cell in CELLS
    ]


DRIVERS = {"sweep": _sweep, "monte_carlo": _monte_carlo}


@pytest.fixture(scope="module")
def reference():
    """Each driver's outcomes with no store, serial, scalar."""
    return {name: driver(backend="scalar") for name, driver in DRIVERS.items()}


def _open(tmp_path, shards):
    if shards is None:
        return RunStore(tmp_path / "s.sqlite")
    return RunStore(tmp_path / "s", shards=shards)


def test_reference_covers_a_collision_and_the_attack_free_cell(reference):
    outcomes = dict(reference["monte_carlo"])
    [_, colliding] = outcomes["fig2a/secure_reconstruction"]
    assert colliding.seed == COLLIDING_SEED and colliding.collided
    assert all(o.detection_time is None for o in outcomes["fig2a/attack-free"])
    assert all(o.detection_latency == 0.0 for o in outcomes["fig2a/rls"])


#: Every pair of (store layout, worker count, backend) values, each in
#: one of four runs: 1-file/3-file, serial/pooled, scalar/auto.
KNOBS = ((None, 1, "scalar"), (None, 2, "auto"), (3, 1, "auto"), (3, 2, "scalar"))


class TestColdEqualsWarm:
    @pytest.mark.parametrize("shards, workers, backend", KNOBS)
    @pytest.mark.parametrize("driver", sorted(DRIVERS))
    def test_warm_outcomes_equal_cold(
        self, tmp_path, reference, driver, shards, workers, backend
    ):
        run = DRIVERS[driver]
        with _open(tmp_path, shards) as store:
            cold = run(cache=store, workers=workers, backend=backend)
            with telemetry.session() as tele:
                warm = run(cache=store, workers=workers, backend=backend)
        assert cold == warm == reference[driver]
        runs = sum(len(outcomes) for _, outcomes in cold)
        assert tele.counters["batch.cache_hits"] == runs
        assert tele.counters["store.hits"] == runs
        assert "store.hit_bytes" not in tele.counters  # no payload read


class TestNoDecode:
    def test_summary_replays_never_decode(self, tmp_path, reference, monkeypatch):
        with _open(tmp_path, 3) as store:
            for run in DRIVERS.values():
                run(cache=store)
            def no_decode(*args):
                raise RuntimeError("payload decoded")

            monkeypatch.setattr(runstore_module, "_decode_payload", no_decode)
            for name, run in DRIVERS.items():
                assert run(cache=store) == reference[name]
            # A full replay still decodes.
            cell = CELLS[0]
            with pytest.raises(RuntimeError, match="payload decoded"):
                repro.run(cell.scenario.with_overrides(sensor_seed=7), cache=store)

    def test_a_damaged_payload_with_an_intact_summary_replays(
        self, tmp_path, reference
    ):
        """Claim boundary: a summary-only replay trusts the row."""
        with _open(tmp_path, None) as store:
            assert _monte_carlo(cache=store) == reference["monte_carlo"]
            with sqlite3.connect(store.path) as conn:
                conn.execute("UPDATE runs SET payload = substr(payload, 1, 64)")
            assert _monte_carlo(cache=store) == reference["monte_carlo"]
            cell = CELLS[0]
            with pytest.raises(StoreCorruptionError):
                repro.run(cell.scenario.with_overrides(sensor_seed=7), cache=store)

    def test_warm_report_seed_sections_decode_nothing(self, tmp_path, monkeypatch):
        """A warm report decodes the figure and comparison runs it
        tabulates in full; its seed-robustness sweeps add no decode."""
        decodes = []
        decode = runstore_module._decode_payload

        def counting(*args):
            decodes.append(1)
            return decode(*args)

        seeds = (3, 4)
        with _open(tmp_path, None) as store:
            cold = build_report(seeds=seeds, cache=store)
            monkeypatch.setattr(runstore_module, "_decode_payload", counting)
            assert build_report(cache=store) != cold
            without_seeds = len(decodes)
            assert without_seeds > 0
            assert build_report(seeds=seeds, cache=store) == cold
        assert len(decodes) == 2 * without_seeds


def _result_with_detections(times, flags):
    """A two-sample run whose detector raised the alarm per ``flags``."""
    result = SimulationResult.empty("latency")
    for k in range(2):
        result.record(float(k), **{name: 10.0 for name in TRACE_NAMES})
    result.detection_events = [
        DetectionEvent(t, flag, 1.0) for t, flag in zip(times, flags)
    ]
    return result


def test_latency_on_a_summary_equals_the_full_result_path():
    """A detection before the attack onset is the first detection time
    but not the latency, whichever form of the run is reduced."""
    scenario = panel_scenario("fig2a")
    onset = scenario.attack.window.start
    result = _result_with_detections(
        (onset - 100.0, onset - 90.0, onset + 4.0), (True, False, True)
    )
    spec = RunSpec(scenario)
    expected = SeedOutcome(
        seed=scenario.sensor_seed,
        min_gap=10.0,
        collided=False,
        detection_time=onset - 100.0,
        detection_latency=detection_latency(result, scenario.attack),
    )
    assert expected.detection_latency == 4.0
    assert _seed_outcome.fn(spec, result.summary()) == expected
    assert _seed_outcome(spec, result) == expected


def test_stored_summary_is_exact(tmp_path):
    """``put`` stores the unrounded summary with every detection time."""
    spec = RunSpec(CELLS[0].scenario.with_overrides(sensor_seed=7))
    result = repro.run(spec.scenario)
    with RunStore(tmp_path / "s.sqlite") as store:
        store.put(run_fingerprint(spec), result)
        stored = store.summary(run_fingerprint(spec))
    assert stored == result.summary()
    assert stored.min_gap != round(stored.min_gap, 2)
    assert stored.detection_times == result.detection_times


def _summary_from_arrays(result):
    """``SimulationResult.summary`` computed from whole trace arrays."""
    times = result.times
    gaps = result.array("true_distance")
    estimated = result.array("estimated_flag")
    speeds = result.array("follower_velocity")
    detections = result.detection_times
    return ResultSummary(
        name=result.name,
        duration=float(times[-1]) if times.size else 0.0,
        min_gap=float(np.min(gaps)) if gaps.size else float("nan"),
        final_gap=float(gaps[-1]) if gaps.size else float("nan"),
        collided=result.collided,
        collision_time=result.collision_time,
        detection_times=detections,
        first_detection_time=detections[0] if detections else None,
        estimated_samples=int(np.sum(estimated)) if estimated.size else 0,
        final_follower_speed=float(speeds[-1]) if speeds.size else float("nan"),
    )


@pytest.mark.parametrize("strategy", DEFENSE_STRATEGIES)
@pytest.mark.parametrize("panel", PANELS)
def test_summary_equals_the_array_reference(panel, strategy):
    result = repro.run(_strategy(panel, strategy))
    assert result.summary() == _summary_from_arrays(result)


@pytest.mark.parametrize(
    "scenario, defended",
    [
        (_strategy("fig2a", "secure_reconstruction").with_overrides(
            sensor_seed=COLLIDING_SEED
        ), True),
        (panel_scenario("fig2a"), False),
    ],
    ids=["secure_reconstruction-collides", "undefended-collides"],
)
def test_summary_of_a_collision_equals_the_array_reference(scenario, defended):
    result = repro.run(scenario, defended=defended)
    assert result.collided
    assert result.summary() == _summary_from_arrays(result)


def test_summary_of_an_empty_run_equals_the_array_reference():
    result = SimulationResult.empty("empty")
    assert repr(result.summary()) == repr(_summary_from_arrays(result))
