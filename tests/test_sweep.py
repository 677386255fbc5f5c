"""Adaptive variance-aware sweeps (repro.simulation.sweep)."""

import io
import json

import pytest

import repro
from repro import fig2_scenario, telemetry
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation import (
    SWEEP_METRICS,
    SWEEP_SCHEDULES,
    PlatoonScenario,
    SweepCell,
    SweepResult,
    run_sweep,
)
from repro.store import RunStore

FAST = fig2_scenario("dos", horizon=20.0)

#: Radar-noise levels give the cells genuinely different min_gap
#: variance — the heterogeneity the adaptive allocator feeds on.
NOISE_CELLS = [
    SweepCell(
        key=f"noise-{noise}",
        scenario=fig2_scenario("dos", horizon=20.0, distance_noise_std=noise),
    )
    for noise in (0.1, 1.0, 4.0)
]


def _strip_elapsed(result_dict):
    d = dict(result_dict)
    d.pop("elapsed")
    return d


class TestFixedSchedule:
    def test_every_cell_runs_max_runs(self):
        result = run_sweep(
            NOISE_CELLS, metric="min_gap", schedule="fixed",
            min_runs=2, max_runs=4,
        )
        assert result.schedule == "fixed"
        assert result.rounds == 1
        assert result.executed_runs == result.fixed_grid_runs == 12
        assert result.runs_saved == 0
        assert result.savings_fraction == 0.0
        for cell in result.cells:
            assert cell.runs == 4
            assert len(cell.outcomes) == len(cell.values) == 4

    def test_deterministic(self):
        kwargs = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=3)
        a = run_sweep(NOISE_CELLS, **kwargs)
        b = run_sweep(NOISE_CELLS, **kwargs)
        assert _strip_elapsed(a.as_dict()) == _strip_elapsed(b.as_dict())

    def test_workers_do_not_change_outcomes(self):
        kwargs = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=3)
        serial = run_sweep(NOISE_CELLS, **kwargs, workers=1)
        parallel = run_sweep(NOISE_CELLS, **kwargs, workers=2)
        for cell in serial.cells:
            assert parallel.cell(cell.key).outcomes == cell.outcomes


class TestAdaptiveSchedule:
    def test_outcomes_are_prefix_of_fixed_grid(self):
        kwargs = dict(
            metric="min_gap", target_ci=0.5, min_runs=2, max_runs=6,
            round_size=4,
        )
        fixed = run_sweep(NOISE_CELLS, schedule="fixed", **kwargs)
        adaptive = run_sweep(NOISE_CELLS, schedule="adaptive", **kwargs)
        for cell in adaptive.cells:
            reference = fixed.cell(cell.key)
            assert cell.outcomes == reference.outcomes[: cell.runs]
            assert cell.values == reference.values[: cell.runs]

    def test_zero_variance_cells_stop_at_min_runs(self):
        # At horizon 20 the paper's attack window never opens, so the
        # detection indicator is constant 0.0: every cell converges on
        # its first check and the sweep stops after one round.
        result = run_sweep(
            NOISE_CELLS, metric="detection_rate", min_runs=2, max_runs=8,
        )
        assert result.rounds == 1
        assert result.executed_runs == 2 * len(NOISE_CELLS)
        assert result.savings_fraction == pytest.approx(0.75)
        for cell in result.cells:
            assert cell.converged
            assert cell.runs == 2
            assert cell.mean == 0.0
            assert cell.ci_halfwidth == 0.0

    def test_budget_flows_to_noisy_cells(self):
        result = run_sweep(
            NOISE_CELLS, metric="min_gap", target_ci=0.05,
            min_runs=3, max_runs=12, round_size=6,
        )
        by_key = {cell.key: cell.runs for cell in result.cells}
        # The noisiest cell must consume at least as much budget as the
        # quietest; with a 40x noise spread the order is stable.
        assert by_key["noise-4.0"] >= by_key["noise-0.1"]
        assert result.executed_runs <= result.fixed_grid_runs

    def test_converged_cells_meet_target(self):
        target = 0.5
        result = run_sweep(
            NOISE_CELLS, metric="min_gap", target_ci=target,
            min_runs=2, max_runs=8, round_size=4,
        )
        for cell in result.cells:
            if cell.converged:
                assert cell.ci_halfwidth <= target

    def test_per_cell_targets(self):
        targets = {"noise-0.1": 5.0, "noise-1.0": 5.0, "noise-4.0": 5.0}
        result = run_sweep(
            NOISE_CELLS, metric="min_gap", target_ci=targets,
            min_runs=2, max_runs=6,
        )
        # A huge target everywhere: all cells converge immediately.
        assert result.executed_runs == 2 * len(NOISE_CELLS)

    def test_incomplete_target_mapping_rejected(self):
        with pytest.raises(ConfigurationError, match="missing cells"):
            run_sweep(
                NOISE_CELLS, metric="min_gap",
                target_ci={"noise-0.1": 1.0},
            )

    def test_telemetry_counters(self):
        with telemetry.session() as tele:
            result = run_sweep(
                NOISE_CELLS, metric="detection_rate", min_runs=2, max_runs=8,
            )
        assert tele.counters["sweep.rounds"] == result.rounds
        assert tele.counters["sweep.executed_runs"] == result.executed_runs
        assert tele.counters["sweep.early_stops"] == len(NOISE_CELLS)


class TestCacheInterplay:
    def test_warm_sweep_is_pure_replay(self, tmp_path):
        kwargs = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=3)
        with RunStore(tmp_path / "shards", shards=4) as store:
            cold = run_sweep(NOISE_CELLS, cache=store, **kwargs)
            assert len(store) == cold.executed_runs
            with telemetry.session() as tele:
                warm = run_sweep(NOISE_CELLS, cache=store, **kwargs)
        assert tele.counters["batch.cache_hits"] == cold.executed_runs
        for cell in cold.cells:
            assert warm.cell(cell.key).outcomes == cell.outcomes

    def test_cached_equals_uncached(self, tmp_path):
        kwargs = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=3)
        plain = run_sweep(NOISE_CELLS, **kwargs)
        with RunStore(tmp_path / "shards", shards=2) as store:
            cached = run_sweep(NOISE_CELLS, cache=store, **kwargs)
        for cell in plain.cells:
            assert cached.cell(cell.key).outcomes == cell.outcomes


class TestValidation:
    def test_no_cells(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_sweep([])

    def test_duplicate_keys(self):
        cells = [SweepCell("dup", FAST), SweepCell("dup", FAST)]
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_sweep(cells)

    def test_non_cell_rejected(self):
        with pytest.raises(ConfigurationError, match="SweepCell"):
            run_sweep([FAST])

    def test_platoon_scenario_rejected(self):
        platoon = PlatoonScenario(
            leader_profile=FAST.leader_profile, n_followers=2, horizon=20.0
        )
        with pytest.raises(ConfigurationError, match="two-vehicle"):
            run_sweep([SweepCell("p", platoon)])

    def test_unknown_metric(self):
        with pytest.raises(ConfigurationError, match="metric"):
            run_sweep([SweepCell("c", FAST)], metric="speedyness")

    def test_unknown_schedule(self):
        with pytest.raises(ConfigurationError, match="schedule"):
            run_sweep([SweepCell("c", FAST)], schedule="greedy")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_runs": 1},
            {"min_runs": 2.0},
            {"max_runs": 1},
            {"round_size": 0},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"target_ci": 0.0},
            {"target_ci": -1.0},
        ],
    )
    def test_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            run_sweep([SweepCell("c", FAST)], **kwargs)

    def test_constants(self):
        assert SWEEP_SCHEDULES == ("adaptive", "fixed")
        assert set(SWEEP_METRICS) == {
            "detection_rate", "min_gap", "collision_rate"
        }

    def test_custom_metric_callable(self):
        def halved_gap(outcome):
            return outcome.min_gap / 2.0

        result = run_sweep(
            [SweepCell("c", FAST)], metric=halved_gap,
            schedule="fixed", min_runs=2, max_runs=2,
        )
        assert result.metric == "halved_gap"
        (cell,) = result.cells
        assert cell.values == tuple(o.min_gap / 2.0 for o in cell.outcomes)

    def test_cell_lookup_raises_on_unknown(self):
        result = run_sweep(
            [SweepCell("c", FAST)], schedule="fixed", min_runs=2, max_runs=2
        )
        assert isinstance(result, SweepResult)
        assert result.cell("c").key == "c"
        with pytest.raises(KeyError):
            result.cell("nope")


class TestFacadeSweepMode:
    def test_single_cell_from_scenario(self):
        result = repro.run(
            FAST, mode="sweep",
            sweep={"metric": "min_gap", "schedule": "fixed",
                   "min_runs": 2, "max_runs": 2},
        )
        assert isinstance(result, SweepResult)
        (cell,) = result.cells
        assert cell.key == FAST.name
        assert cell.runs == 2

    def test_explicit_cells(self):
        result = repro.run(
            FAST, mode="sweep",
            sweep={"cells": NOISE_CELLS, "metric": "min_gap",
                   "schedule": "fixed", "min_runs": 2, "max_runs": 2},
        )
        assert [c.key for c in result.cells] == [c.key for c in NOISE_CELLS]

    def test_sweep_dict_requires_sweep_mode(self):
        with pytest.raises(ConfigurationError, match="sweep"):
            repro.run(FAST, mode="single", sweep={"max_runs": 2})

    def test_reserved_keys_rejected(self):
        for reserved in ("workers", "cache", "backend"):
            with pytest.raises(ConfigurationError, match=reserved):
                repro.run(FAST, mode="sweep", sweep={reserved: 1})

    def test_matches_direct_call(self):
        facade = repro.run(
            FAST, mode="sweep",
            sweep={"metric": "min_gap", "schedule": "fixed",
                   "min_runs": 2, "max_runs": 3},
        )
        direct = run_sweep(
            [SweepCell(key=FAST.name, scenario=FAST)],
            metric="min_gap", schedule="fixed", min_runs=2, max_runs=3,
        )
        assert facade.cells[0].outcomes == direct.cells[0].outcomes


class TestSweepCLI:
    def test_json_output(self, tmp_path):
        out = io.StringIO()
        code = main(
            [
                "sweep", "run", "--cells", "fig2a", "--metric", "min_gap",
                "--schedule", "fixed", "--horizon", "10",
                "--min-runs", "2", "--max-runs", "2", "--json",
            ],
            out=out,
        )
        assert code == 0
        payload = json.loads(out.getvalue())
        assert payload["schedule"] == "fixed"
        assert payload["executed_runs"] == 2
        assert payload["cells"][0]["cell"] == "fig2a"

    def test_table_output(self):
        out = io.StringIO()
        code = main(
            [
                "sweep", "run", "--cells", "fig2a", "--metric",
                "detection_rate", "--horizon", "10",
                "--min-runs", "2", "--max-runs", "4",
            ],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "fig2a" in text
        assert "executed 2 of 4 fixed-grid runs" in text

    def test_store_shards_flag_populates_store(self, tmp_path):
        store_path = tmp_path / "shards"
        out = io.StringIO()
        code = main(
            [
                "sweep", "run", "--cells", "fig2a", "--metric", "min_gap",
                "--schedule", "fixed", "--horizon", "10",
                "--min-runs", "2", "--max-runs", "2",
                "--store", str(store_path), "--store-shards", "2", "--json",
            ],
            out=out,
        )
        assert code == 0
        with RunStore(store_path) as store:
            assert store.shards == 2
            assert len(store) == 2

    def test_unknown_cell(self):
        err = io.StringIO()
        code = main(
            ["sweep", "run", "--cells", "fig9z"],
            out=io.StringIO(), err=err,
        )
        assert code == 2
        assert "unknown sweep cells: fig9z" in err.getvalue()

    def test_empty_cells(self):
        err = io.StringIO()
        code = main(
            ["sweep", "run", "--cells", ""], out=io.StringIO(), err=err
        )
        assert code == 2
        assert "no sweep cells" in err.getvalue()

    def test_bad_knob_reports_configuration_error(self):
        err = io.StringIO()
        code = main(
            [
                "sweep", "run", "--cells", "fig2a", "--horizon", "10",
                "--min-runs", "1",
            ],
            out=io.StringIO(), err=err,
        )
        assert code == 2
        assert "min_runs" in err.getvalue()
