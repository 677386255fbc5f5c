"""Unified experiment facade (repro.run)."""

import ast
from pathlib import Path

import pytest

import repro
from repro import fig2_scenario
from repro.exceptions import ConfigurationError, SimulationError
from repro.facade import run
from repro.simulation import (
    CarFollowingSimulation,
    FigureData,
    MonteCarloSummary,
    PlatoonResult,
    PlatoonScenario,
    PlatoonSimulation,
    RunSpec,
    SimulationResult,
    run_many,
    scenario_to_dict,
    save_scenario,
)
from repro.simulation.io import result_to_dict
from repro.store import RunStore
from repro.vehicle import ConstantAccelerationProfile

FAST = fig2_scenario("dos", horizon=20.0)


def _platoon_scenario():
    return PlatoonScenario(
        leader_profile=ConstantAccelerationProfile(-0.05),
        n_followers=2,
        horizon=20.0,
    )


class TestRunModes:
    def test_default_mode_is_single(self):
        result = run(FAST)
        assert isinstance(result, SimulationResult)
        reference = CarFollowingSimulation(FAST).run()
        assert result_to_dict(result) == result_to_dict(reference)

    def test_single_toggles(self):
        undefended = run(FAST, attack_enabled=False, defended=False)
        assert isinstance(undefended, SimulationResult)
        assert not undefended.detection_times

    def test_single_mode_toggles_match_impl(self):
        for attack_enabled, defended in ((False, False), (True, False), (False, True)):
            result = run(FAST, attack_enabled=attack_enabled, defended=defended)
            reference = CarFollowingSimulation(
                FAST, attack_enabled=attack_enabled, defended=defended
            ).run()
            assert result_to_dict(result) == result_to_dict(reference)

    def test_figure_mode_legs_match_single_mode(self):
        data = run(FAST, mode="figure")
        legs = (
            (data.baseline, False, False),
            (data.attacked, True, False),
            (data.defended, True, True),
        )
        for leg, attack_enabled, defended in legs:
            single = run(FAST, attack_enabled=attack_enabled, defended=defended)
            assert result_to_dict(leg) == result_to_dict(single)

    def test_figure_mode(self):
        scenario = fig2_scenario("dos")
        data = run(scenario, mode="figure")
        assert isinstance(data, FigureData)
        assert data.detection_time() == 182.0
        reference = run_many(
            [
                RunSpec(scenario, attack_enabled=False, defended=False),
                RunSpec(scenario, attack_enabled=True, defended=False),
                RunSpec(scenario, attack_enabled=True, defended=True),
            ]
        )
        assert [
            result_to_dict(r) for r in (data.baseline, data.attacked, data.defended)
        ] == [result_to_dict(r) for r in reference]

    def test_monte_carlo_mode_with_explicit_seeds(self):
        summary = run(
            fig2_scenario("dos"), mode="monte_carlo", seeds=range(3), workers=2
        )
        assert isinstance(summary, MonteCarloSummary)
        assert [o.seed for o in summary.outcomes] == [0, 1, 2]
        reference = repro.simulation.monte_carlo.run_monte_carlo(
            fig2_scenario("dos"), range(3)
        )
        assert summary.outcomes == reference.outcomes

    def test_monte_carlo_mode_derives_seed_count(self):
        summary = run(FAST, mode="monte_carlo", seeds=4)
        assert summary.n_runs == 4
        seeds = [o.seed for o in summary.outcomes]
        assert len(set(seeds)) == 4
        assert seeds == list(repro.derive_seeds(FAST.sensor_seed, 4))

    def test_monte_carlo_requires_seeds(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            run(FAST, mode="monte_carlo")

    def test_platoon_mode_autoselected(self):
        result = run(_platoon_scenario())
        assert isinstance(result, PlatoonResult)
        assert result.n_followers == 2

    def test_platoon_mode_attack_toggle_matches_impl(self):
        scenario = _platoon_scenario()
        result = run(scenario, attack_enabled=False)
        reference = PlatoonSimulation(scenario, attack_enabled=False).run()
        assert result.collision_times == reference.collision_times
        assert {k: v.values for k, v in result.traces.items()} == {
            k: v.values for k, v in reference.traces.items()
        }

    def test_platoon_scenario_rejects_other_modes(self):
        with pytest.raises(ConfigurationError, match="does not fit"):
            run(_platoon_scenario(), mode="figure")

    def test_pair_scenario_rejects_platoon_mode(self):
        with pytest.raises(ConfigurationError, match="does not fit"):
            run(FAST, mode="platoon")

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run(FAST, mode="grid")


class TestSpecInputs:
    def test_dict_spec(self):
        result = run(scenario_to_dict(FAST))
        assert result.min_gap() == run(FAST).min_gap()

    def test_path_spec(self, tmp_path):
        path = save_scenario(FAST, tmp_path / "spec.json")
        result = run(str(path))
        assert result.min_gap() == run(FAST).min_gap()

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="Scenario"):
            run(42)


class TestPublicNames:
    def test_removed_aliases_are_gone(self):
        """``repro.run`` is the one public runner; the old aliases are gone."""
        assert repro.run is run
        for name in (
            "run_single",
            "run_figure_scenario",
            "run_monte_carlo",
            "run_platoon",
        ):
            assert not hasattr(repro, name)
            assert not hasattr(repro.facade, name)
            assert name not in repro.__all__

    @pytest.mark.parametrize(
        "name",
        [
            "ArcLane",
            "BicycleKinematics",
            "LaneKeepingController",
            "LateralSimulation",
            "LateralState",
            "SinusoidalLane",
            "StraightLane",
            "LMSPredictor",
        ],
    )
    def test_deleted_names_are_gone(self, name):
        """No public namespace re-exports a deleted class."""
        for module in (repro, repro.vehicle, repro.core):
            assert not hasattr(module, name)
            assert name not in module.__all__

    @pytest.mark.parametrize(
        "module",
        [repro, repro.vehicle, repro.core, repro.simulation, repro.store],
        ids=lambda module: module.__name__,
    )
    def test_every_exported_name_resolves(self, module):
        for name in module.__all__:
            assert getattr(module, name, None) is not None, name


class TestKnobRules:
    @pytest.mark.parametrize("workers", [True, False])
    def test_boolean_workers_rejected(self, workers):
        for mode in ("figure", "single"):
            with pytest.raises(ConfigurationError, match="workers must be an int"):
                run(FAST, mode=mode, workers=workers)

    @pytest.mark.parametrize("seeds", [0, [], ()])
    def test_monte_carlo_rejects_empty_seeds(self, seeds):
        with pytest.raises(ConfigurationError, match="seeds must name at least one"):
            run(FAST, mode="monte_carlo", seeds=seeds)

    @pytest.mark.parametrize("mode", ["single", "figure", "sweep"])
    def test_seeds_rejected_outside_monte_carlo(self, mode):
        with pytest.raises(ConfigurationError, match="seeds= argument only applies"):
            run(FAST, mode=mode, seeds=3)
        with pytest.raises(ConfigurationError, match="seeds= argument only applies"):
            run(FAST, mode=mode, seeds=[1, 2])

    def test_seeds_rejected_for_platoons(self):
        with pytest.raises(ConfigurationError, match="seeds= argument only applies"):
            run(_platoon_scenario(), seeds=3)


def _explode(self):
    raise RuntimeError("engine exploded")


class TestRunFailures:
    """A failing run surfaces as the batch's SimulationError in every
    mode, whatever the cache and backend knobs say."""

    @pytest.mark.parametrize("backend", ["scalar", "auto"])
    @pytest.mark.parametrize("with_store", [False, True])
    def test_single_mode(self, monkeypatch, tmp_path, backend, with_store):
        monkeypatch.setattr(CarFollowingSimulation, "run", _explode)
        with RunStore(tmp_path / "runs.sqlite") as store:
            with pytest.raises(SimulationError) as excinfo:
                run(FAST, cache=store if with_store else "off", backend=backend)
            assert len(store) == 0
        assert str(excinfo.value).startswith("1/1 batch runs failed;")
        assert "RuntimeError: engine exploded" in str(excinfo.value)

    def test_platoon_mode(self, monkeypatch):
        monkeypatch.setattr(PlatoonSimulation, "run", _explode)
        with pytest.raises(SimulationError, match="RuntimeError: engine exploded"):
            run(_platoon_scenario())


def _calls_in(path):
    """Names of every function called in a python source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            names.add(getattr(func, "attr", None) or getattr(func, "id", None))
    return names


class TestOneWayIn:
    """``execute_batch`` is the only way into the engines."""

    ROOT = Path(repro.__file__).parent

    def callers(self, *names):
        return sorted(
            path.relative_to(self.ROOT).as_posix()
            for path in self.ROOT.rglob("*.py")
            if _calls_in(path) & set(names)
        )

    def test_only_the_batch_constructs_engines(self):
        assert self.callers("CarFollowingSimulation", "PlatoonSimulation") == [
            "simulation/batch.py"
        ]

    def test_knobs_validated_by_the_batch_and_the_service_only(self):
        assert self.callers("validate_workers", "resolve_backend") == [
            "service/jobs.py",
            "simulation/batch.py",
        ]
