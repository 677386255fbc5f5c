"""Unified experiment facade (repro.run)."""

import pytest

import repro
from repro import fig2_scenario
from repro.exceptions import ConfigurationError
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
