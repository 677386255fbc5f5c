"""Simulation engine, scenarios, results (repro.simulation)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.simulation import (
    CarFollowingSimulation,
    DefenseConfig,
    Scenario,
    fig2_scenario,
    fig3_scenario,
    paper_challenge_times,
)
from repro.simulation.results import TRACE_NAMES, SimulationResult
from repro.units import mph_to_mps
from repro.vehicle import ConstantAccelerationProfile


class TestScenarioFactories:
    def test_fig2_paper_parameters(self):
        sc = fig2_scenario("dos")
        assert sc.horizon == 300.0
        assert sc.initial_distance == 100.0
        assert sc.leader_initial_speed == pytest.approx(mph_to_mps(65.0))
        assert sc.follower_initial_speed == pytest.approx(mph_to_mps(67.0))
        assert sc.attack.window.start == 182.0

    def test_fig2_delay_starts_at_180(self):
        sc = fig2_scenario("delay")
        assert sc.attack.window.start == 180.0
        assert sc.attack.distance_offset == 6.0

    def test_fig3_leader_switches_phase(self):
        sc = fig3_scenario("dos")
        assert sc.leader_profile.acceleration(100.0) == pytest.approx(-0.1082)
        assert sc.leader_profile.acceleration(200.0) == pytest.approx(0.012)

    def test_unknown_attack_kind(self):
        with pytest.raises(ConfigurationError):
            fig2_scenario("emp")

    def test_challenge_times_include_paper_instants(self):
        times = paper_challenge_times()
        for t in (15.0, 50.0, 175.0, 182.0):
            assert t in times

    def test_overrides(self):
        sc = fig2_scenario("dos", sensor_seed=7, horizon=250.0)
        assert sc.sensor_seed == 7
        assert sc.horizon == 250.0
        assert sc.attack.window.end == 250.0

    def test_times_grid(self):
        sc = fig2_scenario("dos", horizon=10.0)
        assert list(sc.times()) == [float(k) for k in range(11)]

    def test_scenario_validation(self):
        with pytest.raises(ConfigurationError):
            Scenario(name="x", leader_profile=ConstantAccelerationProfile(0.0), horizon=0.0)
        with pytest.raises(ConfigurationError):
            Scenario(
                name="x",
                leader_profile=ConstantAccelerationProfile(0.0),
                initial_distance=-5.0,
            )

    @pytest.mark.parametrize("seed", [-1, True, False, 1.0, "7", None])
    def test_sensor_seed_must_be_non_negative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="sensor_seed"):
            fig2_scenario("dos").with_overrides(sensor_seed=seed)

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2**40])
    def test_sensor_seed_accepts_integers(self, seed):
        assert fig2_scenario("dos").with_overrides(sensor_seed=seed).sensor_seed == seed

    def test_defense_config_validation(self):
        with pytest.raises(ConfigurationError):
            DefenseConfig(basis_kind="fourier")
        with pytest.raises(ConfigurationError):
            DefenseConfig(estimator_kind="oracle")


class TestSimulationRuns:
    def test_baseline_run_traces(self):
        result = CarFollowingSimulation(
            fig2_scenario("dos"), attack_enabled=False, defended=False
        ).run()
        assert set(result.traces) == set(TRACE_NAMES)
        assert len(result.times) == 301
        assert not result.collided
        assert result.attack_name == "none"

    def test_baseline_follower_tracks_leader(self):
        result = CarFollowingSimulation(
            fig2_scenario("dos"), attack_enabled=False, defended=False
        ).run()
        vF = result.array("follower_velocity")
        vL = result.array("leader_velocity")
        # After the transient the follower matches the leader closely.
        assert np.all(np.abs(vF[100:250] - vL[100:250]) < 2.0)

    def test_gap_respects_desired_distance_when_clean(self):
        result = CarFollowingSimulation(
            fig2_scenario("dos"), attack_enabled=False, defended=False
        ).run()
        gap = result.array("true_distance")
        d_des = result.array("desired_distance")
        # Stays near the CTH target through the tracking phase.
        assert np.all(gap[100:250] > 0.5 * d_des[100:250])

    def test_challenge_zeros_visible_in_measured_trace(self):
        # The paper's "spikes going to zero" at k = 15, 50, 175...
        result = CarFollowingSimulation(
            fig2_scenario("dos"), attack_enabled=False, defended=False
        ).run()
        measured = result.series("measured_distance")
        assert measured.value_at(15.0) == 0.0
        assert measured.value_at(50.0) == 0.0
        assert measured.value_at(175.0) == 0.0
        assert measured.value_at(100.0) > 0.0

    def test_dos_attack_corrupts_measured_trace(self):
        result = CarFollowingSimulation(fig2_scenario("dos"), defended=False).run()
        measured = result.array("measured_distance")
        true = result.array("true_distance")
        errors = np.abs(measured[183:] - true[183:])
        assert np.median(errors) > 20.0

    def test_undefended_dos_collides(self):
        result = CarFollowingSimulation(fig2_scenario("dos"), defended=False).run()
        assert result.collided
        assert result.collision_time is not None
        assert result.collision_time > 182.0

    def test_defended_dos_survives(self):
        result = CarFollowingSimulation(fig2_scenario("dos"), defended=True).run()
        assert not result.collided
        assert result.detection_times == [182.0]

    def test_defended_run_estimates_during_attack(self):
        result = CarFollowingSimulation(fig2_scenario("dos"), defended=True).run()
        estimated = result.array("estimated_flag")
        times = result.times
        attack_samples = estimated[(times >= 183.0) & (times <= 299.0)]
        assert np.all(attack_samples == 1.0)

    def test_run_is_deterministic(self):
        a = CarFollowingSimulation(fig2_scenario("dos"), defended=True).run()
        b = CarFollowingSimulation(fig2_scenario("dos"), defended=True).run()
        assert np.array_equal(
            a.array("follower_velocity"), b.array("follower_velocity")
        )

    def test_named_run(self):
        sim = CarFollowingSimulation(fig2_scenario("dos"), name="custom")
        assert sim.run().name == "custom"

    def test_default_name_encodes_configuration(self):
        sim = CarFollowingSimulation(fig2_scenario("dos"), defended=False)
        assert "undefended" in sim.name
        assert "dos" in sim.name


class TestSimulationResult:
    def test_record_rejects_unknown_trace(self):
        result = SimulationResult.empty("x")
        with pytest.raises(KeyError):
            result.record(0.0, bogus=1.0)

    def test_min_gap_and_summary(self):
        result = SimulationResult.empty("x")
        for k, gap in enumerate([10.0, 5.0, 7.0]):
            values = {name: 0.0 for name in TRACE_NAMES}
            values["true_distance"] = gap
            result.record(float(k), **values)
        assert result.min_gap() == 5.0
        summary = result.summary()
        assert summary.min_gap == 5.0
        assert summary.final_gap == 7.0
        assert not summary.collided

    def test_detection_times_from_events(self):
        from repro.types import DetectionEvent

        result = SimulationResult.empty("x")
        result.detection_events = [
            DetectionEvent(15.0, False, 0.0),
            DetectionEvent(182.0, True, 40.0),
            DetectionEvent(195.0, True, 41.0),
            DetectionEvent(209.0, False, 0.0),
            DetectionEvent(222.0, True, 39.0),
        ]
        assert result.detection_times == [182.0, 222.0]

    def test_summary_as_dict(self):
        result = SimulationResult.empty("x")
        values = {name: 0.0 for name in TRACE_NAMES}
        values["true_distance"] = 10.0
        result.record(0.0, **values)
        row = result.summary().as_dict()
        assert row["name"] == "x"
        assert row["collided"] is False
