"""Platoon simulation (repro.simulation.platoon)."""

from dataclasses import replace

import numpy as np
import pytest

from repro import fig2_scenario
from repro.attacks import AttackWindow, DoSJammingAttack
from repro.exceptions import ConfigurationError
from repro.simulation import (
    CarFollowingSimulation,
    DefenseConfig,
    PlatoonScenario,
    PlatoonSimulation,
)
from repro.vehicle import ConstantAccelerationProfile


def make_scenario(**overrides):
    defaults = dict(
        leader_profile=ConstantAccelerationProfile(-0.1082),
        n_followers=3,
        attack=DoSJammingAttack(AttackWindow(182.0, 300.0)),
    )
    defaults.update(overrides)
    return PlatoonScenario(**defaults)


@pytest.fixture(scope="module")
def clean_run():
    return PlatoonSimulation(make_scenario(), attack_enabled=False).run()


class TestScenarioValidation:
    def test_rejects_bad_follower_count(self):
        with pytest.raises(ConfigurationError):
            make_scenario(n_followers=0)

    def test_rejects_out_of_range_attacked_index(self):
        with pytest.raises(ConfigurationError):
            make_scenario(attacked_follower=5)

    def test_rejects_out_of_range_defended_index(self):
        with pytest.raises(ConfigurationError):
            make_scenario(defended_followers=(7,))

    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigurationError):
            make_scenario(initial_gap=0.0)


class TestCleanPlatoon:
    def test_no_collisions(self, clean_run):
        assert not clean_run.any_collision()

    def test_all_traces_recorded(self, clean_run):
        assert "leader_velocity" in clean_run.traces
        for i in range(3):
            assert len(clean_run.traces[f"gap_{i}"]) == 301
            assert len(clean_run.traces[f"velocity_{i}"]) == 301

    def test_followers_track_their_predecessors(self, clean_run):
        leader_v = clean_run.traces["leader_velocity"].as_arrays()[1]
        previous = leader_v
        for i in range(3):
            follower_v = clean_run.velocity(i)
            # Each vehicle tracks its own predecessor (lag accumulates
            # down the chain, so leader-relative error would grow).  The
            # window stops before the low-speed endgame, where braking
            # to standstill makes tracking spiky.
            deviation = np.abs(follower_v[120:220] - previous[120:220])
            assert np.mean(deviation) < 2.0
            assert np.max(deviation) < 6.0
            previous = follower_v

    def test_gaps_stay_positive(self, clean_run):
        for i in range(3):
            assert clean_run.min_gap(i) > 0.0


class TestAttackedPlatoon:
    @pytest.fixture(scope="class")
    def attacked_run(self):
        return PlatoonSimulation(make_scenario(), attack_enabled=True).run()

    def test_attacked_vehicle_collides(self, attacked_run):
        assert attacked_run.collided(0)
        assert attacked_run.collision_times[0] > 182.0

    def test_disturbance_propagates_downstream(self, attacked_run, clean_run):
        amplification = attacked_run.string_amplification(clean_run)
        # Followers behind the attacked vehicle deviate far more than in
        # the clean run (string disturbance).
        assert all(a > 10.0 for a in amplification[1:])

    def test_attack_on_middle_vehicle(self, clean_run):
        result = PlatoonSimulation(
            make_scenario(attacked_follower=1), attack_enabled=True
        ).run()
        # Vehicle 0 ranges on the honest leader and stays clean.
        assert result.gap_deviation(0, clean_run) < 5.0
        assert result.collided(1) or result.min_gap(1) < clean_run.min_gap(1)


class TestDefendedPlatoon:
    @pytest.fixture(scope="class")
    def defended_run(self):
        return PlatoonSimulation(
            make_scenario(defended_followers=(0,)), attack_enabled=True
        ).run()

    def test_no_collisions(self, defended_run):
        assert not defended_run.any_collision()

    def test_detection_at_first_challenge(self, defended_run):
        detections = [
            e.time for e in defended_run.detection_events if e.attack_detected
        ]
        assert detections[0] == 182.0

    def test_defense_contains_disturbance(self, defended_run, clean_run):
        attacked = PlatoonSimulation(make_scenario(), attack_enabled=True).run()
        defended_amp = defended_run.string_amplification(clean_run)
        attacked_amp = attacked.string_amplification(clean_run)
        assert all(d < a for d, a in zip(defended_amp, attacked_amp))

    def test_downstream_gaps_near_clean(self, defended_run, clean_run):
        for i in (1, 2):
            assert defended_run.min_gap(i) > 0.5 * clean_run.min_gap(i)


def one_follower(kind, strategy, detection):
    """fig2 ``kind`` with equal initial speeds: the pair and its 1-follower platoon.

    ``strategy`` None leaves the follower undefended; ``detection`` False
    drops every CRA challenge.
    """
    paper = fig2_scenario(kind)
    pair = replace(
        paper,
        follower_initial_speed=paper.leader_initial_speed,
        defense=DefenseConfig(strategy=strategy or "rls"),
        challenge_times=paper.challenge_times if detection else (),
    )
    platoon = PlatoonScenario(
        leader_profile=pair.leader_profile,
        n_followers=1,
        horizon=pair.horizon,
        sample_period=pair.sample_period,
        initial_gap=pair.initial_distance,
        initial_speed=pair.leader_initial_speed,
        acc_params=pair.acc_params,
        radar_params=pair.radar_params,
        challenge_times=pair.challenge_times,
        defense=pair.defense,
        attack=pair.attack,
        defended_followers=() if strategy is None else (0,),
        fidelity=pair.fidelity,
        sensor_seed=pair.sensor_seed,
    )
    return pair, platoon


class TestOneFollowerIsThePairEngine:
    """Every follower runs the pair engine's step, defense included."""

    @pytest.mark.parametrize("detection", [True, False], ids=["cra", "no-cra"])
    @pytest.mark.parametrize(
        "strategy",
        [None, "rls", "secure_reconstruction", "safety_filter", "combined"],
    )
    @pytest.mark.parametrize("kind", ["dos", "delay"])
    def test_bit_identical(self, kind, strategy, detection):
        pair, platoon = one_follower(kind, strategy, detection)
        engine = CarFollowingSimulation(pair, defended=strategy is not None).run()
        chain = PlatoonSimulation(platoon).run()
        view_gap = chain.traces["view_gap_0"].as_arrays()[1]
        assert np.array_equal(chain.gap(0), engine.array("true_distance"))
        assert np.array_equal(chain.velocity(0), engine.array("follower_velocity"))
        assert np.array_equal(view_gap, engine.array("safe_distance"))
        assert chain.detection_events == engine.detection_events

    def test_safety_filter_holds_without_detection(self):
        # The DoS is never detected, so only the filter keeps the gap.
        pair, platoon = one_follower("dos", "safety_filter", detection=False)
        chain = PlatoonSimulation(platoon).run()
        assert not chain.any_collision()
        assert chain.min_gap(0) == CarFollowingSimulation(pair).run().min_gap()
