"""Multi-vehicle platoon simulation.

The paper's case study is a two-vehicle car-following pair; an ACC
deployment is a *platoon* — a chain of followers, each ranging on its
predecessor with its own radar.  This module extends the closed-loop
engine to N followers and lets an attack target any one vehicle's radar,
answering two questions the paper's setting raises naturally:

* does a sensor attack on one vehicle propagate down the chain (string
  stability under attack)?
* does defending the attacked vehicle alone contain the disturbance?

Every follower runs the pair engine's step
(:class:`~repro.simulation.engine._FollowerStep`) on its own radar:
defended followers carry the scenario's defense (the Algorithm 2
pipeline, with secure reconstruction and the safety filter when the
strategy has them), undefended ones the conventional coasting tracker.
A 1-follower platoon is the pair engine's run, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import Attack
from repro.exceptions import ConfigurationError
from repro.radar.params import FMCWParameters
from repro.simulation.engine import _FollowerStep
from repro.simulation.scenario import DefenseConfig, Scenario, paper_challenge_times
from repro.types import DetectionEvent, TimeSeries
from repro.units import mph_to_mps
from repro.vehicle.kinematics import advance_state
from repro.vehicle.leader import LeaderProfile
from repro.vehicle.params import ACCParameters
from repro.vehicle.state import VehicleState

__all__ = ["PlatoonScenario", "PlatoonResult", "PlatoonSimulation"]


@dataclass(frozen=True)
class PlatoonScenario:
    """A leader plus ``n_followers`` ACC vehicles in single file.

    Attributes
    ----------
    leader_profile:
        Acceleration profile of the head vehicle.
    n_followers:
        Number of ACC-equipped followers behind the leader.
    initial_gap:
        Initial bumper-to-bumper spacing between every adjacent pair, m.
    initial_speed:
        Initial speed of every vehicle, m/s.
    attack:
        Optional attack on one follower's radar.
    attacked_follower:
        Index (0 = directly behind the leader) of the radar under attack.
    defended_followers:
        Indices carrying the CRA+RLS defense; others use a plain tracker.
    """

    leader_profile: LeaderProfile
    n_followers: int = 4
    horizon: float = 300.0
    sample_period: float = 1.0
    initial_gap: float = 50.0
    initial_speed: float = mph_to_mps(65.0)
    acc_params: ACCParameters = field(default_factory=ACCParameters)
    radar_params: FMCWParameters = field(default_factory=FMCWParameters)
    challenge_times: Tuple[float, ...] = field(default_factory=paper_challenge_times)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    attack: Optional[Attack] = None
    attacked_follower: int = 0
    defended_followers: Tuple[int, ...] = ()
    fidelity: str = "equation"
    sensor_seed: int = 2017

    def __post_init__(self) -> None:
        if self.n_followers < 1:
            raise ConfigurationError(
                f"n_followers must be >= 1, got {self.n_followers}"
            )
        if not 0 <= self.attacked_follower < self.n_followers:
            raise ConfigurationError(
                f"attacked_follower {self.attacked_follower} out of range"
            )
        if any(not 0 <= i < self.n_followers for i in self.defended_followers):
            raise ConfigurationError("defended_followers index out of range")
        if self.initial_gap <= 0.0:
            raise ConfigurationError(
                f"initial_gap must be positive, got {self.initial_gap}"
            )

    def to_pair_scenario(self) -> Scenario:
        """The two-vehicle scenario each follower's step is built from."""
        return Scenario(
            name="platoon-member",
            leader_profile=self.leader_profile,
            attack=self.attack,
            horizon=self.horizon,
            sample_period=self.sample_period,
            initial_distance=self.initial_gap,
            leader_initial_speed=self.initial_speed,
            follower_initial_speed=self.initial_speed,
            acc_params=self.acc_params,
            radar_params=self.radar_params,
            challenge_times=self.challenge_times,
            defense=self.defense,
            fidelity=self.fidelity,
            sensor_seed=self.sensor_seed,
        )


@dataclass
class PlatoonResult:
    """Traces of one platoon run.

    ``traces`` holds ``leader_velocity`` plus per-follower series
    ``gap_<i>``, ``velocity_<i>`` and ``view_gap_<i>`` (what the
    controller saw).
    """

    n_followers: int
    traces: Dict[str, TimeSeries] = field(default_factory=dict)
    collision_times: Dict[int, float] = field(default_factory=dict)
    detection_events: List[DetectionEvent] = field(default_factory=list)

    def gap(self, follower: int) -> np.ndarray:
        """True gap of follower ``follower`` to its predecessor."""
        return self.traces[f"gap_{follower}"].as_arrays()[1]

    def velocity(self, follower: int) -> np.ndarray:
        """Velocity trace of one follower."""
        return self.traces[f"velocity_{follower}"].as_arrays()[1]

    def min_gap(self, follower: int) -> float:
        """Smallest true gap of one follower over the run."""
        return float(np.min(self.gap(follower)))

    def collided(self, follower: int) -> bool:
        """True when ``follower`` reached its predecessor."""
        return follower in self.collision_times

    def any_collision(self) -> bool:
        """True when any pair collided."""
        return bool(self.collision_times)

    def gap_deviation(self, follower: int, reference: "PlatoonResult") -> float:
        """Peak |gap - reference gap| of one follower, m."""
        return float(np.max(np.abs(self.gap(follower) - reference.gap(follower))))

    def string_amplification(self, reference: "PlatoonResult") -> List[float]:
        """Peak gap deviation (vs a clean reference run) per follower.

        A string-stable chain attenuates the disturbance downstream:
        the list decreases past the attacked vehicle.
        """
        return [
            self.gap_deviation(i, reference) for i in range(self.n_followers)
        ]


class PlatoonSimulation:
    """Closed-loop simulation of a platoon scenario."""

    def __init__(self, scenario: PlatoonScenario, attack_enabled: bool = True):
        self.scenario = scenario
        self.attack = scenario.attack if attack_enabled else None

    def run(self) -> PlatoonResult:
        """Execute the run and return the platoon traces."""
        scenario = self.scenario
        pair = scenario.to_pair_scenario()
        n = scenario.n_followers
        steps = [
            _FollowerStep.build(
                pair,
                self.attack if i == scenario.attacked_follower else None,
                i in scenario.defended_followers,
                scenario.sensor_seed + i,
            )
            for i in range(n)
        ]
        # The last follower starts at 0, as the pair engine's follower.
        gap = scenario.initial_gap
        leader = VehicleState(position=n * gap, velocity=scenario.initial_speed)
        followers = [
            VehicleState(position=(n - 1 - i) * gap, velocity=scenario.initial_speed)
            for i in range(n)
        ]

        result = PlatoonResult(n_followers=n)
        result.traces["leader_velocity"] = TimeSeries("leader_velocity")
        for i in range(n):
            for prefix in ("gap", "velocity", "view_gap"):
                name = f"{prefix}_{i}"
                result.traces[name] = TimeSeries(name)

        for time in pair.times():
            result.traces["leader_velocity"].append(time, leader.velocity)
            accelerations = []
            predecessor = leader
            for i, (step, vehicle) in enumerate(zip(steps, followers)):
                true_gap = predecessor.position - vehicle.position
                if true_gap <= 0.0 and i not in result.collision_times:
                    result.collision_times[i] = time
                _, view, _, _, control = step(
                    time,
                    true_gap,
                    predecessor.velocity - vehicle.velocity,
                    vehicle.velocity,
                )
                accelerations.append(control.actual_acceleration)
                result.traces[f"gap_{i}"].append(time, true_gap)
                result.traces[f"velocity_{i}"].append(time, vehicle.velocity)
                result.traces[f"view_gap_{i}"].append(
                    time, view[0] if view is not None else 0.0
                )
                predecessor = vehicle

            leader = advance_state(
                leader,
                scenario.leader_profile.acceleration(time),
                scenario.sample_period,
            )
            followers = [
                advance_state(vehicle, acceleration, scenario.sample_period)
                for vehicle, acceleration in zip(followers, accelerations)
            ]

        attacked_pipeline = steps[scenario.attacked_follower].pipeline
        if attacked_pipeline is not None:
            result.detection_events = attacked_pipeline.detection_events
        return result
