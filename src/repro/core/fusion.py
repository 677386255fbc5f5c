"""Redundant-sensor fusion defense — the alternative the paper rejects.

Related work (paper §2) secures sensing through redundancy: several
independent sensors measure the same quantity, a fusion rule (median)
produces the value the controller sees, and large disagreement between
a sensor and the fused value flags that sensor as corrupted.  "Redundancy
is useful for ensuring accurate sensor measurements, but it increases
cost of the system" — this module implements the approach so the
comparison bench can quantify exactly that trade against CRA+RLS.

:class:`MedianFusionDefense` fuses per-instant measurements;
:func:`run_redundant_defense` runs the full car-following loop with
``n_sensors`` radars of which ``n_attacked`` are corrupted (a spatially
localized attacker cannot illuminate every aperture/band at once — the
standard redundancy assumption; if the attacker corrupts a majority,
fusion fails, which the tests also pin down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.radar.sensor import FMCWRadarSensor
from repro.simulation.engine import _POST_COLLISION_GAP_FLOOR
from repro.simulation.results import SimulationResult
from repro.simulation.scenario import Scenario
from repro.types import RadarMeasurement
from repro.vehicle.acc import ACCSystem
from repro.vehicle.kinematics import advance_state
from repro.vehicle.state import VehicleState
from repro.vehicle.upper_controller import ControlMode

__all__ = ["FusedMeasurement", "MedianFusionDefense", "run_redundant_defense"]


@dataclass(frozen=True)
class FusedMeasurement:
    """Outcome of fusing one instant's redundant measurements."""

    time: float
    distance: float
    relative_velocity: float
    outlier_sensors: Tuple[int, ...]
    attack_suspected: bool


class MedianFusionDefense:
    """Median fusion with disagreement-based attack flagging.

    Parameters
    ----------
    n_sensors:
        Number of redundant sensors (>= 2; >= 3 to out-vote one
        corrupted sensor).
    disagreement_threshold:
        A sensor whose distance deviates from the median by more than
        this many meters is flagged as an outlier.
    """

    def __init__(self, n_sensors: int = 3, disagreement_threshold: float = 3.0):
        if n_sensors < 2:
            raise ConfigurationError(f"n_sensors must be >= 2, got {n_sensors}")
        if disagreement_threshold <= 0.0:
            raise ConfigurationError(
                f"disagreement_threshold must be positive, "
                f"got {disagreement_threshold}"
            )
        self.n_sensors = int(n_sensors)
        self.disagreement_threshold = float(disagreement_threshold)
        self._flags: List[FusedMeasurement] = []

    @property
    def history(self) -> List[FusedMeasurement]:
        """All fusion outcomes so far."""
        return list(self._flags)

    @property
    def suspected_times(self) -> List[float]:
        """Times at which some sensor was flagged as an outlier."""
        return [f.time for f in self._flags if f.attack_suspected]

    def fuse(self, measurements: Sequence[RadarMeasurement]) -> FusedMeasurement:
        """Fuse one instant's measurements from all sensors."""
        if len(measurements) != self.n_sensors:
            raise ValueError(
                f"expected {self.n_sensors} measurements, got {len(measurements)}"
            )
        distances = np.array([m.distance for m in measurements])
        velocities = np.array([m.relative_velocity for m in measurements])
        median_distance = float(np.median(distances))
        median_velocity = float(np.median(velocities))
        outliers = tuple(
            i
            for i, d in enumerate(distances)
            if abs(d - median_distance) > self.disagreement_threshold
        )
        fused = FusedMeasurement(
            time=measurements[0].time,
            distance=median_distance,
            relative_velocity=median_velocity,
            outlier_sensors=outliers,
            attack_suspected=bool(outliers),
        )
        self._flags.append(fused)
        return fused


def run_redundant_defense(
    scenario: Scenario,
    n_sensors: int = 3,
    n_attacked: int = 1,
    disagreement_threshold: float = 3.0,
    attack_enabled: bool = True,
) -> Tuple[SimulationResult, MedianFusionDefense]:
    """Closed-loop car-following run defended by sensor redundancy.

    The follower carries ``n_sensors`` radars with independent noise;
    the scenario's attack corrupts the first ``n_attacked`` of them.
    No CRA modulation is used (``transmit`` is always on): redundancy is
    the *only* defense, exactly as in the related work.

    Returns the run result and the fusion defense (whose history holds
    the disagreement flags).
    """
    if not 0 <= n_attacked <= n_sensors:
        raise ConfigurationError(
            f"n_attacked must be in [0, {n_sensors}], got {n_attacked}"
        )
    sensors = [
        FMCWRadarSensor(
            params=scenario.radar_params,
            fidelity=scenario.fidelity,
            seed=scenario.sensor_seed + 1000 * i,
            **scenario.sensor_noise_overrides(),
        )
        for i in range(n_sensors)
    ]
    fusion = MedianFusionDefense(
        n_sensors=n_sensors, disagreement_threshold=disagreement_threshold
    )
    attack = scenario.attack if attack_enabled else None
    acc = ACCSystem(scenario.acc_params)
    leader = VehicleState(
        position=scenario.initial_distance, velocity=scenario.leader_initial_speed
    )
    follower = VehicleState(position=0.0, velocity=scenario.follower_initial_speed)

    result = SimulationResult.empty(
        f"{scenario.name}/redundant-{n_sensors}x",
        attack_name=attack.label.value if attack else "none",
        defended=True,
    )
    for time in scenario.times():
        true_gap = leader.position - follower.position
        if true_gap <= 0.0 and result.collision_time is None:
            result.collision_time = time
        radar_gap = max(true_gap, _POST_COLLISION_GAP_FLOOR)
        relative_velocity = leader.velocity - follower.velocity

        effect = (
            attack.effect_at(time, radar_gap, relative_velocity)
            if attack is not None
            else None
        )
        measurements = [
            sensor.measure(
                time,
                radar_gap,
                relative_velocity,
                transmit=True,
                effect=effect if i < n_attacked else None,
            )
            for i, sensor in enumerate(sensors)
        ]
        fused = fusion.fuse(measurements)
        step = acc.step(
            follower.velocity, (fused.distance, fused.relative_velocity)
        )
        result.record(
            time,
            leader_position=leader.position,
            leader_velocity=leader.velocity,
            follower_position=follower.position,
            follower_velocity=follower.velocity,
            follower_acceleration=step.actual_acceleration,
            true_distance=true_gap,
            true_relative_velocity=relative_velocity,
            measured_distance=measurements[0].distance,
            measured_relative_velocity=measurements[0].relative_velocity,
            safe_distance=fused.distance,
            safe_relative_velocity=fused.relative_velocity,
            desired_distance=step.upper.desired_distance,
            desired_acceleration=step.desired_acceleration,
            pedal_acceleration=step.actuation.pedal_acceleration,
            brake_pressure=step.actuation.brake_pressure,
            spacing_mode=1.0 if step.mode is ControlMode.SPACING else 0.0,
            estimated_flag=1.0 if fused.attack_suspected else 0.0,
            attack_active_flag=1.0 if fused.attack_suspected else 0.0,
        )
        leader = advance_state(
            leader, scenario.leader_profile.acceleration(time), scenario.sample_period
        )
        follower = advance_state(
            follower, step.actual_acceleration, scenario.sample_period
        )
    return result, fusion
