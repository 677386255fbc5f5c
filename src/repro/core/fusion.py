"""Redundant-sensor fusion defense — the alternative the paper rejects.

Related work (paper §2) secures sensing through redundancy: several
independent sensors measure the same quantity, a fusion rule (median)
produces the value the controller sees, and large disagreement between
a sensor and the fused value flags that sensor as corrupted.  "Redundancy
is useful for ensuring accurate sensor measurements, but it increases
cost of the system" — this module implements the approach so the
comparison bench can quantify exactly that trade against CRA+RLS.

:class:`MedianFusionDefense` fuses per-instant measurements;
:func:`run_redundant_defense` runs the pair engine's car-following loop
with ``n_sensors`` radars of which ``n_attacked`` are corrupted (a spatially
localized attacker cannot illuminate every aperture/band at once — the
standard redundancy assumption; if the attacker corrupts a majority,
fusion fails, which the tests also pin down).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.cra import ChallengeSchedule
from repro.core.pipeline import SafeMeasurement
from repro.exceptions import ConfigurationError
from repro.radar.sensor import FMCWRadarSensor
from repro.simulation.engine import _FollowerStep, _run_pair
from repro.simulation.results import SimulationResult
from repro.simulation.scenario import Scenario
from repro.types import RadarMeasurement
from repro.vehicle.acc import ACCSystem

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


@dataclass
class _RedundantRadar:
    """``n`` radars read as one sensor, fused in the defense pipeline's seat.

    :meth:`measure` hands the attack's effect to the first
    ``n_attacked`` radars and returns radar 0's reading (the traces'
    ``measured_*``); :meth:`process` fuses every radar's reading and
    hands the median to the controller, with both flags set to the
    outlier flag.
    """

    sensors: List[FMCWRadarSensor]
    n_attacked: int
    fusion: MedianFusionDefense
    readings: Sequence[RadarMeasurement] = ()

    def measure(self, time, distance, relative_velocity, transmit=True, effect=None):
        self.readings = [
            sensor.measure(
                time,
                distance,
                relative_velocity,
                transmit=transmit,
                effect=effect if i < self.n_attacked else None,
            )
            for i, sensor in enumerate(self.sensors)
        ]
        return self.readings[0]

    def process(self, measurement, follower_speed=None) -> SafeMeasurement:
        fused = self.fusion.fuse(self.readings)
        return SafeMeasurement(
            time=fused.time,
            distance=fused.distance,
            relative_velocity=fused.relative_velocity,
            estimated=fused.attack_suspected,
            attack_active=fused.attack_suspected,
            raw=measurement,
        )


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
    the *only* defense, exactly as in the related work.  The run is the
    pair engine's loop around one follower step whose sensor and
    pipeline are the fused radars.

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
    radars = _RedundantRadar(sensors, n_attacked, fusion)
    attack = scenario.attack if attack_enabled else None
    acc = ACCSystem(scenario.acc_params)
    no_challenges = ChallengeSchedule(())
    step = _FollowerStep(scenario, radars, acc, attack, no_challenges, pipeline=radars)
    result = SimulationResult.empty(
        f"{scenario.name}/redundant-{n_sensors}x",
        attack_name=attack.label.value if attack else "none",
        defended=True,
    )
    _run_pair(scenario, step, result)
    return result, fusion
