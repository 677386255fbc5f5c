"""Intelligent Driver Model (IDM) — the car-following model the paper
"enhances" with the hierarchical ACC architecture (§6.1).

The standard IDM acceleration (Treiber et al.):

    a = a_max [ 1 - (v / v0)^δ - (s* / s)² ]
    s* = s0 + v T + v Δv' / (2 sqrt(a_max b))

with ``Δv' = v - v_lead`` (approach rate, positive when closing) and gap
``s``.  The IDM is used here (a) as a human-driver baseline follower to
contrast with the ACC stack, and (b) as an optional leader behaviour
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.exceptions import ConfigurationError

__all__ = ["IDMParameters", "IntelligentDriverModel", "IDMFollowerController"]


@dataclass(frozen=True)
class IDMParameters:
    """Standard IDM parameter set (defaults: typical passenger car).

    Attributes
    ----------
    desired_speed:
        Free-flow speed ``v0``, m/s.
    time_headway:
        Safe time headway ``T``, seconds.
    max_acceleration:
        Maximum acceleration ``a_max``, m/s².
    comfortable_deceleration:
        Comfortable braking ``b`` (positive), m/s².
    minimum_gap:
        Jam distance ``s0``, meters.
    exponent:
        Acceleration exponent ``δ``.
    """

    desired_speed: float = 30.0
    time_headway: float = 1.5
    max_acceleration: float = 1.4
    comfortable_deceleration: float = 2.0
    minimum_gap: float = 2.0
    exponent: float = 4.0

    def __post_init__(self) -> None:
        for name in (
            "desired_speed",
            "time_headway",
            "max_acceleration",
            "comfortable_deceleration",
            "minimum_gap",
        ):
            if getattr(self, name) <= 0.0:
                raise ConfigurationError(f"{name} must be positive")
        if self.exponent <= 0.0:
            raise ConfigurationError("exponent must be positive")


class IntelligentDriverModel:
    """The IDM longitudinal policy.

    Examples
    --------
    >>> idm = IntelligentDriverModel()
    >>> free_road = idm.acceleration(speed=10.0, gap=None, lead_speed=None)
    >>> free_road > 0.0
    True
    """

    def __init__(self, params: Optional[IDMParameters] = None):
        self.params = params if params is not None else IDMParameters()

    def desired_gap(self, speed: float, approach_rate: float) -> float:
        """The dynamic desired gap ``s*``."""
        p = self.params
        interaction = (
            speed
            * approach_rate
            / (2.0 * math.sqrt(p.max_acceleration * p.comfortable_deceleration))
        )
        return max(0.0, p.minimum_gap + speed * p.time_headway + interaction)

    def acceleration(
        self,
        speed: float,
        gap: Optional[float],
        lead_speed: Optional[float],
    ) -> float:
        """IDM acceleration for the current situation.

        Parameters
        ----------
        speed:
            Own speed ``v``, m/s.
        gap:
            Bumper-to-bumper gap ``s`` to the leader, meters; None on a
            free road.
        lead_speed:
            Leader speed, m/s; required when ``gap`` is given.
        """
        if speed < 0.0:
            raise ValueError(f"speed must be >= 0, got {speed}")
        p = self.params
        free_term = 1.0 - (speed / p.desired_speed) ** p.exponent
        if gap is None:
            return p.max_acceleration * free_term
        if lead_speed is None:
            raise ValueError("lead_speed is required when a gap is given")
        if gap <= 0.0:
            # Already overlapping: demand maximal braking.
            return -p.comfortable_deceleration * 4.0
        approach_rate = speed - lead_speed
        s_star = self.desired_gap(speed, approach_rate)
        interaction_term = (s_star / gap) ** 2
        return p.max_acceleration * (free_term - interaction_term)


class IDMFollowerController:
    """IDM as a drop-in follower controller for the simulation engine.

    Produces the same :class:`~repro.vehicle.acc.ACCStepResult` the ACC
    stack produces, so the engine (and the defense pipeline in front of
    it) is policy-agnostic.  The IDM acceleration command is tracked
    through the same Eqn 14 lower-level loop as the ACC, so the
    comparison between the two upper-level policies is apples-to-apples.

    This is the "plain IDM" the paper *enhanced* with the hierarchical
    ACC architecture — keeping it runnable lets the follower-policy
    bench quantify what the enhancement buys under attack.
    """

    #: Defaults adapted to the 1 Hz control period of the case study:
    #: the textbook s0 = 2 m / T = 1.5 s leaves no room for the one-step
    #: actuation latency when stopping behind a halting leader.
    DEFAULT_PARAMS = IDMParameters(minimum_gap=4.0, time_headway=2.0)

    def __init__(self, params: Optional[IDMParameters] = None, acc_params=None):
        from repro.vehicle.params import ACCParameters
        from repro.vehicle.lower_controller import LowerLevelController

        self.idm = IntelligentDriverModel(
            params if params is not None else self.DEFAULT_PARAMS
        )
        self.acc_params = acc_params if acc_params is not None else ACCParameters()
        self.lower = LowerLevelController(self.acc_params)

    @property
    def actual_acceleration(self) -> float:
        """The plant's current acceleration."""
        return self.lower.actual_acceleration

    def step(self, follower_speed: float, measurement, accel_filter=None):
        """One control period; mirrors :meth:`ACCSystem.step`.

        ``accel_filter``, when given, clamps the saturated IDM command
        before the lower-level loop — same contract as the ACC stack's
        hook, so the safety filter is policy-agnostic.
        """
        from repro.vehicle.acc import ACCStepResult
        from repro.vehicle.upper_controller import ControlMode, UpperLevelOutput

        p = self.idm.params
        if measurement is None:
            command = self.idm.acceleration(follower_speed, None, None)
            mode = ControlMode.SPEED
            desired_distance = p.minimum_gap + follower_speed * p.time_headway
            clearance_error = float("inf")
            spacing_command = None
        else:
            gap, relative_velocity = measurement
            lead_speed = max(0.0, follower_speed + relative_velocity)
            command = self.idm.acceleration(follower_speed, gap, lead_speed)
            mode = ControlMode.SPACING
            desired_distance = self.idm.desired_gap(
                follower_speed, follower_speed - lead_speed
            )
            clearance_error = gap - desired_distance
            spacing_command = command
        saturated = min(
            self.acc_params.max_acceleration,
            max(self.acc_params.min_acceleration, command),
        )
        upper = UpperLevelOutput(
            desired_acceleration=saturated,
            mode=mode,
            desired_distance=desired_distance,
            clearance_error=clearance_error,
            speed_command=self.idm.acceleration(follower_speed, None, None),
            spacing_command=spacing_command,
            desired_velocity=follower_speed
            + saturated * self.acc_params.sample_period,
        )
        command = saturated if accel_filter is None else accel_filter(saturated)
        actual, actuation = self.lower.step(command)
        return ACCStepResult(
            actual_acceleration=actual, upper=upper, actuation=actuation
        )

    def reset(self, acceleration: float = 0.0) -> None:
        """Reset the plant acceleration state."""
        self.lower.reset(acceleration)

    def snapshot(self) -> object:
        """The controller's per-run state: the plant acceleration."""
        return self.lower.snapshot()

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        self.lower.restore(snapshot)
