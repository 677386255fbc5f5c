"""The complete ACC system: upper level + lower level (Figure 1).

:class:`ACCSystem` is the follower vehicle's controller stack.  Each
discrete step it consumes the trusted own-speed measurement and the
(possibly estimated) radar measurement and produces the actual
acceleration the plant realizes, along with every internal state the
paper's Figure 1 names (``a_des``, ``a_pedal``, ``P_brake``, mode,
``d_des``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.vehicle.lower_controller import ActuatorCommand, LowerLevelController
from repro.vehicle.params import ACCParameters
from repro.vehicle.upper_controller import (
    ControlMode,
    UpperLevelController,
    UpperLevelOutput,
)

__all__ = ["ACCStepResult", "ACCSystem"]


@dataclass(frozen=True)
class ACCStepResult:
    """Everything the ACC computed in one control step."""

    actual_acceleration: float
    upper: UpperLevelOutput
    actuation: ActuatorCommand

    @property
    def desired_acceleration(self) -> float:
        """Shortcut to the upper level's ``a_des``."""
        return self.upper.desired_acceleration

    @property
    def mode(self) -> ControlMode:
        """Shortcut to the active control mode."""
        return self.upper.mode


class ACCSystem:
    """Hierarchical adaptive cruise controller for the follower vehicle.

    Parameters
    ----------
    params:
        Controller and plant parameters; the paper's values by default.
    initial_acceleration:
        Plant acceleration state at k = 0.
    """

    def __init__(
        self,
        params: Optional[ACCParameters] = None,
        initial_acceleration: float = 0.0,
    ):
        self.params = params if params is not None else ACCParameters()
        self.upper = UpperLevelController(self.params)
        self.lower = LowerLevelController(self.params, initial_acceleration)

    @property
    def actual_acceleration(self) -> float:
        """The plant's current acceleration ``a_F``."""
        return self.lower.actual_acceleration

    def step(
        self,
        follower_speed: float,
        measurement: Optional[Tuple[float, float]],
        accel_filter: Optional[Callable[[float], float]] = None,
    ) -> ACCStepResult:
        """Run one control period.

        Parameters
        ----------
        follower_speed:
            Trusted ``v_F`` measurement, m/s.
        measurement:
            Safe ``(distance, relative_velocity)`` from the defense
            pipeline (or raw sensor data when undefended); None when no
            target is visible.
        accel_filter:
            Optional safety layer applied to the upper level's ``a_des``
            before it reaches the actuators (e.g.
            :meth:`repro.defense.safety_filter.SafetyFilter.clamp`
            partially applied).  The recorded ``desired_acceleration``
            stays the controller's wish; the plant tracks the filtered
            command.
        """
        upper_output = self.upper.compute(follower_speed, measurement)
        command = upper_output.desired_acceleration
        if accel_filter is not None:
            command = accel_filter(command)
        actual, actuation = self.lower.step(command)
        return ACCStepResult(
            actual_acceleration=actual,
            upper=upper_output,
            actuation=actuation,
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
