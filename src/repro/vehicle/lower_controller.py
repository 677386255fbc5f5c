"""Lower-level ACC controller: pedal/brake actuation + Eqn 14 tracking.

The lower level "determines the acceleration of pedal (a_pedal) and
brake pressure (P_brake) of the follower vehicle to ensure the desired
acceleration a_des is tracked by the actual acceleration a_F" (§6.1).
The paper compensates plant nonlinearities with inverse longitudinal
dynamics so the closed loop reduces to the first-order lag of Eqn 14;
we therefore model actuation as a static split around the coast
deceleration (what the vehicle does with neither pedal) followed by the
lag tracked in :class:`FirstOrderLongitudinalDynamics`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.vehicle.longitudinal import FirstOrderLongitudinalDynamics
from repro.vehicle.params import ACCParameters

__all__ = ["ActuatorCommand", "LowerLevelController"]


@dataclass(frozen=True)
class ActuatorCommand:
    """The internal actuation state of the ACC (Figure 1's a_pedal, P_brake).

    Attributes
    ----------
    pedal_acceleration:
        Acceleration demanded from the powertrain, m/s² (>= 0).
    brake_pressure:
        Brake pressure demanded from the hydraulics, bar (>= 0).
    commanded_acceleration:
        The saturated acceleration command the split corresponds to.
    """

    pedal_acceleration: float
    brake_pressure: float
    commanded_acceleration: float


class LowerLevelController:
    """Splits ``a_des`` into pedal/brake and tracks it through the lag."""

    def __init__(self, params: ACCParameters, initial_acceleration: float = 0.0):
        self.params = params
        self.dynamics = FirstOrderLongitudinalDynamics(params, initial_acceleration)

    @property
    def actual_acceleration(self) -> float:
        """The plant's current acceleration ``a_F``."""
        return self.dynamics.acceleration

    def actuation_split(self, desired_acceleration: float) -> ActuatorCommand:
        """Compute the pedal/brake split for a desired acceleration.

        Demands above the coast deceleration are met by the powertrain;
        demands below it require braking, with pressure proportional to
        the deceleration deficit (the inverse-dynamics map reduced to a
        constant gain).
        """
        params = self.params
        command = self.dynamics.clamp_command(desired_acceleration)
        surplus = command - params.coast_deceleration
        if surplus >= 0.0:
            return ActuatorCommand(
                pedal_acceleration=surplus,
                brake_pressure=0.0,
                commanded_acceleration=command,
            )
        return ActuatorCommand(
            pedal_acceleration=0.0,
            brake_pressure=params.brake_gain * (-surplus),
            commanded_acceleration=command,
        )

    def step(self, desired_acceleration: float) -> "tuple[float, ActuatorCommand]":
        """Advance the plant one sample toward ``a_des``.

        Returns the new actual acceleration and the actuation split
        used.
        """
        command = self.actuation_split(desired_acceleration)
        actual = self.dynamics.step(command.commanded_acceleration)
        return actual, command

    def reset(self, acceleration: float = 0.0) -> None:
        """Reset the tracked acceleration state."""
        self.dynamics.reset(acceleration)

    def snapshot(self) -> object:
        """The plant's acceleration state, kept exactly (no ``float()``)."""
        return self.dynamics._acceleration

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        self.dynamics._acceleration = snapshot
