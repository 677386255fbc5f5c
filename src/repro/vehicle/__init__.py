"""Car-following substrate: ACC hierarchy, vehicle dynamics, IDM (§6.1).

The follower vehicle carries an ACC system with a hierarchical control
architecture (Figure 1):

* the **upper-level controller** turns radar measurements into a desired
  acceleration via the constant-time-headway (CTH) policy (Eqns 12-13),
  switching between *speed control* (track the set speed) and *spacing
  control* (track the desired gap);
* the **lower-level controller** turns the desired acceleration into
  pedal/brake actuation; its closed loop with the plant behaves as the
  first-order lag of Eqn 14 (``K_L / (T_L s + 1)``).

Vehicle kinematics follow Eqns 15-17 (velocity and position updates from
acceleration).  The intelligent-driver model (IDM) the paper enhances is
also provided, both as an alternative follower policy and as a baseline.
"""

from repro.vehicle.state import VehicleState
from repro.vehicle.params import ACCParameters
from repro.vehicle.longitudinal import FirstOrderLongitudinalDynamics
from repro.vehicle.kinematics import advance_state
from repro.vehicle.upper_controller import UpperLevelController, ControlMode
from repro.vehicle.lower_controller import LowerLevelController, ActuatorCommand
from repro.vehicle.acc import ACCSystem, ACCStepResult
from repro.vehicle.idm import IDMParameters, IntelligentDriverModel, IDMFollowerController
from repro.vehicle.leader import (
    LeaderProfile,
    ConstantAccelerationProfile,
    PiecewiseAccelerationProfile,
    StopAndGoProfile,
)

__all__ = [
    "VehicleState",
    "ACCParameters",
    "FirstOrderLongitudinalDynamics",
    "advance_state",
    "UpperLevelController",
    "ControlMode",
    "LowerLevelController",
    "ActuatorCommand",
    "ACCSystem",
    "ACCStepResult",
    "IDMParameters",
    "IntelligentDriverModel",
    "IDMFollowerController",
    "LeaderProfile",
    "ConstantAccelerationProfile",
    "PiecewiseAccelerationProfile",
    "StopAndGoProfile",
]
