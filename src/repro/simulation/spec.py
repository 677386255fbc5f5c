"""Declarative scenario specifications (dict / JSON).

Lets a scenario live outside Python — checked into a repo, swept by a
shell script, or passed to ``python -m repro run-custom spec.json`` —
and round-trips through :func:`scenario_to_dict` /
:func:`scenario_from_dict`.

The spec is a plain nested dict.  Polymorphic pieces (leader profile,
attack) carry a ``"kind"`` discriminator::

    {
      "spec_version": 1,
      "name": "my-study",
      "leader_profile": {"kind": "constant", "acceleration": -0.1082},
      "attack": {"kind": "dos", "start": 182.0, "end": 300.0,
                 "jammer": {"peak_power": 0.1}},
      "defense": {"forgetting": 0.95, "margin_gain": 2.0},
      "horizon": 300.0
    }

Unspecified fields keep the library defaults (the paper's values).

``spec_version`` declares which revision of this format a spec was
written against.  :func:`scenario_to_dict` stamps the current
:data:`SPEC_VERSION`; :func:`scenario_from_dict` accepts specs carrying
the current version (or none at all — pre-versioning specs are version
1 by definition) and raises
:class:`~repro.exceptions.ConfigurationError` for anything else, so a
spec from a future format fails loudly instead of being silently
misread.  The version also travels through
:func:`repro.store.fingerprint.fingerprint_payload` (which serializes
scenarios via :func:`scenario_to_dict`), salting every run-store
fingerprint with the spec format revision.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.attacks import (
    Attack,
    AttackWindow,
    DelayInjectionAttack,
    DoSJammingAttack,
    PhantomTargetAttack,
)
from repro.exceptions import ConfigurationError
from repro.radar.link_budget import JammerParameters
from repro.radar.params import FMCWParameters
from repro.simulation.scenario import DefenseConfig, Scenario
from repro.vehicle.idm import IDMParameters
from repro.vehicle.leader import (
    ConstantAccelerationProfile,
    LeaderProfile,
    PiecewiseAccelerationProfile,
    StopAndGoProfile,
)
from repro.vehicle.params import ACCParameters

__all__ = [
    "SPEC_VERSION",
    "READABLE_SPEC_VERSIONS",
    "scenario_to_dict",
    "scenario_from_dict",
    "save_scenario",
    "load_scenario",
]

PathLike = Union[str, Path]

#: Current revision of the declarative spec format.  Bump when the
#: dict schema changes shape (not when scenario defaults change);
#: readers reject unknown versions up front.
#:
#: Version history:
#:
#: * 1 — original format.
#: * 2 — ``defense`` gained the strategy knobs (``strategy``,
#:   ``secure_*``, ``filter_*``; see
#:   :class:`~repro.simulation.scenario.DefenseConfig`).  Version-1
#:   specs still read (the new fields default), but writers stamp 2 —
#:   which folds into every run-store fingerprint, so stores populated
#:   before the defense track never alias against runs after it.
SPEC_VERSION = 2

#: Spec revisions :func:`scenario_from_dict` accepts.
READABLE_SPEC_VERSIONS = (1, 2)


# ----------------------------------------------------------------------
# parameter objects
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls))


def _params_to_dict(params: Any) -> Dict[str, Any]:
    """A parameter dataclass as a dict, in field order.

    Equal to ``dataclasses.asdict`` without its deep copy of every leaf:
    the parameter classes a spec carries hold only str/int/float/bool/
    None fields, so one flat copy is already independent of the object.
    """
    return {name: getattr(params, name) for name in _field_names(type(params))}


# ----------------------------------------------------------------------
# leader profiles
# ----------------------------------------------------------------------

def _profile_to_dict(profile: LeaderProfile) -> Dict[str, Any]:
    if isinstance(profile, ConstantAccelerationProfile):
        return {
            "kind": "constant",
            "acceleration": profile._acceleration,
            "start_time": profile.start_time,
        }
    if isinstance(profile, PiecewiseAccelerationProfile):
        return {
            "kind": "piecewise",
            "segments": [list(segment) for segment in profile.segments],
        }
    if isinstance(profile, StopAndGoProfile):
        return {
            "kind": "stop_and_go",
            "deceleration": profile.deceleration,
            "acceleration": profile.acceleration_value,
            "brake_time": profile.brake_time,
            "go_time": profile.go_time,
            "start_time": profile.start_time,
        }
    raise ConfigurationError(
        f"leader profile {type(profile).__name__} has no spec representation"
    )


def _profile_from_dict(data: Dict[str, Any]) -> LeaderProfile:
    kind = data.get("kind")
    if kind == "constant":
        return ConstantAccelerationProfile(
            data["acceleration"], start_time=data.get("start_time", 0.0)
        )
    if kind == "piecewise":
        return PiecewiseAccelerationProfile(
            [tuple(segment) for segment in data["segments"]]
        )
    if kind == "stop_and_go":
        return StopAndGoProfile(
            deceleration=data.get("deceleration", 1.0),
            acceleration=data.get("acceleration", 0.8),
            brake_time=data.get("brake_time", 20.0),
            go_time=data.get("go_time", 25.0),
            start_time=data.get("start_time", 0.0),
        )
    raise ConfigurationError(f"unknown leader profile kind {kind!r}")


# ----------------------------------------------------------------------
# attacks
# ----------------------------------------------------------------------

def _attack_to_dict(attack: Attack) -> Dict[str, Any]:
    window = {"start": attack.window.start, "end": attack.window.end}
    if isinstance(attack, DoSJammingAttack):
        return {
            "kind": "dos",
            **window,
            "jammer": _params_to_dict(attack.jammer),
        }
    if isinstance(attack, DelayInjectionAttack):
        return {
            "kind": "delay",
            **window,
            "distance_offset": attack.distance_offset,
            "velocity_offset": attack.velocity_offset,
            "ramp_time": attack.ramp_time,
        }
    if isinstance(attack, PhantomTargetAttack):
        return {
            "kind": "phantom",
            **window,
            "phantom_distance": attack.phantom_distance,
            "phantom_velocity": attack.phantom_velocity,
        }
    raise ConfigurationError(
        f"attack {type(attack).__name__} has no spec representation"
    )


def _attack_from_dict(data: Dict[str, Any]) -> Attack:
    kind = data.get("kind")
    window = AttackWindow(start=data["start"], end=data.get("end", float("inf")))
    if kind == "dos":
        jammer = JammerParameters(**data.get("jammer", {}))
        return DoSJammingAttack(window, jammer=jammer)
    if kind == "delay":
        return DelayInjectionAttack(
            window,
            distance_offset=data.get("distance_offset", 6.0),
            velocity_offset=data.get("velocity_offset", 0.0),
            ramp_time=data.get("ramp_time", 0.0),
        )
    if kind == "phantom":
        return PhantomTargetAttack(
            window,
            phantom_distance=data.get("phantom_distance", 10.0),
            phantom_velocity=data.get("phantom_velocity", -5.0),
        )
    raise ConfigurationError(f"unknown attack kind {kind!r}")


# ----------------------------------------------------------------------
# scenario
# ----------------------------------------------------------------------

#: Plain-float scenario fields copied verbatim between spec and object.
_SCALAR_FIELDS = (
    "name",
    "horizon",
    "sample_period",
    "initial_distance",
    "leader_initial_speed",
    "follower_initial_speed",
    "fidelity",
    "sensor_seed",
    "distance_noise_std",
    "velocity_noise_std",
    "follower_policy",
    "dropout_rate",
    "adaptive_challenge_period",
    "ego_speed_bias",
    "ego_speed_gain",
)


def scenario_to_dict(scenario: Scenario) -> Dict[str, Any]:
    """Serialize a scenario to a JSON-compatible dict."""
    spec: Dict[str, Any] = {"spec_version": SPEC_VERSION}
    spec.update(
        (field, getattr(scenario, field)) for field in _SCALAR_FIELDS
    )
    spec["leader_profile"] = _profile_to_dict(scenario.leader_profile)
    if scenario.attack is not None:
        spec["attack"] = _attack_to_dict(scenario.attack)
    spec["challenge_times"] = list(scenario.challenge_times)
    spec["defense"] = _params_to_dict(scenario.defense)
    spec["acc_params"] = _params_to_dict(scenario.acc_params)
    spec["radar_params"] = _params_to_dict(scenario.radar_params)
    if scenario.idm_params is not None:
        spec["idm_params"] = _params_to_dict(scenario.idm_params)
    return spec


def scenario_from_dict(spec: Dict[str, Any]) -> Scenario:
    """Build a scenario from a spec dict; missing fields keep defaults.

    Raises :class:`~repro.exceptions.ConfigurationError` when the spec
    declares a ``spec_version`` this library does not read (missing
    means version 1 — the format before versioning was introduced).
    """
    version = spec.get("spec_version", SPEC_VERSION)
    if version not in READABLE_SPEC_VERSIONS:
        raise ConfigurationError(
            f"unsupported spec_version {version!r}; this library reads "
            f"versions {READABLE_SPEC_VERSIONS}"
        )
    if "leader_profile" not in spec:
        raise ConfigurationError("a scenario spec requires 'leader_profile'")
    kwargs: Dict[str, Any] = {
        field: spec[field] for field in _SCALAR_FIELDS if field in spec
    }
    kwargs.setdefault("name", "custom")
    kwargs["leader_profile"] = _profile_from_dict(spec["leader_profile"])
    if "attack" in spec and spec["attack"] is not None:
        kwargs["attack"] = _attack_from_dict(spec["attack"])
    if "challenge_times" in spec:
        kwargs["challenge_times"] = tuple(spec["challenge_times"])
    if "defense" in spec:
        kwargs["defense"] = DefenseConfig(**spec["defense"])
    if "acc_params" in spec:
        kwargs["acc_params"] = ACCParameters(**spec["acc_params"])
    if "radar_params" in spec:
        kwargs["radar_params"] = FMCWParameters(**spec["radar_params"])
    if "idm_params" in spec:
        kwargs["idm_params"] = IDMParameters(**spec["idm_params"])
    return Scenario(**kwargs)


def save_scenario(scenario: Scenario, path: PathLike) -> Path:
    """Write a scenario spec as JSON."""
    path = Path(path)
    path.write_text(json.dumps(scenario_to_dict(scenario), indent=2))
    return path


def load_scenario(path: PathLike) -> Scenario:
    """Load a scenario from a JSON spec file."""
    return scenario_from_dict(json.loads(Path(path).read_text()))
