"""Scenario definitions for the car-following experiments (paper §6.2).

Shared experimental constants (paper §6.2):

* leader initial speed 65 mph, follower initial speed = set speed 67 mph;
* initial inter-vehicle distance 100 m;
* scenario (i): leader decelerates constantly at −0.1082 m/s²;
* scenario (ii): leader decelerates at −0.1082 m/s², then accelerates at
  +0.012 m/s² (the switch time is not given in the paper; we use 150 s);
* DoS attack active on [182, 300] s with the §6.2 jammer;
* delay-injection attack active on [180, 300] s spoofing +6 m;
* CRA challenges at k = 15, 50, 175, … (the paper names those three; the
  full default schedule below includes them and continues at a similar
  cadence, with a challenge at 182 so both attacks are caught there, as
  the paper reports).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

from repro.attacks import Attack, AttackWindow, DelayInjectionAttack, DoSJammingAttack
from repro.core.cra import ChallengeSchedule
from repro.core.regressors import ARBasis, PolynomialBasis, RegressorBasis
from repro.exceptions import ConfigurationError
from repro.radar.link_budget import JammerParameters
from repro.radar.params import FMCWParameters
from repro.units import mph_to_mps
from repro.vehicle.leader import (
    ConstantAccelerationProfile,
    LeaderProfile,
    PiecewiseAccelerationProfile,
)
from repro.vehicle.params import ACCParameters

__all__ = [
    "DEFENSE_STRATEGIES",
    "DefenseConfig",
    "Scenario",
    "paper_challenge_times",
    "fig2_scenario",
    "fig3_scenario",
    "PANELS",
    "panel_scenario",
    "PAPER_DOS_ATTACK_START",
    "PAPER_DELAY_ATTACK_START",
    "PAPER_HORIZON",
]

#: Paper constants (§6.2).
PAPER_HORIZON = 300.0
PAPER_DOS_ATTACK_START = 182.0
PAPER_DELAY_ATTACK_START = 180.0
PAPER_DELAY_DISTANCE_OFFSET = 6.0
PAPER_LEADER_DECELERATION = -0.1082
PAPER_LEADER_ACCELERATION = 0.012
#: Switch time for scenario (ii); not stated in the paper.
FIG3_SWITCH_TIME = 150.0

#: Defense families selectable on :attr:`DefenseConfig.strategy`:
#:
#: * ``"rls"`` — the paper's defense: CRA detection + RLS-based
#:   measurement replacement (estimator per ``estimator_kind``);
#: * ``"secure_reconstruction"`` — CRA detection + window-based secure
#:   state reconstruction over the follower-relative LTI model
#:   (:mod:`repro.defense`) substituting attacked measurements;
#: * ``"safety_filter"`` — the RLS pipeline plus a control-barrier
#:   clamp on the commanded acceleration that keeps the gap above the
#:   safe distance even while detection lags;
#: * ``"combined"`` — secure reconstruction feeding the safety filter
#:   (the Tan et al. 2025 secure-safety-filter architecture).
DEFENSE_STRATEGIES = (
    "rls",
    "secure_reconstruction",
    "safety_filter",
    "combined",
)


def paper_challenge_times(horizon: float = PAPER_HORIZON) -> Tuple[float, ...]:
    """The default challenge schedule.

    Contains the instants the paper names (15, 50, 175) plus further
    pseudo-random-looking instants at a comparable cadence, including
    k = 182 where the paper reports both attacks being detected.
    """
    base = (
        15.0,
        50.0,
        85.0,
        112.0,
        137.0,
        159.0,
        175.0,
        182.0,
        195.0,
        209.0,
        222.0,
        236.0,
        251.0,
        264.0,
        278.0,
        291.0,
    )
    return tuple(t for t in base if t <= horizon)


@dataclass(frozen=True)
class DefenseConfig:
    """Configuration of the CRA + RLS defense pipeline.

    Attributes
    ----------
    forgetting:
        Algorithm 1's forgetting factor ``λ`` for both channels.
    delta:
        Initial correlation scale ``P_0 = δ I``.  The paper sets δ = 1;
        that acts as a ridge prior shrinking the fitted trend toward
        zero, which biases long-horizon forecasts (see the forgetting
        ablation bench).  Haykin's guidance is large δ for high SNR.
    basis_kind, basis_order:
        Regressor construction: ``"polynomial"`` of the given degree or
        ``"ar"`` of the given order.
    time_scale:
        Time normalization for polynomial bases, seconds.
    min_training_samples:
        Trusted samples required before the estimator may forecast.
    zero_tolerance:
        Detector tolerance on "zero" receiver outputs.
    estimator_kind:
        ``"dead_reckoning"`` (leader-velocity RLS + trusted-ego-speed gap
        integration, drift-free on long attacks; the default) or
        ``"per_channel"`` (the paper's literal independent per-channel
        RLS; see the estimator ablation bench for the contrast).
    margin_gain:
        Uncertainty-margin strength of the dead-reckoning estimator
        (ignored by the per-channel estimator).
    adaptive_forgetting, min_forgetting:
        Variable-forgetting-factor RLS: dump memory (down to
        ``min_forgetting``) when residuals spike, so the leader model
        re-converges within a few samples of a regime change (e.g. the
        leader starting an emergency brake just before the attack).
    rollback_on_detection:
        Roll the estimator back to the last clean-challenge snapshot
        when an alarm is raised (discards unauthenticated samples).
    strategy:
        Defense family — one of :data:`DEFENSE_STRATEGIES`.  ``"rls"``
        (the paper's pipeline, default), ``"secure_reconstruction"``
        (window-based secure state reconstruction substituting attacked
        measurements), ``"safety_filter"`` (RLS pipeline + CBF clamp on
        the commanded acceleration) or ``"combined"`` (reconstruction
        feeding the filter).  See :mod:`repro.defense` and
        ``docs/defenses.md``.
    secure_window:
        Trusted-sample window length of the secure reconstruction.
    secure_sparsity:
        Assumed maximum number of simultaneously attacked sensors
        ``s``; the recovery guarantee needs 2s-sparse observability.
    secure_residual_threshold:
        RMS residual (meters) above which a sensor subset is rejected
        as inconsistent during reconstruction.
    filter_headway, filter_minimum_gap:
        Safe-distance definition of the safety filter's barrier
        ``h = d - d_min - τ·v_F`` (seconds, meters).
    filter_gamma:
        Barrier decay rate ``γ`` in (0, 1]: the filter enforces
        ``h(k+1) >= (1 - γ)·h(k)`` — smaller is more conservative.
    filter_leader_accel_bound:
        Physical bound (m/s²) on how fast the filter's certified gap
        track may grow between accepted measurements; spoofs that
        inflate the gap faster than this are clamped.
    """

    forgetting: float = 0.95
    delta: float = 100.0
    basis_kind: str = "polynomial"
    basis_order: int = 1
    time_scale: float = 100.0
    min_training_samples: int = 5
    zero_tolerance: float = 1e-6
    estimator_kind: str = "dead_reckoning"
    margin_gain: float = 2.0
    adaptive_forgetting: bool = True
    min_forgetting: float = 0.5
    rollback_on_detection: bool = True
    strategy: str = "rls"
    secure_window: int = 8
    secure_sparsity: int = 1
    secure_residual_threshold: float = 1.0
    filter_headway: float = 1.5
    filter_minimum_gap: float = 5.0
    filter_gamma: float = 0.5
    filter_leader_accel_bound: float = 2.5

    def __post_init__(self) -> None:
        if self.basis_kind not in ("polynomial", "ar"):
            raise ConfigurationError(
                f"basis_kind must be 'polynomial' or 'ar', got {self.basis_kind!r}"
            )
        if self.estimator_kind not in ("dead_reckoning", "per_channel"):
            raise ConfigurationError(
                "estimator_kind must be 'dead_reckoning' or 'per_channel', "
                f"got {self.estimator_kind!r}"
            )
        if self.strategy not in DEFENSE_STRATEGIES:
            raise ConfigurationError(
                f"strategy must be one of {', '.join(DEFENSE_STRATEGIES)}; "
                f"got {self.strategy!r}"
            )
        if self.secure_window < 2:
            raise ConfigurationError(
                f"secure_window must be >= 2, got {self.secure_window}"
            )
        if self.secure_sparsity < 0:
            raise ConfigurationError(
                f"secure_sparsity must be >= 0, got {self.secure_sparsity}"
            )
        if self.secure_residual_threshold <= 0.0:
            raise ConfigurationError(
                "secure_residual_threshold must be positive, got "
                f"{self.secure_residual_threshold}"
            )
        if not 0.0 < self.filter_gamma <= 1.0:
            raise ConfigurationError(
                f"filter_gamma must lie in (0, 1], got {self.filter_gamma}"
            )
        if self.filter_headway < 0.0 or self.filter_minimum_gap < 0.0:
            raise ConfigurationError(
                "filter_headway and filter_minimum_gap must be >= 0"
            )
        if self.filter_leader_accel_bound < 0.0:
            raise ConfigurationError(
                "filter_leader_accel_bound must be >= 0, got "
                f"{self.filter_leader_accel_bound}"
            )

    @property
    def uses_safety_filter(self) -> bool:
        """True when the strategy inserts the CBF acceleration clamp."""
        return self.strategy in ("safety_filter", "combined")

    @property
    def uses_secure_reconstruction(self) -> bool:
        """True when the strategy estimates via secure reconstruction."""
        return self.strategy in ("secure_reconstruction", "combined")

    def make_basis(self) -> RegressorBasis:
        """Instantiate the configured regressor basis."""
        if self.basis_kind == "polynomial":
            return PolynomialBasis(degree=self.basis_order)
        return ARBasis(order=self.basis_order)


@dataclass(frozen=True)
class Scenario:
    """A complete experiment description.

    The engine consumes this plus run options (attack on/off, defense
    on/off); everything here is deterministic given ``sensor_seed``.

    Beyond the paper's setup, the scenario exposes robustness knobs:
    ``distance_noise_std``/``velocity_noise_std`` (sensor-noise
    overrides), ``follower_policy``/``idm_params`` (``"acc"`` or plain
    ``"idm"`` follower), ``dropout_rate`` (missed-detection injection),
    ``adaptive_challenge_period`` (alert-mode CRA probing) and
    ``ego_speed_bias``/``ego_speed_gain`` (miscalibrated trusted
    ego-speed sensor).
    """

    name: str
    leader_profile: LeaderProfile
    attack: Optional[Attack] = None
    horizon: float = PAPER_HORIZON
    sample_period: float = 1.0
    initial_distance: float = 100.0
    leader_initial_speed: float = mph_to_mps(65.0)
    follower_initial_speed: float = mph_to_mps(67.0)
    acc_params: ACCParameters = field(default_factory=ACCParameters)
    radar_params: FMCWParameters = field(default_factory=FMCWParameters)
    challenge_times: Tuple[float, ...] = field(default_factory=paper_challenge_times)
    defense: DefenseConfig = field(default_factory=DefenseConfig)
    fidelity: str = "equation"
    sensor_seed: int = 2017
    distance_noise_std: Optional[float] = None
    velocity_noise_std: Optional[float] = None
    follower_policy: str = "acc"
    idm_params: Optional[object] = None
    dropout_rate: float = 0.0
    adaptive_challenge_period: Optional[float] = None
    ego_speed_bias: float = 0.0
    ego_speed_gain: float = 1.0

    def __post_init__(self) -> None:
        if self.horizon <= 0.0:
            raise ConfigurationError(f"horizon must be positive, got {self.horizon}")
        if self.sample_period <= 0.0:
            raise ConfigurationError(
                f"sample_period must be positive, got {self.sample_period}"
            )
        if self.initial_distance <= 0.0:
            raise ConfigurationError(
                f"initial_distance must be positive, got {self.initial_distance}"
            )
        if self.leader_initial_speed < 0.0 or self.follower_initial_speed < 0.0:
            raise ConfigurationError("initial speeds must be >= 0")
        if self.follower_policy not in ("acc", "idm"):
            raise ConfigurationError(
                f"follower_policy must be 'acc' or 'idm', got {self.follower_policy!r}"
            )
        seed = self.sensor_seed
        if (
            isinstance(seed, bool)
            or not isinstance(seed, numbers.Integral)
            or seed < 0
        ):
            raise ConfigurationError(
                f"sensor_seed must be a non-negative integer, got {seed!r}"
            )

    def sensor_noise_overrides(self) -> dict:
        """Keyword overrides for the sensor's measurement noise.

        Empty when the scenario keeps the sensor defaults (the radar
        accuracy-spec values).
        """
        overrides = {}
        if self.distance_noise_std is not None:
            overrides["distance_noise_std"] = self.distance_noise_std
        if self.velocity_noise_std is not None:
            overrides["velocity_noise_std"] = self.velocity_noise_std
        if self.dropout_rate:
            overrides["dropout_rate"] = self.dropout_rate
        return overrides

    def schedule(self) -> ChallengeSchedule:
        """Build the CRA challenge schedule for this scenario."""
        return ChallengeSchedule.from_times(self.challenge_times)

    def times(self) -> Sequence[float]:
        """The discrete sample instants 0, T, 2T, ... <= horizon."""
        steps = int(math.floor(self.horizon / self.sample_period)) + 1
        return [k * self.sample_period for k in range(steps)]

    def with_overrides(self, **kwargs) -> "Scenario":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def _make_attack(kind: str, radar_params: FMCWParameters, horizon: float) -> Attack:
    """Build the paper's §6.2 attack of the requested kind.

    The attack runs from the paper's onset to the end of the horizon;
    with a horizon shorter than the onset the window is empty (the
    attack never fires within the run).
    """
    if kind == "dos":
        return DoSJammingAttack(
            window=AttackWindow(
                start=PAPER_DOS_ATTACK_START,
                end=max(horizon, PAPER_DOS_ATTACK_START),
            ),
            jammer=JammerParameters(),
            radar_params=radar_params,
        )
    if kind == "delay":
        return DelayInjectionAttack(
            window=AttackWindow(
                start=PAPER_DELAY_ATTACK_START,
                end=max(horizon, PAPER_DELAY_ATTACK_START),
            ),
            distance_offset=PAPER_DELAY_DISTANCE_OFFSET,
        )
    raise ConfigurationError(f"attack kind must be 'dos' or 'delay', got {kind!r}")


def fig2_scenario(attack: str = "dos", **overrides) -> Scenario:
    """Scenario (i): constant leader deceleration (paper Figure 2).

    ``attack`` is ``"dos"`` (Figure 2a) or ``"delay"`` (Figure 2b).
    Keyword overrides are applied to the scenario after construction.
    """
    radar_params = overrides.pop("radar_params", FMCWParameters())
    horizon = overrides.pop("horizon", PAPER_HORIZON)
    scenario = Scenario(
        name=f"fig2-{attack}",
        leader_profile=ConstantAccelerationProfile(PAPER_LEADER_DECELERATION),
        attack=_make_attack(attack, radar_params, horizon),
        radar_params=radar_params,
        horizon=horizon,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


def fig3_scenario(attack: str = "dos", **overrides) -> Scenario:
    """Scenario (ii): leader decelerates then accelerates (paper Figure 3).

    ``attack`` is ``"dos"`` (Figure 3a) or ``"delay"`` (Figure 3b).
    """
    radar_params = overrides.pop("radar_params", FMCWParameters())
    horizon = overrides.pop("horizon", PAPER_HORIZON)
    scenario = Scenario(
        name=f"fig3-{attack}",
        leader_profile=PiecewiseAccelerationProfile(
            [
                (0.0, PAPER_LEADER_DECELERATION),
                (FIG3_SWITCH_TIME, PAPER_LEADER_ACCELERATION),
            ]
        ),
        attack=_make_attack(attack, radar_params, horizon),
        radar_params=radar_params,
        horizon=horizon,
    )
    return scenario.with_overrides(**overrides) if overrides else scenario


#: The paper's four figure panels, in report order: Figure 2 / 3 with
#: the DoS ("a") and delay-injection ("b") attack.
PANELS = ("fig2a", "fig2b", "fig3a", "fig3b")


def panel_scenario(panel: str) -> Scenario:
    """The scenario of one figure panel named in :data:`PANELS`.

    ``"fig2a"`` is ``fig2_scenario("dos")``, ``"fig3b"`` is
    ``fig3_scenario("delay")``, and so on.  Any other id raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if panel not in PANELS:
        raise ConfigurationError(
            f"panel must be one of {', '.join(PANELS)}; got {panel!r}"
        )
    factory = fig2_scenario if panel.startswith("fig2") else fig3_scenario
    return factory("dos" if panel.endswith("a") else "delay")
