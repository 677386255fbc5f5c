"""The closed-loop car-following step and the pair loop (paper Figure 1).

Each discrete step ``k`` a follower's :class:`_FollowerStep`:

1. takes the true scene geometry (gap, relative velocity);
2. applies the CRA modulation decision ``m(k)`` (the radar always carries
   the modified modulator — the challenge "spikes to zero" appear in
   every run, exactly as in the paper's figures);
3. resolves the active attack's injection and produces the raw radar
   measurement;
4. feeds the measurement to the defense pipeline (when defended) or to a
   simple coasting tracker (when not) to obtain what the controller
   sees;
5. runs the ACC hierarchy, through the safety filter when the defense
   has one.

The pair loop (:meth:`CarFollowingSimulation.run`) puts one step behind
the scenario's leader, records the traces and advances both vehicles;
the platoon (:mod:`repro.simulation.platoon`) chains one step per
follower, and the redundancy run (:mod:`repro.core.fusion`) drives the
pair loop with a composite sensor.

A collision (gap reaching zero) is recorded at its first occurrence;
the run continues with the radar geometry floored at a small positive
gap so that full-horizon traces remain comparable across runs (the
paper's plots likewise continue past the unsafe approach; see
DESIGN.md §7).

Runs that differ only in their attack are identical until the first
attack starts.  A run configured with ``snapshot_at`` keeps a
:class:`RunSnapshot` of its whole state as it reaches that time (and
carries on); a run configured with ``resume_from`` restores such a
snapshot and simulates only the remaining steps, under its own name and
attack label.  Every stateful part follows one ``snapshot()`` /
``restore()`` protocol, the one the estimators use for rollback.

With an active :mod:`repro.telemetry` session the loop accumulates
per-stage wall-clock (``engine.sense`` / ``engine.estimate`` /
``engine.control``, one span per stage per run, covering only the
steps the run simulated itself); with telemetry off the
instrumentation reduces to local ``None`` checks.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from time import perf_counter
from typing import Callable, Optional

from repro import telemetry as _telemetry
from repro.attacks.base import Attack
from repro.core.adaptive_cra import AdaptiveChallengePolicy
from repro.core.cra import ChallengeSchedule
from repro.core.detector import CRADetector
from repro.core.dead_reckoning import DeadReckoningEstimator
from repro.core.pipeline import SafeMeasurementPipeline
from repro.core.predictor import (
    ChannelPredictor,
    MeasurementEstimator,
    RadarChannelEstimator,
)
from repro.defense.estimator import SecureReconstructionEstimator
from repro.defense.safety_filter import SafetyFilter
from repro.radar.sensor import FMCWRadarSensor
from repro.radar.tracker import AlphaBetaTracker
from repro.simulation.results import SimulationResult
from repro.simulation.scenario import Scenario
from repro.vehicle.acc import ACCSystem
from repro.vehicle.idm import IDMFollowerController
from repro.vehicle.kinematics import advance_state
from repro.vehicle.state import VehicleState
from repro.vehicle.upper_controller import ControlMode

__all__ = ["CarFollowingSimulation", "RunSnapshot", "build_defense_pipeline"]

#: Floor applied to the radar-visible gap after a collision so that the
#: sensing chain stays defined for the remainder of the run.
_POST_COLLISION_GAP_FLOOR = 0.5

#: The step's parts that exist only under some toggles, by attribute name
#: (shared by :class:`_FollowerStep` and :class:`RunSnapshot`).
_OPTIONAL_PARTS = ("tracker", "challenge_policy", "pipeline", "safety_filter")


def build_defense_pipeline(
    scenario: Scenario, schedule=None
) -> SafeMeasurementPipeline:
    """Construct the CRA + RLS pipeline a scenario's defense describes.

    ``schedule`` overrides the scenario's static schedule — used to
    share an :class:`AdaptiveChallengePolicy` between the radar
    modulator and the detector.
    """
    defense = scenario.defense
    detector = CRADetector(
        schedule=schedule if schedule is not None else scenario.schedule(),
        zero_tolerance=defense.zero_tolerance,
    )

    def make_channel() -> ChannelPredictor:
        return ChannelPredictor(
            basis=defense.make_basis(),
            forgetting=defense.forgetting,
            delta=defense.delta,
            time_scale=defense.time_scale,
            sample_period=scenario.sample_period,
            min_training_samples=defense.min_training_samples,
            adaptive_forgetting=defense.adaptive_forgetting,
            min_forgetting=defense.min_forgetting,
        )

    estimator: MeasurementEstimator
    if defense.uses_secure_reconstruction:
        estimator = SecureReconstructionEstimator(
            sample_period=scenario.sample_period,
            window=defense.secure_window,
            sparsity=defense.secure_sparsity,
            residual_threshold=defense.secure_residual_threshold,
            margin_gain=defense.margin_gain,
        )
    elif defense.estimator_kind == "dead_reckoning":
        estimator = DeadReckoningEstimator(
            leader_velocity_predictor=make_channel(),
            sample_period=scenario.sample_period,
            margin_gain=defense.margin_gain,
        )
    else:
        estimator = RadarChannelEstimator(
            distance_predictor=make_channel(),
            velocity_predictor=make_channel(),
        )
    return SafeMeasurementPipeline(
        detector=detector,
        estimator=estimator,
        rollback_on_detection=defense.rollback_on_detection,
    )


@dataclass(frozen=True)
class RunSnapshot:
    """A run's whole state just before step ``step``.

    Each field other than ``step`` and the (immutable) vehicle states is
    what that part's ``snapshot()`` returned, or ``None`` where the run
    has no such part.  Restoring copies out of it, so one snapshot can
    seed any number of runs.
    """

    step: int
    leader: VehicleState
    follower: VehicleState
    result: object
    sensor: object
    controller: object
    tracker: object = None
    challenge_policy: object = None
    pipeline: object = None
    safety_filter: object = None


@dataclass(eq=False)
class _FollowerStep:
    """One follower's sense → defend → control step.

    Holds the follower's radar, CRA policy, defense pipeline (or coasting
    tracker), safety filter and ACC; the loop around it owns the
    vehicles and the traces.  Every part follows the ``snapshot()`` /
    ``restore()`` protocol, and so does the step.
    """

    scenario: Scenario
    sensor: FMCWRadarSensor
    acc: ACCSystem
    attack: Optional[Attack]
    schedule: ChallengeSchedule
    pipeline: Optional[SafeMeasurementPipeline] = None
    tracker: Optional[AlphaBetaTracker] = None
    safety_filter: Optional[SafetyFilter] = None
    challenge_policy: Optional[AdaptiveChallengePolicy] = None

    @classmethod
    def build(
        cls, scenario: Scenario, attack: Optional[Attack], defended: bool, seed: int
    ) -> "_FollowerStep":
        """The parts ``scenario`` describes for one follower."""
        # Adaptive challenge policy (optional): modulator and detector
        # must share the same decision record.
        challenge_policy = (
            AdaptiveChallengePolicy(
                scenario.schedule(), scenario.adaptive_challenge_period
            )
            if defended and scenario.adaptive_challenge_period is not None
            else None
        )
        # Actuation-layer defense (strategy "safety_filter"/"combined"):
        # clamps the commanded acceleration to the certified-gap CBF
        # bound, independent of whether detection ever fires.
        safety_filter = (
            SafetyFilter(
                sample_period=scenario.sample_period,
                headway=scenario.defense.filter_headway,
                minimum_gap=scenario.defense.filter_minimum_gap,
                gamma=scenario.defense.filter_gamma,
                leader_accel_bound=scenario.defense.filter_leader_accel_bound,
                min_acceleration=scenario.acc_params.min_acceleration,
            )
            if defended and scenario.defense.uses_safety_filter
            else None
        )
        if scenario.follower_policy == "idm":
            acc = IDMFollowerController(
                params=scenario.idm_params, acc_params=scenario.acc_params
            )
        else:
            acc = ACCSystem(scenario.acc_params)
        return cls(
            scenario,
            FMCWRadarSensor(
                params=scenario.radar_params,
                fidelity=scenario.fidelity,
                seed=seed,
                **scenario.sensor_noise_overrides(),
            ),
            acc,
            attack,
            scenario.schedule(),
            pipeline=(
                build_defense_pipeline(scenario, schedule=challenge_policy)
                if defended
                else None
            ),
            # The undefended stack is a conventional radar tracker that
            # coasts through empty returns (challenge instants look like
            # ordinary missed detections to it).
            tracker=(
                None
                if defended
                else AlphaBetaTracker(sample_period=scenario.sample_period)
            ),
            safety_filter=safety_filter,
            challenge_policy=challenge_policy,
        )

    def __call__(
        self, time, true_gap, true_relative_velocity, follower_speed, clock=None
    ):
        """Sense, defend and control for one sample.

        Returns ``(measurement, view, estimated, attack_active, control)``.
        ``clock``, when given, accumulates the call's sense and estimate
        wall-clock (seconds) into its first two entries.
        """
        if clock is not None:
            t0 = perf_counter()
        radar_gap = max(true_gap, _POST_COLLISION_GAP_FLOOR)
        if self.challenge_policy is not None:
            transmit = not self.challenge_policy.decide(
                time, self.pipeline.attack_active
            )
        else:
            transmit = not self.schedule.is_challenge(time)
        effect = (
            self.attack.effect_at(time, radar_gap, true_relative_velocity)
            if self.attack is not None
            else None
        )
        measurement = self.sensor.measure(
            time, radar_gap, true_relative_velocity, transmit=transmit, effect=effect
        )
        # The paper assumes the ego-speed sensor is trusted; the
        # ego_speed_bias knob stresses that assumption (the defense
        # sees the biased value, the physics uses the true one).
        sensed_ego_speed = (
            self.scenario.ego_speed_gain * follower_speed
            + self.scenario.ego_speed_bias
        )
        if clock is not None:
            t1 = perf_counter()
            clock[0] += t1 - t0
        if self.pipeline is not None:
            safe = self.pipeline.process(measurement, follower_speed=sensed_ego_speed)
            view = (safe.distance, safe.relative_velocity)
            estimated, attack_active = safe.estimated, safe.attack_active
        else:
            # Undefended: the alpha-beta tracker smooths detections and
            # coasts through empty returns (a challenge instant looks
            # like an ordinary missed detection to it).
            coasting = measurement.is_zero_output(1e-9)
            view = self.tracker.update(
                None
                if coasting
                else (measurement.distance, measurement.relative_velocity)
            )
            estimated, attack_active = coasting and view is not None, False
        if clock is not None:
            clock[1] += perf_counter() - t1
        # The safety filter certifies whatever the controller is about
        # to act on (the defense-visible quantities, including the
        # ego-speed bias stress knob), so its guarantee does not depend
        # on the pipeline having substituted anything.
        accel_filter = (
            partial(
                self.safety_filter.clamp,
                follower_speed=sensed_ego_speed,
                distance=view[0],
                relative_velocity=view[1],
            )
            if self.safety_filter is not None and view is not None
            else None
        )
        control = self.acc.step(follower_speed, view, accel_filter=accel_filter)
        return measurement, view, estimated, attack_active, control

    def snapshot(self) -> dict:
        """Every part's state, keyed by its :class:`RunSnapshot` field."""
        return dict(
            sensor=self.sensor.snapshot(),
            controller=self.acc.snapshot(),
            **{
                part: getattr(self, part).snapshot()
                for part in _OPTIONAL_PARTS
                if getattr(self, part) is not None
            },
        )

    def restore(self, snapshot: RunSnapshot) -> None:
        """Load ``snapshot`` into this step's freshly built parts."""
        self.sensor.restore(snapshot.sensor)
        self.acc.restore(snapshot.controller)
        for name in _OPTIONAL_PARTS:
            part, state = getattr(self, name), getattr(snapshot, name)
            if (part is None) != (state is None):
                raise ValueError(
                    "snapshot does not fit this run: it was taken with "
                    "other defense toggles"
                )
            if part is not None:
                part.restore(state)


def _run_pair(
    scenario: Scenario,
    step: _FollowerStep,
    result: SimulationResult,
    resume_from: Optional[RunSnapshot] = None,
    snapshot_at: Optional[float] = None,
    keep_snapshot: Optional[Callable[[RunSnapshot], None]] = None,
) -> None:
    """Drive ``step`` behind the scenario's leader, recording into ``result``.

    Starts from ``resume_from`` when given, else at t = 0.  Hands
    ``keep_snapshot`` the :class:`RunSnapshot` taken just before the
    first step at or after ``snapshot_at`` (after the last step if there
    is none) as soon as it is taken, so a later step that raises does
    not lose it.
    """
    leader = VehicleState(
        position=scenario.initial_distance,
        velocity=scenario.leader_initial_speed,
    )
    follower = VehicleState(position=0.0, velocity=scenario.follower_initial_speed)
    times = scenario.times()
    first = 0
    if resume_from is not None:
        first = resume_from.step
        leader = resume_from.leader
        follower = resume_from.follower
        result.restore(resume_from.result)
        step.restore(resume_from)
    # The step the snapshot is taken before (none past the end).
    branch = (
        len(times) + 1 if snapshot_at is None else bisect_left(times, snapshot_at)
    )
    # Per-stage timing is gated on an active telemetry session: when
    # `clock` is None the loop pays one local None-check per stage and
    # nothing else (bench_telemetry_overhead asserts the bound).
    tele = _telemetry.current()
    clock = None if tele is None else [0.0, 0.0, 0.0]
    for k in range(first, len(times) + 1):
        if k == branch:
            keep_snapshot(
                RunSnapshot(
                    step=k,
                    leader=leader,
                    follower=follower,
                    result=result.snapshot(),
                    **step.snapshot(),
                )
            )
        if k == len(times):
            break
        time = times[k]
        if clock is not None:
            t0 = perf_counter()
        true_gap = leader.position - follower.position
        if true_gap <= 0.0 and result.collision_time is None:
            result.collision_time = time
        true_relative_velocity = leader.velocity - follower.velocity
        measurement, view, estimated, attack_active, control = step(
            time, true_gap, true_relative_velocity, follower.velocity, clock
        )

        result.record(
            time,
            leader_position=leader.position,
            leader_velocity=leader.velocity,
            follower_position=follower.position,
            follower_velocity=follower.velocity,
            follower_acceleration=control.actual_acceleration,
            true_distance=true_gap,
            true_relative_velocity=true_relative_velocity,
            measured_distance=measurement.distance,
            measured_relative_velocity=measurement.relative_velocity,
            safe_distance=view[0] if view is not None else 0.0,
            safe_relative_velocity=view[1] if view is not None else 0.0,
            desired_distance=control.upper.desired_distance,
            desired_acceleration=control.desired_acceleration,
            pedal_acceleration=control.actuation.pedal_acceleration,
            brake_pressure=control.actuation.brake_pressure,
            spacing_mode=1.0 if control.mode is ControlMode.SPACING else 0.0,
            estimated_flag=1.0 if estimated else 0.0,
            attack_active_flag=1.0 if attack_active else 0.0,
        )

        leader_acceleration = scenario.leader_profile.acceleration(time)
        leader = advance_state(leader, leader_acceleration, scenario.sample_period)
        follower = advance_state(
            follower, control.actual_acceleration, scenario.sample_period
        )
        if clock is not None:
            clock[2] += perf_counter() - t0

    if tele is not None:
        # One span per stage per run: the radar + attack resolution
        # ("sense"), the defense pipeline / coasting tracker
        # ("estimate"), and the rest of the step: the ACC, trace
        # recording and kinematics ("control").
        sense_s, estimate_s, step_s = clock
        n_steps = len(times) - first
        attrs = {"run": result.name, "steps": n_steps}
        tele.emit("engine.sense", sense_s, attrs=dict(attrs))
        tele.emit("engine.estimate", estimate_s, attrs=dict(attrs))
        tele.emit("engine.control", step_s - sense_s - estimate_s, attrs=dict(attrs))
        tele.incr("engine.runs")
        tele.incr("engine.steps", n_steps)
        if first:
            tele.incr("engine.shared_steps", first)


class CarFollowingSimulation:
    """One configured closed-loop run.

    Parameters
    ----------
    scenario:
        The experiment description.
    attack_enabled:
        When False the scenario's attack is ignored (baseline run).
    defended:
        When True the Algorithm 2 pipeline is inserted between radar and
        controller; when False the controller consumes raw measurements
        through a coasting tracker (hold-last on zero outputs).
    name:
        Label for the result; derived from the configuration if omitted.
    snapshot_at:
        When set, :meth:`run` stores a :class:`RunSnapshot` in
        :attr:`branch_snapshot` just before its first step at or after
        this time (after the last step if there is none) and carries on.
    resume_from:
        A snapshot taken by a run of the same scenario and toggles up to
        the attack: :meth:`run` restores it and simulates only the steps
        after it.  The caller vouches that no attack acted before the
        snapshot's step in either run.
    """

    def __init__(
        self,
        scenario: Scenario,
        attack_enabled: bool = True,
        defended: bool = True,
        name: Optional[str] = None,
        *,
        snapshot_at: Optional[float] = None,
        resume_from: Optional[RunSnapshot] = None,
    ):
        self.scenario = scenario
        self.snapshot_at = snapshot_at
        self.resume_from = resume_from
        #: The state :meth:`run` captured at ``snapshot_at`` (else None).
        self.branch_snapshot: Optional[RunSnapshot] = None
        self.attack: Optional[Attack] = scenario.attack if attack_enabled else None
        self.defended = defended
        self._step = _FollowerStep.build(
            scenario, self.attack, defended, scenario.sensor_seed
        )
        #: The step's Algorithm 2 pipeline (None when undefended).
        self.pipeline: Optional[SafeMeasurementPipeline] = self._step.pipeline
        if name is None:
            mode = "defended" if defended else "undefended"
            attack_tag = self.attack.label.value if self.attack else "clean"
            name = f"{scenario.name}/{attack_tag}/{mode}"
        self.name = name

    def run(self) -> SimulationResult:
        """Execute the run and return its traces."""
        result = SimulationResult.empty(
            self.name,
            attack_name=self.attack.label.value if self.attack else "none",
            defended=self.defended,
        )
        _run_pair(
            self.scenario,
            self._step,
            result,
            self.resume_from,
            self.snapshot_at,
            partial(setattr, self, "branch_snapshot"),
        )
        if self.pipeline is not None:
            result.detection_events = self.pipeline.detection_events
            estimator = self.pipeline.estimator
            if isinstance(estimator, SecureReconstructionEstimator):
                result.defense_stats = estimator.search_stats()
        return result
