"""The closed-loop car-following step loop (paper Figure 1).

Each discrete step ``k``:

1. compute the true scene geometry (gap, relative velocity);
2. apply the CRA modulation decision ``m(k)`` (the radar always carries
   the modified modulator — the challenge "spikes to zero" appear in
   every run, exactly as in the paper's figures);
3. resolve the active attack's injection and produce the raw radar
   measurement;
4. feed the measurement to the defense pipeline (when defended) or to a
   simple coasting tracker (when not) to obtain what the controller
   sees;
5. run the ACC hierarchy and advance both vehicles' kinematics.

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
from time import perf_counter
from typing import Optional, Tuple

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
from repro.types import RadarMeasurement
from repro.vehicle.acc import ACCSystem
from repro.vehicle.idm import IDMFollowerController
from repro.vehicle.kinematics import advance_state
from repro.vehicle.state import VehicleState
from repro.vehicle.upper_controller import ControlMode

__all__ = ["CarFollowingSimulation", "RunSnapshot", "build_defense_pipeline"]

#: Floor applied to the radar-visible gap after a collision so that the
#: sensing chain stays defined for the remainder of the run.
_POST_COLLISION_GAP_FLOOR = 0.5

#: The run's parts that exist only under some toggles, by attribute name
#: (shared by the simulation and :class:`RunSnapshot`).
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
        # Adaptive challenge policy (optional): modulator and detector
        # must share the same decision record.
        self.challenge_policy = (
            AdaptiveChallengePolicy(
                scenario.schedule(), scenario.adaptive_challenge_period
            )
            if defended and scenario.adaptive_challenge_period is not None
            else None
        )
        self.pipeline = (
            build_defense_pipeline(scenario, schedule=self.challenge_policy)
            if defended
            else None
        )
        # Actuation-layer defense (strategy "safety_filter"/"combined"):
        # clamps the commanded acceleration to the certified-gap CBF
        # bound, independent of whether detection ever fires.
        self.safety_filter = (
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
        # The undefended stack is a conventional radar tracker that
        # coasts through empty returns (challenge instants look like
        # ordinary missed detections to it).
        self.tracker = (
            None
            if defended
            else AlphaBetaTracker(sample_period=scenario.sample_period)
        )
        if name is None:
            mode = "defended" if defended else "undefended"
            attack_tag = self.attack.label.value if self.attack else "clean"
            name = f"{scenario.name}/{attack_tag}/{mode}"
        self.name = name

    # ------------------------------------------------------------------

    def _controller_view(
        self,
        measurement: RadarMeasurement,
        follower_speed: float,
    ) -> Tuple[Optional[Tuple[float, float]], bool, bool]:
        """Resolve what the ACC sees for this sample.

        Returns ``(view, estimated, attack_active)``.
        """
        if self.pipeline is not None:
            safe = self.pipeline.process(measurement, follower_speed=follower_speed)
            return (
                (safe.distance, safe.relative_velocity),
                safe.estimated,
                safe.attack_active,
            )
        # Undefended: the alpha-beta tracker smooths detections and
        # coasts through empty returns (a challenge instant looks like
        # an ordinary missed detection to it).
        coasting = measurement.is_zero_output(1e-9)
        detection = (
            None
            if coasting
            else (measurement.distance, measurement.relative_velocity)
        )
        track = self.tracker.update(detection)
        return track, coasting and track is not None, False

    def _make_accel_filter(
        self, view: Tuple[float, float], sensed_ego_speed: float
    ):
        """Bind this step's view into the safety filter's clamp.

        The filter certifies whatever the controller is about to act on
        (the defense-visible quantities, including the ego-speed bias
        stress knob), so its guarantee does not depend on the pipeline
        having substituted anything.
        """
        safety_filter = self.safety_filter
        gap, relative_velocity = view

        def accel_filter(desired: float) -> float:
            return safety_filter.clamp(
                desired, sensed_ego_speed, gap, relative_velocity
            )

        return accel_filter

    def _snapshot(
        self, step: int, leader, follower, result, sensor, acc
    ) -> RunSnapshot:
        """Capture every stateful part of the run before ``step``."""
        return RunSnapshot(
            step=step,
            leader=leader,
            follower=follower,
            result=result.snapshot(),
            sensor=sensor.snapshot(),
            controller=acc.snapshot(),
            **{
                part: getattr(self, part).snapshot()
                for part in _OPTIONAL_PARTS
                if getattr(self, part) is not None
            },
        )

    def _restore(self, snapshot: RunSnapshot, result, sensor, acc) -> None:
        """Load ``snapshot`` into this run's freshly built parts."""
        result.restore(snapshot.result)
        sensor.restore(snapshot.sensor)
        acc.restore(snapshot.controller)
        for name in _OPTIONAL_PARTS:
            part, state = getattr(self, name), getattr(snapshot, name)
            if (part is None) != (state is None):
                raise ValueError(
                    f"snapshot does not fit run {self.name!r}: it was taken "
                    f"with other defense toggles"
                )
            if part is not None:
                part.restore(state)

    def run(self) -> SimulationResult:
        """Execute the run and return its traces."""
        scenario = self.scenario
        schedule: ChallengeSchedule = scenario.schedule()
        sensor = FMCWRadarSensor(
            params=scenario.radar_params,
            fidelity=scenario.fidelity,
            seed=scenario.sensor_seed,
            **scenario.sensor_noise_overrides(),
        )
        if scenario.follower_policy == "idm":
            acc = IDMFollowerController(
                params=scenario.idm_params, acc_params=scenario.acc_params
            )
        else:
            acc = ACCSystem(scenario.acc_params)
        leader = VehicleState(
            position=scenario.initial_distance,
            velocity=scenario.leader_initial_speed,
        )
        follower = VehicleState(position=0.0, velocity=scenario.follower_initial_speed)

        result = SimulationResult.empty(
            self.name,
            attack_name=self.attack.label.value if self.attack else "none",
            defended=self.defended,
        )
        times = scenario.times()
        first = 0
        if self.resume_from is not None:
            first = self.resume_from.step
            leader = self.resume_from.leader
            follower = self.resume_from.follower
            self._restore(self.resume_from, result, sensor, acc)
        # The step the snapshot is taken before (none past the end).
        branch = (
            len(times) + 1
            if self.snapshot_at is None
            else bisect_left(times, self.snapshot_at)
        )
        # Per-stage timing is gated on an active telemetry session: when
        # `tele` is None the loop pays one local None-check per stage
        # and nothing else (bench_telemetry_overhead asserts the bound).
        tele = _telemetry.current()
        sense_s = estimate_s = control_s = 0.0
        n_steps = 0
        for step in range(first, len(times)):
            if step == branch:
                self.branch_snapshot = self._snapshot(
                    step, leader, follower, result, sensor, acc
                )
            time = times[step]
            if tele is not None:
                n_steps += 1
                t0 = perf_counter()
            true_gap = leader.position - follower.position
            if true_gap <= 0.0 and result.collision_time is None:
                result.collision_time = time
            radar_gap = max(true_gap, _POST_COLLISION_GAP_FLOOR)
            true_relative_velocity = leader.velocity - follower.velocity

            if self.challenge_policy is not None:
                transmit = not self.challenge_policy.decide(
                    time, self.pipeline.attack_active
                )
            else:
                transmit = not schedule.is_challenge(time)
            effect = (
                self.attack.effect_at(time, radar_gap, true_relative_velocity)
                if self.attack is not None
                else None
            )
            measurement = sensor.measure(
                time,
                radar_gap,
                true_relative_velocity,
                transmit=transmit,
                effect=effect,
            )
            # The paper assumes the ego-speed sensor is trusted; the
            # ego_speed_bias knob stresses that assumption (the defense
            # sees the biased value, the physics uses the true one).
            sensed_ego_speed = (
                scenario.ego_speed_gain * follower.velocity
                + scenario.ego_speed_bias
            )
            if tele is not None:
                t1 = perf_counter()
                sense_s += t1 - t0
            view, estimated, attack_active = self._controller_view(
                measurement, sensed_ego_speed
            )
            if tele is not None:
                t2 = perf_counter()
                estimate_s += t2 - t1
            if self.safety_filter is not None and view is not None:
                accel_filter = self._make_accel_filter(view, sensed_ego_speed)
            else:
                accel_filter = None
            step = acc.step(follower.velocity, view, accel_filter=accel_filter)

            result.record(
                time,
                leader_position=leader.position,
                leader_velocity=leader.velocity,
                follower_position=follower.position,
                follower_velocity=follower.velocity,
                follower_acceleration=step.actual_acceleration,
                true_distance=true_gap,
                true_relative_velocity=true_relative_velocity,
                measured_distance=measurement.distance,
                measured_relative_velocity=measurement.relative_velocity,
                safe_distance=view[0] if view is not None else 0.0,
                safe_relative_velocity=view[1] if view is not None else 0.0,
                desired_distance=step.upper.desired_distance,
                desired_acceleration=step.desired_acceleration,
                pedal_acceleration=step.actuation.pedal_acceleration,
                brake_pressure=step.actuation.brake_pressure,
                spacing_mode=1.0 if step.mode is ControlMode.SPACING else 0.0,
                estimated_flag=1.0 if estimated else 0.0,
                attack_active_flag=1.0 if attack_active else 0.0,
            )

            leader_acceleration = scenario.leader_profile.acceleration(time)
            leader = advance_state(leader, leader_acceleration, scenario.sample_period)
            follower = advance_state(
                follower, step.actual_acceleration, scenario.sample_period
            )
            if tele is not None:
                control_s += perf_counter() - t2
        if branch == len(times):
            self.branch_snapshot = self._snapshot(
                branch, leader, follower, result, sensor, acc
            )

        if tele is not None:
            # One span per stage per run: the radar + attack resolution
            # ("sense"), the defense pipeline / coasting tracker
            # ("estimate"), and the ACC + trace recording + kinematics
            # ("control").
            attrs = {"run": self.name, "steps": n_steps}
            tele.emit("engine.sense", sense_s, attrs=dict(attrs))
            tele.emit("engine.estimate", estimate_s, attrs=dict(attrs))
            tele.emit("engine.control", control_s, attrs=dict(attrs))
            tele.incr("engine.runs")
            tele.incr("engine.steps", n_steps)
            if first:
                tele.incr("engine.shared_steps", first)

        if self.pipeline is not None:
            result.detection_events = self.pipeline.detection_events
            estimator = self.pipeline.estimator
            if isinstance(estimator, SecureReconstructionEstimator):
                result.defense_stats = estimator.search_stats()
        return result
