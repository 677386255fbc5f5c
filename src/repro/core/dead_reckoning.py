"""Leader-motion RLS estimation with ego-speed dead reckoning.

The per-channel RLS forecaster (the paper's literal Algorithm 1 applied
to the distance and relative-velocity streams independently) runs open
loop during an attack: a constant level error ``ε`` in the distance
forecast maps through the CTH law into a constant follower-velocity
offset ``ε/τ_h`` and therefore an *unbounded linear drift* of the true
gap over a long attack.  The ablation bench quantifies this.

:class:`DeadReckoningEstimator` removes the drift by estimating the only
genuinely unknown quantity — the **leader's velocity** ``v_L = Δv +
v_F`` (the paper assumes ``v_F`` is measured by a trusted sensor) — with
the same Algorithm 1 RLS, and reconstructing the radar channels during
the attack by dead reckoning:

    Δv̂(k) = v̂_L(k) - v_F(k)            (trusted ego speed, live)
    d̂(k+1) = d̂(k) + Δv̂(k) · T          (gap integration)

Because ``v_F`` enters live at every step, the loop around the follower
stays closed: if the vehicle runs fast, ``Δv̂`` turns negative and the
estimated gap shrinks, braking the vehicle — the estimate error obeys
``ė = v̂_L - v_L`` and depends only on the leader-velocity forecast
quality, not on the follower's state.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.predictor import ChannelPredictor, Forecaster, MeasurementEstimator
from repro.exceptions import EstimatorNotTrainedError
from repro.types import RadarMeasurement

__all__ = ["DeadReckoningEstimator"]


class DeadReckoningEstimator(MeasurementEstimator):
    """Leader-velocity RLS + trusted-ego-speed gap integration.

    Parameters
    ----------
    leader_velocity_predictor:
        Forecaster for ``v_L``; defaults to a linear-trend RLS channel
        (exact for the paper's constant-acceleration leader profiles).
    sample_period:
        Integration step for the gap dead reckoning, seconds.
    nonnegative_leader_velocity:
        Clamp the leader-velocity forecast at zero (vehicles do not
        reverse); keeps the estimated gap sane past leader standstill.
    margin_gain:
        Strength ``κ`` of the uncertainty-aware safety margin.  The gap
        estimate handed to the controller is reduced by
        ``κ · σ_v(t) · (t - t_trusted) / 2`` where ``σ_v`` is the RLS
        forecast standard deviation of the leader velocity — the
        first-order bound on the integrated gap error.  A noisy or
        short training window therefore automatically makes the defense
        more conservative.  Set to 0 to disable.
    """

    def __init__(
        self,
        leader_velocity_predictor: Optional[Forecaster] = None,
        sample_period: float = 1.0,
        nonnegative_leader_velocity: bool = True,
        margin_gain: float = 2.0,
    ):
        if sample_period <= 0.0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        if margin_gain < 0.0:
            raise ValueError(f"margin_gain must be >= 0, got {margin_gain}")
        self.leader_velocity_predictor = (
            leader_velocity_predictor
            if leader_velocity_predictor is not None
            else ChannelPredictor()
        )
        self.sample_period = float(sample_period)
        self.nonnegative_leader_velocity = nonnegative_leader_velocity
        self.margin_gain = float(margin_gain)
        self._anchor: Optional[Tuple[float, float]] = None
        self._last_trusted_time: Optional[float] = None
        # Log of every ingested sample and forecast: (time, ego speed,
        # measurement or None).  A snapshot keeps the log as it was; a
        # restore replays, with validation, what was logged after it.
        self._log: List[Tuple[float, float, Optional[RadarMeasurement]]] = []

    # ------------------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self.leader_velocity_predictor.trained and self._anchor is not None

    def _leader_velocity(self, time: float) -> float:
        forecast = self.leader_velocity_predictor.forecast(time)
        if self.nonnegative_leader_velocity:
            return max(0.0, forecast)
        return forecast

    def observe(
        self, measurement: RadarMeasurement, follower_speed: Optional[float] = None
    ) -> None:
        """Ingest one trusted measurement plus the trusted ego speed."""
        if follower_speed is None:
            raise ValueError(
                "DeadReckoningEstimator requires the trusted follower speed"
            )
        leader_velocity = measurement.relative_velocity + follower_speed
        self.leader_velocity_predictor.observe(measurement.time, leader_velocity)
        self._anchor = (measurement.time, measurement.distance)
        self._last_trusted_time = measurement.time
        self._log.append((measurement.time, follower_speed, measurement))

    def _roll_anchor(self, to_time: float, follower_speed: float) -> None:
        """Integrate the gap from the anchor to ``to_time``.

        Midpoint rule per step — exact for the linear leader-velocity
        trends the default predictor fits, and consistent with the
        trapezoidal position updates of the vehicle kinematics
        (Eqn 17's ``v T + a T²/2``).
        """
        assert self._anchor is not None
        anchor_time, gap = self._anchor
        tolerance = 1e-9
        while anchor_time + tolerance < to_time:
            step_time = min(anchor_time + self.sample_period, to_time)
            midpoint = 0.5 * (anchor_time + step_time)
            relative_velocity = self._leader_velocity(midpoint) - follower_speed
            gap += relative_velocity * (step_time - anchor_time)
            anchor_time = step_time
        self._anchor = (anchor_time, max(0.0, gap))

    def forecast(
        self, time: float, follower_speed: Optional[float] = None
    ) -> Tuple[float, float]:
        """Estimated ``(distance, relative_velocity)`` at ``time``."""
        if follower_speed is None:
            raise ValueError(
                "DeadReckoningEstimator requires the trusted follower speed"
            )
        if not self.trained:
            raise EstimatorNotTrainedError(
                "dead-reckoning estimator has no trained leader model yet"
            )
        self._log.append((time, follower_speed, None))
        self._roll_anchor(time, follower_speed)
        relative_velocity = self._leader_velocity(time) - follower_speed
        return max(0.0, self._anchor[1] - self._safety_margin(time)), relative_velocity

    def _safety_margin(self, time: float) -> float:
        """Uncertainty-aware reduction of the reported gap.

        The dominant forecast error is the leader-velocity model error
        integrated over the horizon; its first-order magnitude is
        ``σ_v(t) (t - t_trusted) / 2`` (a linearly growing velocity
        error integrates to this).  Scaled by ``margin_gain``.
        """
        if self.margin_gain == 0.0 or self._last_trusted_time is None:
            return 0.0
        horizon = max(0.0, time - self._last_trusted_time)
        if horizon == 0.0:
            return 0.0
        predictor = self.leader_velocity_predictor
        if not isinstance(predictor, ChannelPredictor):
            return 0.0
        sigma = predictor.prediction_std(time)
        return self.margin_gain * sigma * horizon / 2.0

    # ------------------------------------------------------------------
    # snapshot / restore (rollback to the last authenticated state)
    # ------------------------------------------------------------------

    def snapshot(self) -> object:
        """Capture the estimator state, including the sample log.

        Taking a snapshot changes nothing: the samples logged after it
        are the quarantine a later :meth:`restore` of it replays.
        """
        return (
            self.leader_velocity_predictor.snapshot(),
            self._anchor,
            self._last_trusted_time,
            tuple(self._log),
        )

    def restore(self, snapshot: object) -> None:
        """Roll back to ``snapshot`` and replay the quarantined samples.

        Samples ingested after the snapshot are unauthenticated (the
        attack may already have been underway), so the leader model and
        the gap anchor revert.  The quarantined measurements are then
        replayed *with validation*: the anchor rolls forward on the
        model using the trusted ego speeds, and a quarantined
        measurement is re-accepted only when it agrees with the
        model-rolled expectation within :meth:`_replay_gate`.

        Spoofed samples (the +6 m delay offset, DoS spurs) fail the gate
        and are discarded; clean samples pass and re-synchronize both
        the anchor and the leader model — which matters when the leader
        changed regime shortly before the detection, where the reverted
        model alone would lag badly.  An attacker can at most drag the
        anchor by ~gate per quarantined sample, a bounded residual error
        the safety margin covers.
        """
        predictor, anchor, last_trusted, log = snapshot  # type: ignore[misc]
        # Quarantined: what this estimator logged after the snapshot
        # (nothing, for a fresh estimator resuming someone's snapshot).
        quarantine = self._log[len(log):]
        self._log = list(log)
        self.leader_velocity_predictor.restore(predictor)
        self._anchor = anchor
        self._last_trusted_time = last_trusted
        if self._anchor is None:
            return
        anchor_time = self._anchor[0]
        for log_time, speed, measurement in quarantine:
            if log_time <= anchor_time or not self.trained:
                continue
            span = log_time - (
                self._last_trusted_time
                if self._last_trusted_time is not None
                else anchor_time
            )
            self._roll_anchor(log_time, speed)
            if measurement is None:
                continue
            innovation = measurement.distance - self._anchor[1]
            if abs(innovation) <= self._replay_gate(span):
                # Validated: re-accept the sample.
                leader_velocity = measurement.relative_velocity + speed
                self.leader_velocity_predictor.observe(
                    measurement.time, leader_velocity
                )
                self._anchor = (measurement.time, measurement.distance)
                self._last_trusted_time = measurement.time

    def _replay_gate(self, span: float) -> float:
        """Acceptance gate for quarantined-measurement validation, m.

        The model-rolled expectation accumulates bias of roughly one
        residual standard deviation of leader velocity per second, so
        the gate grows with the ``span`` since the last accepted sample.
        Wide enough to re-accept clean samples when the model is known
        to be mispredicting (large recent residuals), tight enough to
        reject the paper's +6 m spoof when the model is healthy.
        """
        predictor = self.leader_velocity_predictor
        residual = (
            predictor.residual_std
            if isinstance(predictor, ChannelPredictor)
            else 0.0
        )
        return max(3.0, 5.0 * residual * max(1.0, span))
