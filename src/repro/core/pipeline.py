"""Algorithm 2 end-to-end: detection + safe-measurement substitution.

:class:`SafeMeasurementPipeline` sits between the radar receiver and the
ACC controller (the "Detection, Estimation Method" block of Figure 1).
For every raw measurement it decides what the controller should see:

* **trusted sample** (no alarm, not a challenge instant) — pass the raw
  measurement through and use it to train the RLS estimator;
* **challenge instant, no alarm** — the radar deliberately produced a
  zero output; the controller receives the estimator's forecast (or the
  last trusted value before the estimator is trained) rather than a
  bogus zero.  The clean challenge also *authenticates* the samples
  ingested since the previous challenge, so the estimator state is
  snapshotted here;
* **alarm raised** — the corrupted stream is discarded and the RLS
  forecast is substituted until a clean challenge response clears the
  alarm (paper §5.3: "during the duration of attack, we compute the
  control input with the estimated values").  On the raising edge the
  estimator first rolls back to the last authenticated snapshot,
  because samples between the last clean challenge and the detection
  instant may already be corrupted (e.g. the paper's delay attack
  starts at k = 180 but is only detectable at the k = 182 challenge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.detector import CRADetector
from repro.core.predictor import MeasurementEstimator, RadarChannelEstimator
from repro.exceptions import EstimatorNotTrainedError
from repro.types import DetectionEvent, RadarMeasurement

__all__ = ["SafeMeasurement", "SafeMeasurementPipeline"]


@dataclass(frozen=True)
class SafeMeasurement:
    """What the pipeline hands to the controller for one instant.

    Attributes
    ----------
    time:
        Sample instant, seconds.
    distance, relative_velocity:
        The safe values the controller should act on.
    estimated:
        True when the values came from the estimator rather than the
        sensor.
    attack_active:
        Alarm state after processing this sample.
    raw:
        The underlying (possibly corrupted) sensor measurement.
    """

    time: float
    distance: float
    relative_velocity: float
    estimated: bool
    attack_active: bool
    raw: RadarMeasurement


class SafeMeasurementPipeline:
    """The complete Algorithm 2 defense.

    Parameters
    ----------
    detector:
        CRA detector (must share the schedule the radar modulator uses).
    estimator:
        The measurement estimator; defaults to the per-channel RLS
        forecaster.  Pass a
        :class:`~repro.core.dead_reckoning.DeadReckoningEstimator` for
        drift-free long attacks (needs the trusted follower speed).
    rollback_on_detection:
        Discard unauthenticated samples by rolling the estimator back to
        the last clean-challenge snapshot when an alarm is raised.

    Notes
    -----
    Before the estimator has seen its minimum number of trusted samples,
    gaps (challenge instants, or an improbably early attack) are bridged
    by holding the last trusted measurement.
    """

    def __init__(
        self,
        detector: CRADetector,
        estimator: Optional[MeasurementEstimator] = None,
        rollback_on_detection: bool = True,
    ):
        self.detector = detector
        self.estimator = estimator if estimator is not None else RadarChannelEstimator()
        self.rollback_on_detection = rollback_on_detection
        self._outputs: List[SafeMeasurement] = []
        self._raw: List[RadarMeasurement] = []
        self._last_trusted: Optional[RadarMeasurement] = None
        self._authenticated_state: Optional[object] = None

    # ------------------------------------------------------------------

    @property
    def outputs(self) -> List[SafeMeasurement]:
        """All pipeline outputs so far (the paper's ``list_ŷ`` + passthroughs)."""
        return list(self._outputs)

    @property
    def raw_measurements(self) -> List[RadarMeasurement]:
        """All raw sensor measurements so far (the paper's ``list_y'``)."""
        return list(self._raw)

    @property
    def estimated_outputs(self) -> List[SafeMeasurement]:
        """Only the outputs the estimator produced (``list_ŷ``)."""
        return [o for o in self._outputs if o.estimated]

    @property
    def detection_events(self) -> List[DetectionEvent]:
        """Challenge verdicts recorded by the detector."""
        return self.detector.events

    @property
    def attack_active(self) -> bool:
        """Current alarm state."""
        return self.detector.attack_active

    def snapshot(self) -> object:
        """The whole pipeline state: detector, estimator and histories.

        The estimator snapshot follows the rollback contract (see
        :class:`~repro.core.predictor.MeasurementEstimator`), so the
        authenticated snapshot it holds is shared, not copied.
        """
        return (
            self.detector.snapshot(),
            self.estimator.snapshot(),
            list(self._outputs),
            list(self._raw),
            self._last_trusted,
            self._authenticated_state,
        )

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        (
            detector,
            estimator,
            outputs,
            raw,
            self._last_trusted,
            self._authenticated_state,
        ) = snapshot  # type: ignore[misc]
        self.detector.restore(detector)
        self.estimator.restore(estimator)
        self._outputs = list(outputs)
        self._raw = list(raw)

    # ------------------------------------------------------------------

    def _estimate(
        self, time: float, follower_speed: Optional[float]
    ) -> Tuple[float, float]:
        """Forecast both channels, falling back to hold-last-trusted."""
        if self.estimator.trained:
            try:
                return self.estimator.forecast(time, follower_speed)
            except EstimatorNotTrainedError:  # pragma: no cover - guarded above
                pass
        if self._last_trusted is not None:
            return (
                self._last_trusted.distance,
                self._last_trusted.relative_velocity,
            )
        return 0.0, 0.0

    def process(
        self,
        measurement: RadarMeasurement,
        follower_speed: Optional[float] = None,
    ) -> SafeMeasurement:
        """Run one raw measurement through Algorithm 2.

        ``follower_speed`` is the trusted ego speed; required when the
        estimator dead-reckons, ignored otherwise.
        """
        self._raw.append(measurement)
        was_active = self.detector.attack_active
        event = self.detector.process(measurement)
        is_challenge = event is not None
        alarm = self.detector.attack_active

        if is_challenge and alarm and not was_active and self.rollback_on_detection:
            # Raising edge: everything since the last clean challenge is
            # unauthenticated — roll the estimator back.
            if self._authenticated_state is not None:
                self.estimator.restore(self._authenticated_state)

        missed_detection = not is_challenge and measurement.is_zero_output(
            self.detector.zero_tolerance
        )
        if alarm or is_challenge or missed_detection:
            # The stream is corrupted, the radar deliberately produced a
            # zero output (challenge), or the receiver genuinely missed
            # the target this instant — substitute the estimate rather
            # than feeding a bogus zero to the estimator and controller.
            distance, velocity = self._estimate(measurement.time, follower_speed)
            estimated = True
        else:
            distance = measurement.distance
            velocity = measurement.relative_velocity
            estimated = False
            self._last_trusted = measurement
            self.estimator.observe(measurement, follower_speed)

        if is_challenge and not alarm:
            # Clean challenge response: the samples since the previous
            # challenge are now authenticated — snapshot the estimator.
            self._authenticated_state = self.estimator.snapshot()

        output = SafeMeasurement(
            time=measurement.time,
            distance=distance,
            relative_velocity=velocity,
            estimated=estimated,
            attack_active=alarm,
            raw=measurement,
        )
        self._outputs.append(output)
        return output
