"""Baseline estimators and detectors for comparison studies.

The paper positions CRA+RLS against redundancy-based estimation and the
χ²-residual detection of PyCRA (Shoukry et al. [10]).  To make the
ablation benches meaningful, this module provides:

* :class:`HoldLastValuePredictor` — the trivial recovery strategy: keep
  feeding the controller the last trusted value.
* :class:`KalmanChannelPredictor` — a constant-velocity Kalman filter
  per channel, propagated open-loop during the attack.
* :class:`ChiSquareDetector` — a residual-based detector that flags an
  attack when the normalized innovation energy exceeds a χ² threshold;
  unlike CRA it needs no sensor modification, but it has a noise-floor
  false-positive rate and misses stealthy offsets.
* :class:`CUSUMDetector` — a cumulative-sum change detector on the same
  innovations; integrates small persistent biases, so it eventually
  catches slow ramps that χ² misses — at the cost of a latency that
  grows as the attack gets stealthier (CRA's latency is set only by the
  challenge schedule).
* :class:`SafetyEnvelopeDetector` — the "safety envelope" idea of
  Tiwari et al. [12]: learn per-channel min/max/rate bounds from clean
  data and alarm on violation.  Catches gross corruption (DoS spikes)
  but is blind to any spoof that stays inside the learned envelope.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.core.predictor import Forecaster
from repro.exceptions import EstimatorNotTrainedError

__all__ = [
    "HoldLastValuePredictor",
    "KalmanChannelPredictor",
    "ChiSquareDetector",
    "CUSUMDetector",
    "SafetyEnvelopeDetector",
]


class HoldLastValuePredictor(Forecaster):
    """Forecast by repeating the last trusted observation."""

    def __init__(self):
        self._last: Optional[Tuple[float, float]] = None

    def observe(self, time: float, value: float) -> None:
        self._last = (time, value)

    def forecast(self, time: float) -> float:
        if self._last is None:
            raise EstimatorNotTrainedError("no observation to hold")
        return self._last[1]

    @property
    def trained(self) -> bool:
        return self._last is not None


class KalmanChannelPredictor(Forecaster):
    """Constant-velocity Kalman filter for one scalar channel.

    State ``[value, rate]`` with white-noise acceleration of spectral
    density ``process_noise``; measurements are the channel value with
    variance ``measurement_noise``.  Forecasting propagates the state
    open-loop to the requested time.
    """

    def __init__(
        self,
        process_noise: float = 0.05,
        measurement_noise: float = 0.25,
        min_training_samples: int = 3,
    ):
        if process_noise <= 0.0 or measurement_noise <= 0.0:
            raise ValueError("noise intensities must be positive")
        self.process_noise = float(process_noise)
        self.measurement_noise = float(measurement_noise)
        self.min_training_samples = int(min_training_samples)
        self._state = np.zeros(2)
        self._cov = np.diag([1e4, 1e2])
        self._last_time: Optional[float] = None
        self._count = 0

    def _transition(self, dt: float) -> Tuple[np.ndarray, np.ndarray]:
        F = np.array([[1.0, dt], [0.0, 1.0]])
        q = self.process_noise
        Q = q * np.array(
            [[dt**3 / 3.0, dt**2 / 2.0], [dt**2 / 2.0, dt]]
        )
        return F, Q

    def _propagate(self, to_time: float) -> Tuple[np.ndarray, np.ndarray]:
        if self._last_time is None or to_time <= self._last_time:
            return self._state.copy(), self._cov.copy()
        F, Q = self._transition(to_time - self._last_time)
        return F @ self._state, F @ self._cov @ F.T + Q

    def observe(self, time: float, value: float) -> None:
        if self._last_time is None:
            self._state = np.array([value, 0.0])
            self._last_time = time
            self._count = 1
            return
        state, cov = self._propagate(time)
        H = np.array([1.0, 0.0])
        innovation = value - float(H @ state)
        S = float(H @ cov @ H) + self.measurement_noise
        K = cov @ H / S
        self._state = state + K * innovation
        self._cov = (np.eye(2) - np.outer(K, H)) @ cov
        self._last_time = time
        self._count += 1

    def innovation_statistic(self, time: float, value: float) -> float:
        """Normalized innovation squared ``e²/S`` without updating.

        The χ²(1) statistic residual detectors threshold on.
        """
        state, cov = self._propagate(time)
        H = np.array([1.0, 0.0])
        innovation = value - float(H @ state)
        S = float(H @ cov @ H) + self.measurement_noise
        return innovation * innovation / S

    def forecast(self, time: float) -> float:
        if not self.trained:
            raise EstimatorNotTrainedError(
                f"Kalman filter needs {self.min_training_samples} samples, "
                f"has {self._count}"
            )
        state, _ = self._propagate(time)
        return float(state[0])

    @property
    def trained(self) -> bool:
        return self._count >= self.min_training_samples


class ChiSquareDetector:
    """Residual (χ²) attack detector over a scalar measurement channel.

    Maintains a :class:`KalmanChannelPredictor` of the channel and flags
    an attack when the normalized innovation exceeds ``threshold``
    (e.g. 6.63 for χ²(1) at the 1% level) for ``persistence``
    consecutive samples.  The persistence requirement trades detection
    latency against noise-induced false alarms — a trade-off CRA avoids
    entirely, which is the comparison the detection bench draws.
    """

    def __init__(
        self,
        threshold: float = 6.63,
        persistence: int = 2,
        predictor: Optional[KalmanChannelPredictor] = None,
    ):
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if persistence < 1:
            raise ValueError(f"persistence must be >= 1, got {persistence}")
        self.threshold = float(threshold)
        self.persistence = int(persistence)
        self.predictor = predictor if predictor is not None else KalmanChannelPredictor()
        self._exceed_streak = 0
        self._alarms: List[float] = []
        self._statistics: List[Tuple[float, float]] = []

    @property
    def alarms(self) -> List[float]:
        """Times at which the detector raised an alarm."""
        return list(self._alarms)

    @property
    def statistics(self) -> List[Tuple[float, float]]:
        """Recorded ``(time, χ² statistic)`` pairs."""
        return list(self._statistics)

    def process(self, time: float, value: float) -> bool:
        """Ingest one sample; returns True when an alarm fires now."""
        if not self.predictor.trained:
            self.predictor.observe(time, value)
            return False
        statistic = self.predictor.innovation_statistic(time, value)
        self._statistics.append((time, statistic))
        if statistic > self.threshold:
            self._exceed_streak += 1
        else:
            self._exceed_streak = 0
            self.predictor.observe(time, value)
        if self._exceed_streak >= self.persistence:
            self._alarms.append(time)
            self._exceed_streak = 0
            return True
        return False


class CUSUMDetector:
    """Two-sided CUSUM change detection on Kalman innovations.

    Accumulates the normalized innovation ``e/√S`` minus a drift
    allowance ``k`` in both directions:

        g⁺ = max(0, g⁺ + e_n - k)
        g⁻ = max(0, g⁻ - e_n - k)

    and alarms when either side exceeds ``h``.  Because the statistic
    *integrates*, a small persistent bias (a stealthy spoof ramp) is
    eventually caught — with latency inversely proportional to the bias
    magnitude, which is the structural contrast with CRA's
    schedule-bounded latency.

    Parameters
    ----------
    drift:
        Per-sample drift allowance ``k`` in innovation standard
        deviations; absorbs model mismatch on clean data.
    threshold:
        Alarm level ``h`` in accumulated standard deviations.
    update_gate:
        Innovations above this many standard deviations are treated as
        suspect and NOT used to update the reference model — without
        the gate, the filter would absorb a step offset within a couple
        of samples and the accumulators would never reach the alarm
        level.
    predictor:
        Innovation source; a default constant-velocity Kalman filter is
        built when omitted.  Note that a constant-velocity reference
        tracks any *smooth* spoof ramp as if it were a legitimate
        maneuver — residual detection fundamentally cannot separate the
        two, which is the contrast the detection bench draws with CRA.
    """

    def __init__(
        self,
        drift: float = 0.5,
        threshold: float = 8.0,
        update_gate: float = 3.0,
        predictor: Optional[KalmanChannelPredictor] = None,
    ):
        if drift < 0.0:
            raise ValueError(f"drift must be >= 0, got {drift}")
        if threshold <= 0.0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if update_gate <= 0.0:
            raise ValueError(f"update_gate must be positive, got {update_gate}")
        self.drift = float(drift)
        self.threshold = float(threshold)
        self.update_gate = float(update_gate)
        self.predictor = predictor if predictor is not None else KalmanChannelPredictor()
        self._g_pos = 0.0
        self._g_neg = 0.0
        self._alarms: List[float] = []

    @property
    def alarms(self) -> List[float]:
        """Times at which the detector raised an alarm."""
        return list(self._alarms)

    @property
    def statistic(self) -> float:
        """Current max of the two CUSUM accumulators."""
        return max(self._g_pos, self._g_neg)

    def process(self, time: float, value: float) -> bool:
        """Ingest one sample; returns True when an alarm fires now."""
        if not self.predictor.trained:
            self.predictor.observe(time, value)
            return False
        statistic = self.predictor.innovation_statistic(time, value)
        normalized = math.sqrt(statistic)
        # Recover the innovation sign from the raw prediction.
        sign = 1.0 if value >= self.predictor.forecast(time) else -1.0
        e_n = sign * normalized
        self._g_pos = max(0.0, self._g_pos + e_n - self.drift)
        self._g_neg = max(0.0, self._g_neg - e_n - self.drift)
        fired = self._g_pos > self.threshold or self._g_neg > self.threshold
        if fired:
            self._alarms.append(time)
            self._g_pos = 0.0
            self._g_neg = 0.0
        if not fired and normalized <= self.update_gate:
            # Only innovations consistent with the model refine it;
            # suspect samples are quarantined.
            self.predictor.observe(time, value)
        return fired


class SafetyEnvelopeDetector:
    """Safety-envelope detection in the spirit of Tiwari et al. [12].

    The envelope has two parts:

    * **a-priori value bounds** — the physically admissible range of the
      channel (e.g. the radar's 2-200 m operating envelope), supplied by
      the caller because a trending channel (a closing gap) legitimately
      walks far beyond any range observed during training;
    * **learned rate bounds** — the per-second change observed over a
      clean training phase, inflated by a relative ``margin``.

    After training the detector alarms whenever a sample leaves the
    value bounds or its rate leaves the learned rate envelope.

    Parameters
    ----------
    training_samples:
        Clean samples used to learn the rate envelope.
    margin:
        Relative inflation of the learned rate bounds (0.5 = 50%).
    value_bounds:
        A-priori ``(lo, hi)`` admissible values, or None to disable
        value checking.
    """

    def __init__(
        self,
        training_samples: int = 60,
        margin: float = 0.5,
        value_bounds: Optional[Tuple[float, float]] = None,
    ):
        if training_samples < 2:
            raise ValueError(
                f"training_samples must be >= 2, got {training_samples}"
            )
        if margin < 0.0:
            raise ValueError(f"margin must be >= 0, got {margin}")
        if value_bounds is not None and value_bounds[0] >= value_bounds[1]:
            raise ValueError(f"invalid value bounds {value_bounds}")
        self.training_samples = int(training_samples)
        self.margin = float(margin)
        self.value_bounds = value_bounds
        self._values: List[float] = []
        self._last: Optional[Tuple[float, float]] = None
        self._bounds: Optional[Tuple[float, float]] = None
        self._alarms: List[float] = []

    @property
    def trained(self) -> bool:
        """True once the envelope is learned."""
        return self._bounds is not None

    @property
    def alarms(self) -> List[float]:
        """Times at which the detector raised an alarm."""
        return list(self._alarms)

    @property
    def bounds(self) -> Optional[Tuple[float, float]]:
        """Learned ``(rate_lo, rate_hi)`` once trained."""
        return self._bounds

    def _learn(self) -> None:
        rates = np.diff(np.asarray(self._values))
        rate_span = max(1e-9, float(rates.max() - rates.min()))
        self._bounds = (
            float(rates.min()) - self.margin * rate_span,
            float(rates.max()) + self.margin * rate_span,
        )

    def process(self, time: float, value: float) -> bool:
        """Ingest one sample; returns True when the envelope is violated."""
        if self._bounds is None:
            self._values.append(float(value))
            self._last = (time, float(value))
            if len(self._values) >= self.training_samples:
                self._learn()
            return False
        rate_lo, rate_hi = self._bounds
        violated = False
        if self.value_bounds is not None:
            violated = value < self.value_bounds[0] or value > self.value_bounds[1]
        if self._last is not None and time > self._last[0]:
            rate = (value - self._last[1]) / (time - self._last[0])
            violated = violated or rate < rate_lo or rate > rate_hi
        self._last = (time, float(value))
        if violated:
            self._alarms.append(time)
        return violated
