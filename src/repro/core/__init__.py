"""The paper's primary contribution (§5): CRA detection + RLS estimation.

* :mod:`repro.core.rls` — Algorithm 1, the recursive least-squares
  estimator with exponential forgetting.
* :mod:`repro.core.regressors` — measurement-matrix (``h_k``) builders:
  polynomial-in-time and autoregressive bases.
* :mod:`repro.core.predictor` — RLS-based forecasting of a sensor
  channel during an attack, plus the two-channel radar estimator.
* :mod:`repro.core.cra` — challenge-response authentication: PRBS
  generator and challenge schedules.
* :mod:`repro.core.detector` — Algorithm 2's detection logic (lines
  7-9): compare receiver output against the expectation at challenge
  instants.
* :mod:`repro.core.pipeline` — Algorithm 2 end-to-end: ingest raw
  measurements, detect, and substitute RLS estimates for the duration
  of the attack.
* :mod:`repro.core.baselines` — comparison estimators (hold-last-value,
  Kalman) and χ²-residual, CUSUM and safety-envelope detectors.
"""

from repro.core.rls import RLSEstimator, rls_estimate
from repro.core.regressors import PolynomialBasis, ARBasis, RegressorBasis
from repro.core.predictor import (
    ChannelPredictor,
    Forecaster,
    MeasurementEstimator,
    RadarChannelEstimator,
)
from repro.core.dead_reckoning import DeadReckoningEstimator
from repro.core.cra import ChallengeSchedule, PRBSGenerator
from repro.core.adaptive_cra import AdaptiveChallengePolicy
from repro.core.detector import CRADetector
from repro.core.pipeline import SafeMeasurementPipeline, SafeMeasurement
from repro.core.baselines import (
    HoldLastValuePredictor,
    KalmanChannelPredictor,
    ChiSquareDetector,
    CUSUMDetector,
    SafetyEnvelopeDetector,
)

__all__ = [
    "RLSEstimator",
    "rls_estimate",
    "PolynomialBasis",
    "ARBasis",
    "RegressorBasis",
    "ChannelPredictor",
    "Forecaster",
    "MeasurementEstimator",
    "RadarChannelEstimator",
    "DeadReckoningEstimator",
    "ChallengeSchedule",
    "PRBSGenerator",
    "AdaptiveChallengePolicy",
    "CRADetector",
    "SafeMeasurementPipeline",
    "SafeMeasurement",
    "HoldLastValuePredictor",
    "KalmanChannelPredictor",
    "ChiSquareDetector",
    "CUSUMDetector",
    "SafetyEnvelopeDetector",
]
