"""Baseline estimators and detectors (repro.core.baselines)."""

import numpy as np
import pytest

from repro.core import (
    ChiSquareDetector,
    HoldLastValuePredictor,
    KalmanChannelPredictor,
)
from repro.exceptions import EstimatorNotTrainedError


class TestHoldLastValue:
    def test_untrained_raises(self):
        with pytest.raises(EstimatorNotTrainedError):
            HoldLastValuePredictor().forecast(0.0)

    def test_holds(self):
        p = HoldLastValuePredictor()
        p.observe(0.0, 5.0)
        p.observe(1.0, 7.0)
        assert p.forecast(100.0) == 7.0
        assert p.trained


class TestKalmanChannelPredictor:
    def test_tracks_constant_value(self):
        kf = KalmanChannelPredictor()
        for k in range(30):
            kf.observe(float(k), 42.0)
        assert kf.forecast(35.0) == pytest.approx(42.0, abs=0.5)

    def test_tracks_ramp_and_extrapolates(self):
        kf = KalmanChannelPredictor(process_noise=0.01, measurement_noise=0.01)
        for k in range(60):
            kf.observe(float(k), 100.0 - 0.5 * k)
        assert kf.forecast(80.0) == pytest.approx(100.0 - 0.5 * 80.0, abs=1.0)

    def test_untrained_raises(self):
        kf = KalmanChannelPredictor()
        with pytest.raises(EstimatorNotTrainedError):
            kf.forecast(0.0)

    def test_innovation_statistic_small_on_clean_data(self):
        rng = np.random.default_rng(0)
        kf = KalmanChannelPredictor(measurement_noise=0.25)
        for k in range(50):
            kf.observe(float(k), 10.0 + rng.normal(0, 0.5))
        stat = kf.innovation_statistic(50.0, 10.0)
        assert stat < 6.63

    def test_innovation_statistic_large_on_jump(self):
        kf = KalmanChannelPredictor(measurement_noise=0.25)
        for k in range(50):
            kf.observe(float(k), 10.0)
        assert kf.innovation_statistic(50.0, 200.0) > 100.0

    def test_validation(self):
        with pytest.raises(ValueError):
            KalmanChannelPredictor(process_noise=0.0)


class TestChiSquareDetector:
    def run_stream(self, detector, attack_start=None, offset=50.0, n=120, noise=0.3, seed=0):
        rng = np.random.default_rng(seed)
        alarms = []
        for k in range(n):
            value = 100.0 - 0.2 * k + rng.normal(0, noise)
            if attack_start is not None and k >= attack_start:
                value += offset
            if detector.process(float(k), value):
                alarms.append(k)
        return alarms

    def test_detects_large_jump(self):
        detector = ChiSquareDetector()
        alarms = self.run_stream(detector, attack_start=60)
        assert alarms
        assert alarms[0] >= 60
        assert alarms[0] <= 65

    def test_clean_stream_mostly_silent(self):
        detector = ChiSquareDetector(threshold=6.63, persistence=2)
        alarms = self.run_stream(detector, attack_start=None)
        assert len(alarms) <= 1  # residual detectors have a noise floor

    def test_misses_stealthy_offset(self):
        # A spoof comparable to the noise floor slips through — the
        # contrast with CRA's zero-FN guarantee.
        detector = ChiSquareDetector(threshold=6.63, persistence=2)
        alarms = self.run_stream(detector, attack_start=60, offset=0.2, noise=0.3)
        assert alarms == [] or alarms[0] > 70

    def test_statistics_recorded(self):
        detector = ChiSquareDetector()
        self.run_stream(detector, n=30)
        assert len(detector.statistics) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ChiSquareDetector(threshold=0.0)
        with pytest.raises(ValueError):
            ChiSquareDetector(persistence=0)
