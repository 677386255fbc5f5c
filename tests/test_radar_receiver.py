"""Radar receiver chain (repro.radar.receiver)."""

import numpy as np
import pytest

from repro import telemetry
from repro.exceptions import SpectralEstimationError
from repro.radar import (
    AttackEffect,
    FMCWParameters,
    FMCWRadarSensor,
    RadarReceiver,
    beat_frequencies,
)
from repro.radar.link_budget import (
    JammerParameters,
    jammer_received_power,
    received_power,
)
from repro.radar.music import MAX_COVARIANCE_ORDER
from repro.radar.signal_synth import complex_awgn, synthesize_beat_signal

PARAMS = FMCWParameters()


def synth_echo(distance, velocity, seed=0, extra_noise=0.0):
    rng = np.random.default_rng(seed)
    f_up, f_down = beat_frequencies(PARAMS, distance, velocity)
    power = received_power(PARAMS, distance)
    n = PARAMS.samples_per_segment
    noise = PARAMS.noise_floor + extra_noise
    up = synthesize_beat_signal(
        f_up, power, n, PARAMS.sample_rate, rng=rng, noise_power=noise
    )
    down = synthesize_beat_signal(
        f_down, power, n, PARAMS.sample_rate, rng=rng, noise_power=noise
    )
    return up, down


class TestPresenceDetection:
    def test_noise_only_reports_absent(self):
        rng = np.random.default_rng(0)
        n = PARAMS.samples_per_segment
        up = complex_awgn(n, PARAMS.noise_floor, rng)
        down = complex_awgn(n, PARAMS.noise_floor, rng)
        out = RadarReceiver(PARAMS).process(up, down)
        assert not out.present
        assert out.distance == 0.0
        assert out.relative_velocity == 0.0

    def test_echo_reports_present(self):
        out = RadarReceiver(PARAMS).process(*synth_echo(100.0, -1.0))
        assert out.present

    def test_far_target_still_detected(self):
        # Max range target must clear the presence threshold.
        out = RadarReceiver(PARAMS).process(*synth_echo(200.0, 0.0))
        assert out.present

    def test_threshold_factor_validation(self):
        with pytest.raises(ValueError):
            RadarReceiver(PARAMS, detection_threshold_factor=0.5)

    @pytest.mark.parametrize(
        "order", [1, 0, MAX_COVARIANCE_ORDER + 1, 2.0, True, "24"]
    )
    def test_covariance_order_validation(self, order):
        # An order root-MUSIC always refuses would send every
        # measurement to the FFT fallback without a word.
        with pytest.raises(ValueError, match="covariance_order"):
            RadarReceiver(PARAMS, covariance_order=order)

    @pytest.mark.parametrize("order", [2, np.int64(24), MAX_COVARIANCE_ORDER])
    def test_covariance_order_accepted(self, order):
        out = RadarReceiver(PARAMS, covariance_order=order).process(
            *synth_echo(60.0, -1.5, seed=3)
        )
        assert out.distance == pytest.approx(60.0, abs=0.5)


class TestMeasurementAccuracy:
    @pytest.mark.parametrize(
        "distance,velocity",
        [(10.0, 0.0), (50.0, -5.0), (100.0, -0.9), (150.0, 10.0), (35.0, -2.0)],
    )
    def test_distance_and_velocity(self, distance, velocity):
        out = RadarReceiver(PARAMS).process(*synth_echo(distance, velocity, seed=42))
        assert out.present
        assert out.distance == pytest.approx(distance, abs=0.5)
        assert out.relative_velocity == pytest.approx(velocity, abs=0.3)

    def test_beat_frequencies_reported(self):
        out = RadarReceiver(PARAMS).process(*synth_echo(80.0, -3.0, seed=1))
        f_up, f_down = beat_frequencies(PARAMS, 80.0, -3.0)
        assert out.beat_freq_up == pytest.approx(f_up, abs=100.0)
        assert out.beat_freq_down == pytest.approx(f_down, abs=100.0)

    def test_accuracy_across_seeds(self):
        errors = []
        for seed in range(10):
            out = RadarReceiver(PARAMS).process(*synth_echo(60.0, -1.5, seed=seed))
            errors.append(abs(out.distance - 60.0))
        assert max(errors) < 0.5


class TestMusicFallback:
    def test_short_segments_fall_back_and_are_counted(self):
        # Five samples cap the covariance order at 5 // 3 = 1, which
        # root-MUSIC refuses; the FFT estimator answers instead.
        up, down = (segment[:5] for segment in synth_echo(20.0, 0.0))
        with telemetry.session() as tele:
            out = RadarReceiver(PARAMS).process(up, down)
        assert out.present
        assert tele.counters["radar.music_fallbacks"] == 2

    def test_full_segments_do_not_fall_back(self):
        with telemetry.session() as tele:
            RadarReceiver(PARAMS).process(*synth_echo(60.0, -1.5))
        assert "radar.music_fallbacks" not in tele.counters


class TestJammedReceiver:
    def test_strong_jamming_corrupts_measurement(self):
        # Jamming power 30 dB above the echo: the extracted frequencies
        # are noise-driven and the distance is far from the truth more
        # often than not; at minimum, presence is still declared.
        echo_power = received_power(PARAMS, 100.0)
        out = RadarReceiver(PARAMS).process(
            *synth_echo(100.0, -1.0, seed=7, extra_noise=1000.0 * echo_power)
        )
        assert out.present
        assert out.power > 100.0 * PARAMS.noise_floor


class TestNonFiniteSegments:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("which", ["up", "down"])
    def test_raises_instead_of_falling_back(self, bad, which):
        up, down = synth_echo(60.0, -1.5)
        (up if which == "up" else down)[33] = bad
        with telemetry.session() as tele:
            with pytest.raises(ValueError, match="sample 33 is not finite") as info:
                RadarReceiver(PARAMS).process(up, down)
        assert not isinstance(info.value, SpectralEstimationError)
        assert "radar.music_fallbacks" not in tele.counters


class TestExactPathCounter:
    def test_clean_echo_stays_on_the_one_root_path(self):
        with telemetry.session() as tele:
            RadarReceiver(PARAMS).process(*synth_echo(60.0, -1.5))
        assert "radar.music_exact_path" not in tele.counters

    def test_jammed_fig2a_segments_take_the_exact_path(self):
        # The fig2a jammer (Eqns 10-11) at the panels' 100 m initial gap swamps
        # the echo: both segments are noise-dominated.
        jammer = jammer_received_power(PARAMS, JammerParameters(), 100.0)
        sensor = FMCWRadarSensor(fidelity="signal", seed=2017)
        with telemetry.session() as tele:
            sensor.measure(
                182.0, 100.0, -0.9, effect=AttackEffect(jammer_noise_power=jammer)
            )
        assert tele.counters["radar.music_exact_path"] == 2
        assert "radar.music_fallbacks" not in tele.counters
