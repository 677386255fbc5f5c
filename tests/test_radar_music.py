"""Root-MUSIC spectral estimation (repro.radar.music)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro import fig2_scenario, fig3_scenario, telemetry
from repro.exceptions import SpectralEstimationError
from repro.radar import estimate_single_tone, receiver, root_music
from repro.radar.music import (
    MAX_COVARIANCE_ORDER,
    _certified_root,
    _covariance_matrix,
    _exact_frequencies,
    _laurent_coefficients,
    _signal_eigenvector,
)
from repro.radar.signal_synth import synthesize_beat_signal

FS = 256e3
N = 256


def tone(freq, snr_db=30.0, seed=0, n=N):
    rng = np.random.default_rng(seed)
    noise_power = 10 ** (-snr_db / 10.0)
    return synthesize_beat_signal(
        freq, power=1.0, n_samples=n, sample_rate=FS, rng=rng, noise_power=noise_power
    )


class TestRootMusicSingleTone:
    @pytest.mark.parametrize("freq", [500.0, 5e3, 50e3, 110e3, -20e3])
    def test_recovers_tone(self, freq):
        est = root_music(tone(freq), n_sources=1, sample_rate=FS)
        assert est[0] == pytest.approx(freq, abs=20.0)

    def test_noiseless_is_extremely_accurate(self):
        signal = synthesize_beat_signal(
            12345.0, power=1.0, n_samples=N, sample_rate=FS, phase=0.3
        )
        est = root_music(signal, n_sources=1, sample_rate=FS)
        assert est[0] == pytest.approx(12345.0, abs=0.1)

    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=-100e3, max_value=100e3),
        st.integers(min_value=0, max_value=1000),
    )
    def test_property_high_snr_accuracy(self, freq, seed):
        est = root_music(tone(freq, snr_db=25.0, seed=seed), 1, FS)
        assert est[0] == pytest.approx(freq, abs=50.0)

    def test_low_snr_still_in_ballpark(self):
        est = root_music(tone(40e3, snr_db=5.0, seed=3), 1, FS)
        assert est[0] == pytest.approx(40e3, abs=500.0)


class TestRootMusicTwoTones:
    def test_resolves_two_separated_tones(self):
        rng = np.random.default_rng(1)
        s = (
            synthesize_beat_signal(10e3, 1.0, N, FS, rng=rng)
            + synthesize_beat_signal(30e3, 1.0, N, FS, rng=rng)
            + synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=1e-3)
        )
        est = root_music(s, n_sources=2, sample_rate=FS)
        assert est[0] == pytest.approx(10e3, abs=100.0)
        assert est[1] == pytest.approx(30e3, abs=100.0)

    def test_close_tones_beyond_fft_resolution(self):
        # FFT bin is fs/N = 1 kHz; MUSIC resolves a 600 Hz split.
        rng = np.random.default_rng(2)
        s = (
            synthesize_beat_signal(20e3, 1.0, N, FS, rng=rng)
            + synthesize_beat_signal(20.6e3, 1.0, N, FS, rng=rng)
            + synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=1e-4)
        )
        est = root_music(s, n_sources=2, sample_rate=FS)
        assert est[0] == pytest.approx(20e3, abs=150.0)
        assert est[1] == pytest.approx(20.6e3, abs=150.0)


class TestRootMusicValidation:
    def test_rejects_bad_n_sources(self):
        with pytest.raises(ValueError):
            root_music(tone(1e3), n_sources=0, sample_rate=FS)

    def test_rejects_bad_sample_rate(self):
        with pytest.raises(ValueError):
            root_music(tone(1e3), n_sources=1, sample_rate=0.0)

    def test_too_short_signal_raises(self):
        with pytest.raises(SpectralEstimationError):
            root_music(np.ones(4, dtype=complex), n_sources=2, sample_rate=FS)

    def test_order_must_exceed_sources(self):
        with pytest.raises(SpectralEstimationError):
            root_music(tone(1e3), n_sources=3, sample_rate=FS, covariance_order=3)

    def test_order_above_bound_rejected(self):
        signal = tone(1e3)
        root_music(signal, 1, FS, covariance_order=MAX_COVARIANCE_ORDER)
        with pytest.raises(ValueError, match="MAX_COVARIANCE_ORDER"):
            root_music(signal, 1, FS, covariance_order=MAX_COVARIANCE_ORDER + 1)


def reference_root_music(signal, n_sources, sample_rate, order):
    """Root-MUSIC as the complex polynomial: the noise projector's
    diagonal sums (``np.trace``) rooted by ``np.roots``."""
    snapshots = np.lib.stride_tricks.sliding_window_view(signal, order)
    covariance = snapshots.T @ snapshots.conj() / snapshots.shape[0]
    _, eigvecs = np.linalg.eigh(covariance)
    noise_subspace = eigvecs[:, : order - n_sources]
    projector = noise_subspace @ noise_subspace.conj().T
    coefficients = np.array(
        [np.trace(projector, offset=k) for k in range(order - 1, -order, -1)]
    )
    roots = np.roots(coefficients)
    inside = roots[np.abs(roots) <= 1.0 + 1e-8]
    closest = inside[np.argsort(np.abs(np.abs(inside) - 1.0))[:n_sources]]
    return np.sort(np.angle(closest) / (2.0 * np.pi) * sample_rate)


#: Tone sets of the oracle grid: near DC and near either Nyquist edge,
#: each with a second tone for K = 2.
ORACLE_TONES = {
    "dc": (150.0, -20e3),
    "+nyquist": (FS / 2 - 300.0, 40e3),
    "-nyquist": (-FS / 2 + 300.0, 3e3),
}

#: Largest allowed distance between the real Cayley kernel and the
#: complex reference, 1e-9 of the sample rate (0.256 mHz).  The worst
#: case on this grid is ~3e-6 Hz (order 3, two tones at 20 dB).
ORACLE_TOLERANCE_HZ = 1e-9 * FS


def oracle_signals():
    rng = np.random.default_rng(2017)
    for name, freqs in ORACLE_TONES.items():
        for snr_db in (0.0, 20.0, 40.0):
            for k in (1, 2):
                noise_power = 10 ** (-snr_db / 10.0)
                signal = sum(
                    synthesize_beat_signal(
                        f, 1.0, N, FS, rng=rng, phase=rng.uniform(0, 2 * np.pi)
                    )
                    for f in freqs[:k]
                ) + synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=noise_power)
                yield f"{name}/{snr_db:g}dB", k, signal
    noise = synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=1.0)
    for k in (1, 2):
        yield "noise-only", k, noise


class TestRealPolynomialOracle:
    """The real (Cayley-mapped) polynomial finds the same roots as the
    complex one at every accepted order."""

    @pytest.mark.parametrize("order", range(2, MAX_COVARIANCE_ORDER + 1))
    def test_matches_complex_reference(self, order):
        checked = 0
        for label, k, signal in oracle_signals():
            if k >= order:
                continue
            expected = reference_root_music(signal, k, FS, order)
            got = root_music(signal, k, FS, covariance_order=order)
            # Frequencies live on a circle: +fs/2 and -fs/2 are one point.
            gap = np.abs((got - expected + FS / 2) % FS - FS / 2)
            assert gap.max() <= ORACLE_TOLERANCE_HZ, (label, k, expected, got)
            checked += 1
        assert checked >= 10


class TestSingleToneFFT:
    @pytest.mark.parametrize("freq", [500.0, 5e3, 50e3, -30e3])
    def test_matches_truth(self, freq):
        est = estimate_single_tone(tone(freq, seed=9), FS)
        assert est == pytest.approx(freq, abs=30.0)

    def test_cross_check_with_music(self):
        s = tone(42e3, seed=5)
        music = root_music(s, 1, FS)[0]
        fft = estimate_single_tone(s, FS)
        assert music == pytest.approx(fft, abs=50.0)

    def test_rejects_tiny_signal(self):
        with pytest.raises(SpectralEstimationError):
            estimate_single_tone(np.ones(2, dtype=complex), FS)


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("n_sources", [1, 2])
    def test_raises_value_error_naming_first_index(self, bad, n_sources):
        signal = tone(5e3)
        signal[17] = bad
        signal[40] = np.nan
        with pytest.raises(ValueError, match="sample 17 is not finite") as info:
            root_music(signal, n_sources, FS)
        # A SpectralEstimationError would let the receiver substitute an
        # FFT estimate of a corrupt segment.
        assert not isinstance(info.value, SpectralEstimationError)


def frequency_gap(a, b):
    """Distance between two frequencies on the circle of period FS."""
    return np.abs((np.asarray(a) - b + FS / 2) % FS - FS / 2)


def certified_frequency(signal, order):
    """The one-root path's frequency, or None when it is not certified."""
    u = _signal_eigenvector(_covariance_matrix(signal, order))
    theta = None if u is None else _certified_root(_laurent_coefficients(u))
    return None if theta is None else np.angle(np.exp(1j * theta.real)) / (2 * np.pi) * FS


def exact_frequency(signal, order):
    return _exact_frequencies(_covariance_matrix(signal, order), 1, FS)[0]


class TestCertifiedRoot:
    """The K = 1 path that roots only the returned root agrees with the
    companion eigensolve whenever its certificate holds."""

    @pytest.mark.parametrize("order", range(2, MAX_COVARIANCE_ORDER + 1))
    def test_matches_exact_path_on_oracle_grid(self, order):
        certified = 0
        for label, k, signal in oracle_signals():
            if k != 1:
                continue
            fast = certified_frequency(signal, order)
            if fast is None:
                continue
            gap = frequency_gap(fast, exact_frequency(signal, order))
            assert gap <= ORACLE_TOLERANCE_HZ, (label, fast)
            assert root_music(signal, 1, FS, covariance_order=order)[0] == fast
            certified += 1
        assert certified >= 3

    @pytest.mark.parametrize("order", [2, 4, 8, 16, 24, 32])
    @pytest.mark.parametrize(
        "case", ["two tones in one bin", "tone under equal noise", "pure noise"]
    )
    def test_adversarial_inputs_agree_or_fall_back(self, case, order):
        rng = np.random.default_rng(order)
        for _ in range(8):
            if case == "two tones in one bin":
                f = rng.uniform(-FS / 2, FS / 2 - FS / N)
                signal = sum(
                    synthesize_beat_signal(
                        freq, 1.0, N, FS, rng=rng, phase=rng.uniform(0, 2 * np.pi)
                    )
                    for freq in (f, f + 0.5 * FS / N)
                ) + synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=1e-4)
            elif case == "tone under equal noise":
                signal = synthesize_beat_signal(
                    rng.uniform(-FS / 2, FS / 2), 1.0, N, FS, rng=rng, noise_power=1.0
                )
            else:
                signal = synthesize_beat_signal(0.0, 0.0, N, FS, rng=rng, noise_power=1.0)
            fast = certified_frequency(signal, order)
            if fast is not None:
                gap = frequency_gap(fast, exact_frequency(signal, order))
                assert gap <= ORACLE_TOLERANCE_HZ, (case, fast)

    def test_noise_free_tone_is_located_accurately(self):
        # A noise-free tone puts a nearly double root on the circle; the
        # companion eigensolve places it to ~0.1 Hz only, so the
        # certified root is checked against the tone itself.
        rng = np.random.default_rng(5)
        certified = 0
        for order in range(2, MAX_COVARIANCE_ORDER + 1):
            freq = rng.uniform(-FS / 2, FS / 2)
            signal = synthesize_beat_signal(freq, 1.0, N, FS, phase=rng.uniform(0, 6.0))
            fast = certified_frequency(signal, order)
            if fast is not None:
                assert frequency_gap(fast, freq) <= 1e-3, (order, fast, freq)
                certified += 1
        assert certified >= 1

    @staticmethod
    def laurent_from_pairs(order, pairs, peak=0.9):
        """Coefficients of a D with the given (radius, angle) root pairs,
        real on the unit circle and scaled to 0 <= D <= peak·M there."""
        roots = []
        for radius, angle in pairs:
            z = radius * np.exp(1j * angle)
            roots += [z, 1 / np.conj(z)]
        ascending = np.poly(roots)[::-1]
        omega = np.linspace(0.0, 2 * np.pi, 4096, endpoint=False)
        values = np.exp(1j * np.outer(omega, np.arange(1 - order, order))) @ ascending
        return ascending * (peak * order / values[np.argmax(np.abs(values))])

    def test_second_pair_in_the_main_lobe_is_refused(self):
        # Two root pairs 0.02 rad apart, 1e-3 and 1.5e-3 from the circle:
        # both lie in one main lobe, where only the contour check sees
        # the second one.
        coefficients = self.laurent_from_pairs(
            4, [(1 - 1e-3, 0.0), (1 - 1.5e-3, 0.02), (0.5, np.pi)]
        )
        assert _certified_root(coefficients) is None

    def test_second_pair_at_another_angle_is_refused(self):
        coefficients = self.laurent_from_pairs(
            4, [(1 - 1e-3, 0.0), (1 - 1.5e-3, 1.0), (0.5, np.pi)]
        )
        assert _certified_root(coefficients) is None

    def test_single_pair_near_the_circle_is_certified(self):
        coefficients = self.laurent_from_pairs(
            4, [(1 - 1e-3, 0.0), (0.7, 0.02), (0.5, np.pi)]
        )
        theta = _certified_root(coefficients)
        assert theta is not None
        assert theta.real == pytest.approx(0.0, abs=1e-9)
        assert np.exp(-theta.imag) == pytest.approx(1 - 1e-3, abs=1e-9)


def panel_segments(panel):
    """Every segment root-MUSIC sees in one defended signal run (seed 2017)."""
    factory = fig2_scenario if panel.startswith("fig2") else fig3_scenario
    scenario = factory("dos" if panel.endswith("a") else "delay", fidelity="signal")
    captured = []

    def record(signal, n_sources, sample_rate, covariance_order=None):
        captured.append((np.array(signal), covariance_order))
        return root_music(signal, n_sources, sample_rate, covariance_order)

    patch = pytest.MonkeyPatch()
    patch.setattr(receiver, "root_music", record)
    try:
        repro.run(scenario, defended=True)
    finally:
        patch.undo()
    return captured


@pytest.mark.parametrize("panel", ["fig2a", "fig2b", "fig3a", "fig3b"])
def test_panel_segments_match_exact_path(panel):
    segments = panel_segments(panel)
    assert len(segments) >= 500
    certified = 0
    for signal, order in segments:
        fast = certified_frequency(signal, order)
        if fast is not None:
            assert frequency_gap(fast, exact_frequency(signal, order)) <= ORACLE_TOLERANCE_HZ
            certified += 1
    # Only jammed segments (fig2a, fig3a) leave the one-root path.
    assert certified >= (0.5 if panel.endswith("a") else 0.99) * len(segments)


class TestExactPathCounter:
    def test_clean_segment_stays_on_the_one_root_path(self):
        with telemetry.session() as tele:
            root_music(tone(42e3), 1, FS)
        assert "radar.music_exact_path" not in tele.counters

    def test_pure_noise_takes_the_exact_path(self):
        noise = synthesize_beat_signal(
            0.0, 0.0, N, FS, rng=np.random.default_rng(3), noise_power=1.0
        )
        with telemetry.session() as tele:
            root_music(noise, 1, FS)
        assert tele.counters["radar.music_exact_path"] == 1

    def test_two_sources_are_not_counted(self):
        with telemetry.session() as tele:
            root_music(tone(42e3), 2, FS)
        assert "radar.music_exact_path" not in tele.counters
