"""Chirp-level FMCW mixing vs the direct beat model.

The sensor's ``"signal"`` fidelity synthesizes the *dechirped* beat
tone directly (DESIGN.md §3).  The reference implementation below is
the stage under it — the RF physics of the paper's §4.1: a triangular
chirp is transmitted, the echo returns delayed by ``τ``, and the mixer
multiplies it with the transmit chirp.  For a linear chirp of slope
``S`` from ``f0`` (transmit phase ``φ(t) = 2π (f0 t + S t²/2)``) the
mixer output is

    s_beat(t) = exp(j (φ(t) - φ(t - τ) + 2π f_D t))
              ≈ exp(j 2π ((S τ + f_D) t + f0 τ - S τ²/2))

a tone at ``S τ ± f_D``, the beat the direct synthesis produces.  These
tests check that both paths give the same extracted scene.
"""

from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.radar import FMCWParameters, RadarReceiver, beat_frequencies, root_music
from repro.radar.equations import round_trip_delay

PARAMS = FMCWParameters()

# ----------------------------------------------------------------------
# reference implementation: chirp mixing
# ----------------------------------------------------------------------


def chirp_phase(
    times: np.ndarray, start_frequency: float, slope: float
) -> np.ndarray:
    """Phase ``2π (f0 t + S t²/2)`` of a linear chirp, radians."""
    t = np.asarray(times, dtype=float)
    return 2.0 * np.pi * (start_frequency * t + 0.5 * slope * t * t)


def dechirped_echo(
    params: FMCWParameters,
    distance: float,
    relative_velocity: float,
    up_sweep: bool = True,
    amplitude: float = 1.0,
    n_samples: Optional[int] = None,
) -> np.ndarray:
    """Mix a delayed, Doppler-shifted echo against the transmit chirp.

    Works at baseband with the carrier handled analytically: the
    propagation delay contributes the range beat through the sweep
    slope, and the carrier phase rotation contributes the Doppler term
    ``2 v / λ``.  Positive ``relative_velocity`` means an opening gap
    (matching :mod:`repro.radar.equations`' convention).

    Returns the complex beat signal sampled at ``params.sample_rate``.
    """
    if distance <= 0.0:
        raise ValueError(f"distance must be positive, got {distance}")
    n = n_samples if n_samples is not None else params.samples_per_segment
    t = np.arange(n) / params.sample_rate
    slope = params.sweep_slope if up_sweep else -params.sweep_slope
    tau = round_trip_delay(distance)

    # Transmit phase minus delayed-echo phase (start frequency cancels
    # in the mixer up to the constant f0*tau term, kept for realism).
    f0 = params.carrier_frequency - (
        params.sweep_bandwidth / 2.0 if up_sweep else -params.sweep_bandwidth / 2.0
    )
    phase_range = (
        2.0 * np.pi * (slope * tau * t + f0 * tau - 0.5 * slope * tau * tau)
    )
    # Doppler from the moving target: the carrier picks up 2 v / λ.
    # An opening gap (positive relative velocity) lowers the received
    # frequency, i.e. subtracts from the up-sweep beat.
    doppler = 2.0 * relative_velocity / params.wavelength
    phase_doppler = -2.0 * np.pi * doppler * t
    signal = amplitude * np.exp(1j * (phase_range + phase_doppler))
    if not up_sweep:
        # Down-sweep mixer output sits at a negative baseband frequency;
        # the receiver's sideband-selection convention (Eqn 6 quotes the
        # positive magnitude) maps to conjugation of the IQ stream.
        signal = np.conj(signal)
    return signal


def dechirp_scene(
    params: FMCWParameters,
    distance: float,
    relative_velocity: float,
    amplitude: float = 1.0,
) -> "tuple[np.ndarray, np.ndarray]":
    """Both dechirped segments (up, down) of one target."""
    up = dechirped_echo(
        params, distance, relative_velocity, up_sweep=True, amplitude=amplitude
    )
    down = dechirped_echo(
        params, distance, relative_velocity, up_sweep=False, amplitude=amplitude
    )
    return up, down


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


class TestChirpPhase:
    def test_instantaneous_frequency_is_linear(self):
        fs = 10e6
        t = np.arange(1000) / fs
        phase = chirp_phase(t, start_frequency=1e5, slope=1e9)
        inst_freq = np.diff(phase) / (2.0 * np.pi) * fs
        assert inst_freq[0] == pytest.approx(1e5, rel=0.05)
        # Frequency grows linearly with slope S.
        assert np.diff(inst_freq).mean() == pytest.approx(1e9 / fs, rel=0.05)


class TestDechirpedEcho:
    @pytest.mark.parametrize(
        "distance,velocity", [(20.0, 0.0), (80.0, -3.0), (150.0, 10.0)]
    )
    def test_up_sweep_tone_matches_eqn5(self, distance, velocity):
        f_up, _ = beat_frequencies(PARAMS, distance, velocity)
        signal = dechirped_echo(PARAMS, distance, velocity, up_sweep=True)
        estimated = root_music(signal, 1, PARAMS.sample_rate)[0]
        assert estimated == pytest.approx(f_up, abs=50.0)

    @pytest.mark.parametrize(
        "distance,velocity", [(20.0, 0.0), (80.0, -3.0), (150.0, 10.0)]
    )
    def test_down_sweep_tone_matches_eqn6(self, distance, velocity):
        _, f_down = beat_frequencies(PARAMS, distance, velocity)
        signal = dechirped_echo(PARAMS, distance, velocity, up_sweep=False)
        estimated = root_music(signal, 1, PARAMS.sample_rate)[0]
        assert estimated == pytest.approx(f_down, abs=50.0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            dechirped_echo(PARAMS, 0.0, 0.0)


class TestSceneRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(
        st.floats(min_value=5.0, max_value=195.0),
        st.floats(min_value=-25.0, max_value=25.0),
    )
    def test_receiver_recovers_scene_from_mixed_chirps(self, distance, velocity):
        """Full physics path: chirp mixing → receiver → scene."""
        up, down = dechirp_scene(PARAMS, distance, velocity, amplitude=1.0)
        receiver = RadarReceiver(PARAMS, detection_threshold_factor=1.0 + 1e-9)
        output = receiver.process(up, down)
        assert output.present
        assert output.distance == pytest.approx(distance, abs=0.5)
        assert output.relative_velocity == pytest.approx(velocity, abs=0.3)

    def test_agrees_with_direct_beat_synthesis(self):
        """The sensor's shortcut and the physics path give the same scene."""
        from repro.radar.signal_synth import synthesize_beat_signal

        distance, velocity = 80.0, -3.0
        f_up, f_down = beat_frequencies(PARAMS, distance, velocity)
        direct_up = synthesize_beat_signal(
            f_up, 1.0, PARAMS.samples_per_segment, PARAMS.sample_rate, phase=0.0
        )
        physics_up = dechirped_echo(PARAMS, distance, velocity, up_sweep=True)
        f_direct = root_music(direct_up, 1, PARAMS.sample_rate)[0]
        f_physics = root_music(physics_up, 1, PARAMS.sample_rate)[0]
        assert f_physics == pytest.approx(f_direct, abs=20.0)
