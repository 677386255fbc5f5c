"""FMCW receiver: presence detection, beat extraction, Eqns 7-8 inversion.

The receiving unit of the radar sees the dechirped complex baseband for
the up-sweep and down-sweep segments.  It first decides whether *any*
signal is present (an energy detector against the thermal noise floor —
this is the primitive the CRA check builds on: at a challenge instant an
honest environment is *absent*), then extracts one beat frequency per
segment with root-MUSIC and inverts them to distance and relative
velocity.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import SpectralEstimationError
from repro.radar.cfar import SpectralPresenceDetector
from repro.radar.equations import invert_beat_frequencies
from repro.radar.music import MAX_COVARIANCE_ORDER, estimate_single_tone, root_music
from repro.radar.params import FMCWParameters
from repro.radar.signal_synth import signal_power

__all__ = [
    "ReceiverOutput",
    "RadarReceiver",
    "TargetDetection",
    "MultiTargetResolver",
]


@dataclass(frozen=True)
class ReceiverOutput:
    """What the receiving unit reports for one sample instant.

    ``present`` is False when the received energy is indistinguishable
    from the thermal floor, in which case every derived quantity is 0.
    """

    present: bool
    power: float
    beat_freq_up: float
    beat_freq_down: float
    distance: float
    relative_velocity: float


class RadarReceiver:
    """Energy detection + root-MUSIC beat extraction + Eqns 7-8.

    Parameters
    ----------
    params:
        Radar parameter set (supplies noise floor, sample rate, and the
        sweep constants for the inversion).
    detection_threshold_factor:
        The energy detector declares a signal present when the measured
        per-sample power exceeds ``factor * noise_floor``.  The factor
        trades missed echoes (too high) against noise-triggered false
        presence (too low); 4x (≈6 dB) keeps both negligible for the
        LRR2 SNR envelope.
    covariance_order:
        Forwarded to :func:`repro.radar.music.root_music` (capped at a
        third of the segment length); an int in
        ``2..MAX_COVARIANCE_ORDER``, since one beat is extracted per
        segment.
    presence:
        ``"energy"`` (fixed threshold against the known thermal floor;
        default) or ``"cfar"`` (cell-averaging CFAR over the beat
        spectrum — adapts to a drifting interference floor; see
        :mod:`repro.radar.cfar`).
    """

    def __init__(
        self,
        params: FMCWParameters,
        detection_threshold_factor: float = 4.0,
        covariance_order: int = 24,
        presence: str = "energy",
    ):
        if detection_threshold_factor <= 1.0:
            raise ValueError(
                "detection_threshold_factor must exceed 1 (the noise floor), "
                f"got {detection_threshold_factor}"
            )
        if (
            isinstance(covariance_order, bool)
            or not isinstance(covariance_order, Integral)
            or not 1 < covariance_order <= MAX_COVARIANCE_ORDER
        ):
            raise ValueError(
                "covariance_order must be an int in "
                f"2..{MAX_COVARIANCE_ORDER}, got {covariance_order!r}"
            )
        if presence not in ("energy", "cfar"):
            raise ValueError(
                f"presence must be 'energy' or 'cfar', got {presence!r}"
            )
        self.params = params
        self.detection_threshold_factor = detection_threshold_factor
        self.covariance_order = covariance_order
        self.presence = presence
        # Strict Pfa: with ~2*256 cells examined per instant, 1e-6 keeps
        # the per-instant false-presence rate (which would be a CRA
        # false positive at challenge instants) around 5e-4.
        self._cfar = (
            SpectralPresenceDetector(probability_false_alarm=1e-6)
            if presence == "cfar"
            else None
        )

    @property
    def detection_threshold(self) -> float:
        """Absolute presence threshold in watts."""
        return self.detection_threshold_factor * self.params.noise_floor

    def _presence(self, up: np.ndarray, down: np.ndarray) -> "tuple[float, bool]":
        """Mean per-sample power of the two segments, and whether anything
        but the thermal floor reached the receiver."""
        power = 0.5 * (signal_power(up) + signal_power(down))
        if self._cfar is not None:
            return power, self._cfar.detect(up).present or self._cfar.detect(down).present
        return power, not power < self.detection_threshold

    def _extract_frequency(self, segment: np.ndarray) -> float:
        """Beat frequency of one segment, root-MUSIC with FFT fallback.

        Each FFT fallback bumps the ``radar.music_fallbacks`` counter (a
        root-MUSIC call that leaves its one-root path bumps
        ``radar.music_exact_path`` instead).  A NaN or infinite sample
        raises :class:`ValueError` from root-MUSIC: no estimate of such a
        segment is trustworthy, so none is substituted.
        """
        try:
            freqs = root_music(
                segment,
                n_sources=1,
                sample_rate=self.params.sample_rate,
                covariance_order=min(self.covariance_order, len(segment) // 3),
            )
            return float(freqs[0])
        except SpectralEstimationError:
            _telemetry.incr("radar.music_fallbacks")
            return estimate_single_tone(segment, self.params.sample_rate)

    def process(self, up_segment: np.ndarray, down_segment: np.ndarray) -> ReceiverOutput:
        """Process one pair of dechirped sweep segments.

        Returns a :class:`ReceiverOutput`; when no energy above the
        presence threshold is found the receiver reports a zero output
        (the behaviour the CRA detector checks at challenge instants).
        """
        up = np.asarray(up_segment, dtype=complex)
        down = np.asarray(down_segment, dtype=complex)
        power, present = self._presence(up, down)
        if not present:
            return ReceiverOutput(
                present=False,
                power=power,
                beat_freq_up=0.0,
                beat_freq_down=0.0,
                distance=0.0,
                relative_velocity=0.0,
            )
        f_up = self._extract_frequency(up)
        f_down = self._extract_frequency(down)
        distance, relative_velocity = invert_beat_frequencies(self.params, f_up, f_down)
        return ReceiverOutput(
            present=True,
            power=power,
            beat_freq_up=f_up,
            beat_freq_down=f_down,
            distance=distance,
            relative_velocity=relative_velocity,
        )

    def process_multi(
        self,
        up_segment: np.ndarray,
        down_segment: np.ndarray,
        n_targets: int,
    ) -> "list[TargetDetection]":
        """Resolve ``n_targets`` targets from one pair of segments.

        Extracts ``n_targets`` beat frequencies per sweep direction with
        root-MUSIC and resolves the up/down association with
        :class:`MultiTargetResolver` (ghost pairings are implausible and
        score poorly).  Returns targets sorted by distance; an empty
        list when nothing clears the presence threshold.
        """
        if n_targets < 1:
            raise ValueError(f"n_targets must be >= 1, got {n_targets}")
        up = np.asarray(up_segment, dtype=complex)
        down = np.asarray(down_segment, dtype=complex)
        if not self._presence(up, down)[1]:
            return []
        ups = root_music(
            up, n_targets, self.params.sample_rate,
            covariance_order=min(self.covariance_order, len(up) // 3),
        )
        downs = root_music(
            down, n_targets, self.params.sample_rate,
            covariance_order=min(self.covariance_order, len(down) // 3),
        )
        return MultiTargetResolver(self.params).pair(ups, downs)


@dataclass(frozen=True)
class TargetDetection:
    """One resolved target of a multi-target scene."""

    distance: float
    relative_velocity: float
    beat_freq_up: float
    beat_freq_down: float


def _pairing_penalty(
    params: FMCWParameters,
    distance: float,
    velocity: float,
    max_speed: float,
) -> float:
    """Implausibility score of one candidate (distance, velocity)."""
    penalty = 0.0
    if distance < params.min_range:
        penalty += (params.min_range - distance) ** 2
    if distance > params.max_range:
        penalty += (distance - params.max_range) ** 2
    if abs(velocity) > max_speed:
        penalty += (abs(velocity) - max_speed) ** 2 * 100.0
    # Prefer modest speeds among plausible pairings (ghosts typically
    # invert to extreme velocities).
    penalty += (velocity / max_speed) ** 2
    return penalty


class MultiTargetResolver:
    """Pair up-sweep and down-sweep beat frequencies for N targets.

    A triangular FMCW waveform measures each target twice — once per
    sweep direction — but the association between up-beats and
    down-beats is not observed.  Wrong associations create *ghost
    targets* whose inverted (distance, velocity) are typically
    physically implausible; the resolver scores every permutation of
    the pairing (N is small) and keeps the most plausible one.

    Parameters
    ----------
    params:
        Radar configuration (range envelope for the plausibility score).
    max_speed:
        Largest plausible |relative velocity|, m/s.
    """

    def __init__(self, params: FMCWParameters, max_speed: float = 70.0):
        if max_speed <= 0.0:
            raise ValueError(f"max_speed must be positive, got {max_speed}")
        self.params = params
        self.max_speed = float(max_speed)

    def pair(
        self, up_frequencies: np.ndarray, down_frequencies: np.ndarray
    ) -> "list[TargetDetection]":
        """Resolve the best pairing of the two beat-frequency sets."""
        from itertools import permutations

        ups = np.asarray(up_frequencies, dtype=float)
        downs = np.asarray(down_frequencies, dtype=float)
        if ups.size != downs.size:
            raise ValueError(
                f"need equally many up and down beats, got {ups.size} "
                f"and {downs.size}"
            )
        if ups.size == 0:
            return []
        best_score = None
        best: "list[TargetDetection]" = []
        for order in permutations(range(downs.size)):
            candidates = []
            score = 0.0
            for i, j in enumerate(order):
                distance, velocity = invert_beat_frequencies(
                    self.params, float(ups[i]), float(downs[j])
                )
                score += _pairing_penalty(
                    self.params, distance, velocity, self.max_speed
                )
                candidates.append(
                    TargetDetection(
                        distance=distance,
                        relative_velocity=velocity,
                        beat_freq_up=float(ups[i]),
                        beat_freq_down=float(downs[j]),
                    )
                )
            if best_score is None or score < best_score:
                best_score = score
                best = candidates
        return sorted(best, key=lambda t: t.distance)
