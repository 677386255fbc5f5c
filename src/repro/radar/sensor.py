"""End-to-end FMCW radar sensor with CRA modulation and attack hooks.

:class:`FMCWRadarSensor` glues the substrate together: at each discrete
sample instant it takes the *true* scene (distance and relative velocity
of the leader), the CRA transmit decision (``m(k)``), and the currently
active attack's :class:`AttackEffect`, and produces the
:class:`~repro.types.RadarMeasurement` the control system receives.

Two fidelity modes exist (DESIGN.md §7):

``"signal"``
    Full chain — synthesize the dechirped up/down beat segments (echo,
    counterfeit, jamming noise, thermal noise) at link-budget powers,
    run the energy detector and root-MUSIC, invert Eqns 7-8.
``"equation"``
    Direct Eqns 5-8 with Gaussian measurement noise and the same attack
    semantics (jamming success decided by Eqn 11's power comparison,
    spurious frequencies drawn uniformly below Nyquist).  Two to three
    orders of magnitude faster; used for long parameter sweeps.

Both modes corrupt measurements identically in distribution, so the
defense pipeline behaves the same on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError
from repro.radar.equations import beat_frequencies, invert_beat_frequencies
from repro.radar.link_budget import received_power
from repro.radar.params import FMCWParameters
from repro.radar.receiver import RadarReceiver
from repro.radar.signal_synth import combine_components, complex_awgn, synthesize_beat_signal
from repro.types import RadarMeasurement, SensorStatus

__all__ = ["AttackEffect", "FMCWRadarSensor"]


@dataclass(frozen=True)
class AttackEffect:
    """What an active attack injects into the radar front end at one instant.

    Produced by the attack models in :mod:`repro.attacks`; consumed by
    the sensor.  A DoS attack sets ``jammer_noise_power``; a delay
    injection sets the spoof offsets and ``replace_echo`` (the
    counterfeit is transmitted with enough power to capture the
    receiver, per §4.1: "correct sensor measurements are suppressed with
    a stronger signal").

    Attributes
    ----------
    spoof_distance_offset:
        Extra apparent distance (m) created by the injected delay.
    spoof_velocity_offset:
        Extra apparent relative velocity (m/s) of the counterfeit.
    replace_echo:
        When True the counterfeit overrides the true echo (the attacker
        replays a stronger, similar-characteristics signal).
    jammer_noise_power:
        Jamming power, in watts, received inside the radar band (Eqn 10).
    counterfeit_power_gain:
        Counterfeit power relative to the true echo power (> 1 so the
        receiver locks onto the counterfeit).
    """

    spoof_distance_offset: float = 0.0
    spoof_velocity_offset: float = 0.0
    replace_echo: bool = False
    jammer_noise_power: float = 0.0
    counterfeit_power_gain: float = 4.0

    @property
    def is_jamming(self) -> bool:
        """True when this effect includes jamming noise."""
        return self.jammer_noise_power > 0.0

    @property
    def is_spoofing(self) -> bool:
        """True when this effect includes a counterfeit echo."""
        return self.replace_echo or self.spoof_distance_offset != 0.0 or (
            self.spoof_velocity_offset != 0.0
        )


class FMCWRadarSensor:
    """The follower vehicle's long-range radar (paper §4.1, §6).

    Parameters
    ----------
    params:
        Radar configuration; defaults to the Bosch LRR2 preset.
    fidelity:
        ``"signal"`` or ``"equation"`` (see module docstring).
    seed:
        Seed for all stochastic components (noise, phases, spurs).
    distance_noise_std, velocity_noise_std:
        Gaussian measurement noise used by the equation-fidelity path
        (the signal path derives its noise from the link budget).  The
        defaults match long-range automotive radar accuracy specs
        (~0.25 m range, ~0.12 m/s velocity).
    receiver:
        Optional pre-configured receiver; built from ``params`` if None.
    dropout_rate:
        Probability that a nominal (probe-sent, target-visible) instant
        produces a missed detection (zero output) anyway — fading,
        multipath, occlusion.  Failure-injection knob; 0 by default.
    """

    def __init__(
        self,
        params: Optional[FMCWParameters] = None,
        fidelity: str = "equation",
        seed: Optional[int] = None,
        distance_noise_std: float = 0.25,
        velocity_noise_std: float = 0.12,
        receiver: Optional[RadarReceiver] = None,
        dropout_rate: float = 0.0,
    ):
        if fidelity not in ("signal", "equation"):
            raise ConfigurationError(
                f"fidelity must be 'signal' or 'equation', got {fidelity!r}"
            )
        if distance_noise_std < 0.0 or velocity_noise_std < 0.0:
            raise ConfigurationError("noise standard deviations must be >= 0")
        if not 0.0 <= dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must be in [0, 1), got {dropout_rate}"
            )
        self.params = params if params is not None else FMCWParameters()
        self.fidelity = fidelity
        self.rng = np.random.default_rng(seed)
        self.distance_noise_std = distance_noise_std
        self.velocity_noise_std = velocity_noise_std
        self.dropout_rate = float(dropout_rate)
        self.receiver = receiver if receiver is not None else RadarReceiver(self.params)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def measure(
        self,
        time: float,
        true_distance: float,
        true_relative_velocity: float,
        transmit: bool = True,
        effect: Optional[AttackEffect] = None,
    ) -> RadarMeasurement:
        """Produce the receiver's measurement for one sample instant.

        Parameters
        ----------
        time:
            Discrete sample time ``k`` in seconds (recorded on the
            measurement; not used by the physics).
        true_distance, true_relative_velocity:
            Ground-truth scene geometry.
        transmit:
            The CRA modulation value ``m(k)``: False at challenge
            instants, in which case no probe (and hence no true echo)
            exists — but attacker-injected energy still arrives.
        effect:
            The active attack's injection, or None.
        """
        tele = _telemetry.current()
        if tele is not None:
            tele.incr("radar.measurements")
            if not transmit:
                tele.incr("radar.challenges")
            if effect is not None:
                tele.incr("radar.attacked_instants")
        dropped = (
            transmit
            and self.dropout_rate > 0.0
            and (effect is None or not effect.is_jamming)
            and self.rng.random() < self.dropout_rate
        )
        if dropped:
            if tele is not None:
                tele.incr("radar.dropouts")
            # Missed detection: the echo faded below the receiver's
            # threshold this instant (attacker jamming energy, when
            # present, still reaches the receiver and is never dropped).
            return RadarMeasurement(
                time=time,
                distance=0.0,
                relative_velocity=0.0,
                received_power=self.params.noise_floor,
                status=SensorStatus.NOMINAL,
            )
        if self.fidelity == "signal":
            return self._measure_signal(
                time, true_distance, true_relative_velocity, transmit, effect
            )
        return self._measure_equation(
            time, true_distance, true_relative_velocity, transmit, effect
        )

    def snapshot(self) -> object:
        """The noise generator's state (the sensor's only per-run state)."""
        return self.rng.bit_generator.state

    def restore(self, snapshot: object) -> None:
        """Resume the noise stream from a :meth:`snapshot`."""
        self.rng.bit_generator.state = snapshot

    def target_in_envelope(self, distance: float) -> bool:
        """True when a target at ``distance`` is inside the operating range."""
        return self.params.min_range <= distance <= self.params.max_range

    # ------------------------------------------------------------------
    # signal-fidelity path
    # ------------------------------------------------------------------

    def _measure_signal(
        self,
        time: float,
        true_distance: float,
        true_relative_velocity: float,
        transmit: bool,
        effect: Optional[AttackEffect],
    ) -> RadarMeasurement:
        params = self.params
        n = params.samples_per_segment
        fs = params.sample_rate
        status = SensorStatus.NOMINAL if transmit else SensorStatus.CHALLENGE

        up_parts = []
        down_parts = []

        target_visible = self.target_in_envelope(true_distance)
        echo_power = (
            received_power(params, true_distance) if target_visible else 0.0
        )
        echo_suppressed = effect is not None and effect.replace_echo

        if transmit and target_visible and not echo_suppressed:
            f_up, f_down = beat_frequencies(
                params, true_distance, true_relative_velocity
            )
            up_parts.append(
                synthesize_beat_signal(f_up, echo_power, n, fs, rng=self.rng)
            )
            down_parts.append(
                synthesize_beat_signal(f_down, echo_power, n, fs, rng=self.rng)
            )

        if effect is not None and effect.is_spoofing:
            # The counterfeit is a replay of earlier probes, so it arrives
            # whether or not the radar transmitted at this instant — this
            # is exactly what the CRA challenge exposes.
            spoof_distance = true_distance + effect.spoof_distance_offset
            spoof_velocity = true_relative_velocity + effect.spoof_velocity_offset
            reference_power = echo_power if echo_power > 0.0 else received_power(
                params, max(params.min_range, min(spoof_distance, params.max_range))
            )
            counterfeit_power = reference_power * effect.counterfeit_power_gain
            f_up, f_down = beat_frequencies(params, spoof_distance, spoof_velocity)
            up_parts.append(
                synthesize_beat_signal(f_up, counterfeit_power, n, fs, rng=self.rng)
            )
            down_parts.append(
                synthesize_beat_signal(f_down, counterfeit_power, n, fs, rng=self.rng)
            )

        jam_power = effect.jammer_noise_power if effect is not None else 0.0
        noise_power = params.noise_floor + jam_power
        up_parts.append(complex_awgn(n, noise_power, self.rng))
        down_parts.append(complex_awgn(n, noise_power, self.rng))

        up_signal = combine_components(up_parts)
        down_signal = combine_components(down_parts)
        output = self.receiver.process(up_signal, down_signal)
        return RadarMeasurement(
            time=time,
            distance=output.distance,
            relative_velocity=output.relative_velocity,
            beat_freq_up=output.beat_freq_up,
            beat_freq_down=output.beat_freq_down,
            received_power=output.power,
            status=status,
        )

    # ------------------------------------------------------------------
    # equation-fidelity path
    # ------------------------------------------------------------------

    def _spurious_measurement(self) -> "tuple[float, float, float, float]":
        """Jammer-noise-driven spurious reading (uniform beat spurs).

        Under successful jamming the subspace estimator locks onto noise
        peaks; the resulting beat frequencies are uniformly distributed
        below Nyquist, producing the large erratic distance/velocity
        readings of the paper's Figures 2a/3a.
        """
        nyquist = self.params.sample_rate / 2.0
        f_up = float(self.rng.uniform(0.0, 0.9 * nyquist))
        f_down = float(self.rng.uniform(0.0, 0.9 * nyquist))
        distance, velocity = invert_beat_frequencies(self.params, f_up, f_down)
        return distance, velocity, f_up, f_down

    def _measure_equation(
        self,
        time: float,
        true_distance: float,
        true_relative_velocity: float,
        transmit: bool,
        effect: Optional[AttackEffect],
    ) -> RadarMeasurement:
        params = self.params
        status = SensorStatus.NOMINAL if transmit else SensorStatus.CHALLENGE
        target_visible = self.target_in_envelope(true_distance)
        echo_power = received_power(params, true_distance) if target_visible else 0.0

        jam_power = effect.jammer_noise_power if effect is not None else 0.0
        jamming_wins = jam_power > 0.0 and (not transmit or jam_power > echo_power)
        spoofing = effect is not None and effect.is_spoofing

        if jamming_wins:
            distance, velocity, f_up, f_down = self._spurious_measurement()
            return RadarMeasurement(
                time=time,
                distance=distance,
                relative_velocity=velocity,
                beat_freq_up=f_up,
                beat_freq_down=f_down,
                received_power=jam_power,
                status=status,
            )

        if spoofing:
            # Counterfeit replay: present at challenge instants too.
            spoof_distance = true_distance + effect.spoof_distance_offset
            spoof_velocity = true_relative_velocity + effect.spoof_velocity_offset
            distance = spoof_distance + self.rng.normal(0.0, self.distance_noise_std)
            velocity = spoof_velocity + self.rng.normal(0.0, self.velocity_noise_std)
            f_up, f_down = beat_frequencies(params, spoof_distance, spoof_velocity)
            power = echo_power * (effect.counterfeit_power_gain if effect else 1.0)
            return RadarMeasurement(
                time=time,
                distance=distance,
                relative_velocity=velocity,
                beat_freq_up=f_up,
                beat_freq_down=f_down,
                received_power=power,
                status=status,
            )

        if not transmit or not target_visible:
            # Challenge instant with an honest environment, or no target:
            # the receiver hears only the thermal floor → zero output.
            return RadarMeasurement(
                time=time,
                distance=0.0,
                relative_velocity=0.0,
                beat_freq_up=0.0,
                beat_freq_down=0.0,
                received_power=params.noise_floor,
                status=status,
            )

        distance = true_distance + self.rng.normal(0.0, self.distance_noise_std)
        velocity = true_relative_velocity + self.rng.normal(0.0, self.velocity_noise_std)
        f_up, f_down = beat_frequencies(params, true_distance, true_relative_velocity)
        return RadarMeasurement(
            time=time,
            distance=distance,
            relative_velocity=velocity,
            beat_freq_up=f_up,
            beat_freq_down=f_down,
            received_power=echo_power,
            status=status,
        )
