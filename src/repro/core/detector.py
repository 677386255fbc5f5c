"""CRA attack detection — Algorithm 2, lines 7-9 and 13-15 (paper §5.2).

At each challenge instant ``k ∈ T_c`` the radar transmitted nothing, so
an honest environment yields a zero receiver output.  The detector
compares the actual output against that expectation:

    if y'_k ∈ list_zero  and  Val(y'_k) != 0:  attack detected

A DoS jammer cannot stop transmitting at instants it does not know
about, and a replay attacker's counterfeit (delayed by construction) is
also still in flight — so both attacks light up at the first challenge
at or after their onset, with no false positives in between (the paper
reports exactly zero FP/FN).

The detector also implements the recovery branch (Algorithm 2 lines
13-15): once an attack has been flagged, a later challenge instant with
a zero output clears the alarm and normal operation resumes.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.cra import ChallengeSchedule
from repro.types import DetectionEvent, RadarMeasurement

__all__ = ["CRADetector"]


class CRADetector:
    """Stateful challenge-response detector over a measurement stream.

    Parameters
    ----------
    schedule:
        The challenge instants the radar's modulator suppressed.
    zero_tolerance:
        Magnitude below which a receiver output counts as zero.  The
        receiver's energy detector already squelches sub-noise-floor
        inputs to an exact zero, so this only needs to absorb numeric
        dust.
    """

    def __init__(self, schedule: ChallengeSchedule, zero_tolerance: float = 1e-6):
        if zero_tolerance < 0.0:
            raise ValueError(f"zero_tolerance must be >= 0, got {zero_tolerance}")
        self.schedule = schedule
        self.zero_tolerance = zero_tolerance
        self._attack_active = False
        self._events: List[DetectionEvent] = []
        self._detection_times: List[float] = []

    @property
    def attack_active(self) -> bool:
        """Current alarm state (the paper's ``attack_detect`` flag)."""
        return self._attack_active

    @property
    def events(self) -> List[DetectionEvent]:
        """All challenge-instant verdicts so far, in order."""
        return list(self._events)

    @property
    def detection_times(self) -> List[float]:
        """Instants at which the alarm transitioned from clear to raised."""
        return list(self._detection_times)

    @property
    def first_detection_time(self) -> Optional[float]:
        """The paper's ``t_ad``: first time an attack was flagged."""
        return self._detection_times[0] if self._detection_times else None

    def reset(self) -> None:
        """Clear alarm state and history."""
        self._attack_active = False
        self._events = []
        self._detection_times = []

    def snapshot(self) -> object:
        """Alarm state plus copies of the verdict history."""
        return (
            self._attack_active, list(self._events), list(self._detection_times)
        )

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        active, events, detection_times = snapshot  # type: ignore[misc]
        self._attack_active = active
        self._events = list(events)
        self._detection_times = list(detection_times)

    def process(self, measurement: RadarMeasurement) -> Optional[DetectionEvent]:
        """Examine one measurement; returns a verdict at challenge instants.

        Non-challenge measurements carry no authentication information
        and return None without changing the alarm state.
        """
        if not self.schedule.is_challenge(measurement.time):
            return None
        output_magnitude = max(
            abs(measurement.distance), abs(measurement.relative_velocity)
        )
        nonzero = not measurement.is_zero_output(self.zero_tolerance)
        event = DetectionEvent(
            time=measurement.time,
            attack_detected=nonzero,
            receiver_output=output_magnitude,
        )
        self._events.append(event)
        if nonzero and not self._attack_active:
            self._attack_active = True
            self._detection_times.append(measurement.time)
        elif not nonzero and self._attack_active:
            # Algorithm 2 lines 13-15: a clean challenge response means
            # the attack has ended; resume trusting the sensor.
            self._attack_active = False
        return event
