"""Adaptive challenge scheduling — probe faster while under attack.

With the paper's static schedule, *ending* an attack is only noticed at
the next scheduled challenge, so the system keeps flying on estimates
for up to a full challenge interval after the attacker stops.  An
adaptive policy removes that lag: while the alarm is raised, the radar
challenges every ``alert_period`` seconds (probe duty cycle is cheap
when measurements are being discarded anyway — the controller is
running on estimates), and returns to the quiet base schedule once a
clean challenge clears the alarm.

Security note: the *base* schedule stays pseudo-random and secret; the
accelerated challenges only occur after detection, when the attacker's
presence is already known, so the adaptation leaks nothing exploitable
before an attack.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.cra import ChallengeSchedule

__all__ = ["AdaptiveChallengePolicy"]


class AdaptiveChallengePolicy:
    """Stateful challenge decisions: base schedule + alert-mode probing.

    The engine calls :meth:`decide` exactly once per sample instant
    (before producing the measurement); the recorded decision is then
    served to the CRA detector through the schedule-compatible
    :meth:`is_challenge`, so modulator and detector always agree.

    Parameters
    ----------
    base_schedule:
        The quiet-time pseudo-random schedule (the secret).
    alert_period:
        Challenge spacing while the alarm is active, seconds.
    """

    def __init__(self, base_schedule: ChallengeSchedule, alert_period: float = 2.0):
        if alert_period <= 0.0:
            raise ValueError(f"alert_period must be positive, got {alert_period}")
        self.base_schedule = base_schedule
        self.alert_period = float(alert_period)
        self._decisions: Dict[float, bool] = {}
        self._last_alert_challenge: Optional[float] = None

    def decide(self, time: float, alarm_active: bool) -> bool:
        """Decide (and record) whether to challenge at ``time``."""
        challenge = self.base_schedule.is_challenge(time)
        if alarm_active:
            due = (
                self._last_alert_challenge is None
                or time - self._last_alert_challenge >= self.alert_period
            )
            challenge = challenge or due
        else:
            self._last_alert_challenge = None
        if challenge and alarm_active:
            self._last_alert_challenge = time
        self._decisions[time] = challenge
        return challenge

    def snapshot(self) -> object:
        """The recorded decisions and the alert-mode clock."""
        return dict(self._decisions), self._last_alert_challenge

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        decisions, self._last_alert_challenge = snapshot  # type: ignore[misc]
        self._decisions = dict(decisions)

    def is_challenge(self, time: float, tolerance: float = 1e-9) -> bool:
        """Schedule-compatible view of the recorded decisions.

        Falls back to the base schedule for instants never decided
        (e.g. detector queries outside the simulated horizon).
        """
        if time in self._decisions:
            return self._decisions[time]
        return self.base_schedule.is_challenge(time, tolerance)

    def next_challenge_at_or_after(self, time: float) -> Optional[float]:
        """Forwarded to the base schedule (the static latency bound)."""
        return self.base_schedule.next_challenge_at_or_after(time)

    @property
    def times(self):
        """Challenge instants decided so far plus the base schedule."""
        decided = {t for t, is_c in self._decisions.items() if is_c}
        return tuple(sorted(decided | set(self.base_schedule.times)))

    def __len__(self) -> int:
        return len(self.times)
