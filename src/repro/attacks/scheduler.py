"""Composition of multiple attacks over a simulation horizon.

A scenario may stage several attacks (e.g. a jamming burst followed by a
spoofing campaign).  :class:`AttackSchedule` aggregates them and resolves
which injection reaches the radar at each instant.  Overlapping attacks
compose: jamming powers add, and the strongest spoof wins (a receiver
captured by the highest-power counterfeit).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.attacks.base import Attack
from repro.radar.sensor import AttackEffect
from repro.types import AttackLabel

__all__ = ["AttackSchedule"]


class AttackSchedule:
    """An ordered collection of attacks treated as one composite attack."""

    def __init__(self, attacks: Optional[Iterable[Attack]] = None):
        self._attacks: List[Attack] = list(attacks) if attacks is not None else []

    def add(self, attack: Attack) -> "AttackSchedule":
        """Append an attack; returns self for chaining."""
        self._attacks.append(attack)
        return self

    @property
    def attacks(self) -> Sequence[Attack]:
        """The registered attacks, in insertion order."""
        return tuple(self._attacks)

    @property
    def label(self) -> AttackLabel:
        """Ground-truth label of the earliest-starting attack (NONE if empty)."""
        if not self._attacks:
            return AttackLabel.NONE
        return min(self._attacks, key=lambda a: a.window.start).label

    def is_active(self, time: float) -> bool:
        """True when any registered attack is active at ``time``."""
        return any(a.is_active(time) for a in self._attacks)

    def active_labels(self, time: float) -> List[AttackLabel]:
        """Ground-truth labels of all attacks active at ``time``."""
        return [a.label for a in self._attacks if a.is_active(time)]

    def effect_at(
        self,
        time: float,
        true_distance: float,
        true_relative_velocity: float = 0.0,
    ) -> Optional[AttackEffect]:
        """Resolve the composite injection at ``time`` (None when dormant)."""
        effects = [
            e
            for a in self._attacks
            if (e := a.effect_at(time, true_distance, true_relative_velocity))
            is not None
        ]
        if not effects:
            return None
        if len(effects) == 1:
            return effects[0]
        total_jam = sum(e.jammer_noise_power for e in effects)
        spoofs = [e for e in effects if e.is_spoofing]
        if spoofs:
            strongest = max(spoofs, key=lambda e: e.counterfeit_power_gain)
            return AttackEffect(
                spoof_distance_offset=strongest.spoof_distance_offset,
                spoof_velocity_offset=strongest.spoof_velocity_offset,
                replace_echo=any(e.replace_echo for e in spoofs),
                jammer_noise_power=total_jam,
                counterfeit_power_gain=strongest.counterfeit_power_gain,
            )
        return AttackEffect(jammer_noise_power=total_jam)

    def earliest_onset(self) -> Optional[float]:
        """Start time of the first attack, or None when empty."""
        if not self._attacks:
            return None
        return min(a.window.start for a in self._attacks)
