"""Control-barrier safety filter on the commanded acceleration.

The detection/estimation track keeps the *measurements* honest; this
module instead constrains the *actuation*, so a spoofed gap cannot talk
the follower into closing below the safe distance even when detection
is delayed or disabled (the "secure safety filter" idea of Tan et al.;
see PAPERS.md).

Barrier function, in the trusted quantities plus the certified gap::

    h(k) = ĝ(k) − d_min − τ·v_F(k)

with ``ĝ`` the certified gap (below), ``d_min`` the standstill margin
and ``τ`` a safety headway (smaller than the ACC's comfort headway, so
the filter only binds when the ACC is already being deceived).  The
discrete CBF condition ``h(k+1) ≥ (1 − γ)·h(k)`` under the one-step
kinematics ``v_F⁺ = v_F + T·u``, ``ĝ⁺ = ĝ + T·Δv̂ − T²/2·u`` yields the
admissible-acceleration bound

    u ≤ (γ·h + T·Δv̂) / (τ·T + T²/2)

and the filter clamps the controller's desired acceleration to it.

**Certified gap.**  Feeding the raw (possibly spoofed) gap into ``h``
would let an attacker disable the filter by spoofing *high*.  The filter
therefore maintains a one-sided track: the certified gap follows the
measured gap freely *downwards* (being too pessimistic is safe) but may
grow no faster than physics allows — per step at most
``T·max(0, Δv̂) + a_L·T²/2`` where the certified relative velocity
``Δv̂`` is itself capped so the implied leader velocity rises at most
``a_L·T`` per step (``a_L`` = ``leader_accel_bound``).  Jump spoofs
(the +6 m delay offset, DoS spurious highs) are flatly ignored;
a slow ramp *below* the physical rate is indistinguishable from a real
leader pulling away and is the documented residual exposure.  On clean
data the measured gap always satisfies the cap, so the track re-anchors
to the sensor every step and the filter is exactly transparent.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["SafetyFilter"]


class SafetyFilter:
    """Clamp commanded acceleration to the certified-gap CBF bound.

    Parameters
    ----------
    sample_period:
        Control period ``T``, seconds.
    headway:
        Safety headway ``τ`` of the barrier, seconds.  Keep it below
        the ACC's comfort headway or the filter fights the controller
        on clean data.
    minimum_gap:
        Standstill margin ``d_min`` the barrier defends, metres.
    gamma:
        CBF decay rate in ``(0, 1]``; 1 forbids any decrease of ``h``.
    leader_accel_bound:
        Assumed maximum physical leader acceleration ``a_L``, m/s² —
        the rate limit of the certified track.
    min_acceleration:
        Actuator floor, m/s²; the clamp never commands below it.
    """

    def __init__(
        self,
        sample_period: float = 1.0,
        headway: float = 1.5,
        minimum_gap: float = 5.0,
        gamma: float = 0.5,
        leader_accel_bound: float = 2.5,
        min_acceleration: float = -5.0,
    ):
        if sample_period <= 0.0:
            raise ConfigurationError(
                f"sample_period must be positive, got {sample_period}"
            )
        if headway < 0.0:
            raise ConfigurationError(f"headway must be >= 0, got {headway}")
        if minimum_gap < 0.0:
            raise ConfigurationError(
                f"minimum_gap must be >= 0, got {minimum_gap}"
            )
        if not 0.0 < gamma <= 1.0:
            raise ConfigurationError(f"gamma must lie in (0, 1], got {gamma}")
        if leader_accel_bound < 0.0:
            raise ConfigurationError(
                f"leader_accel_bound must be >= 0, got {leader_accel_bound}"
            )
        self.sample_period = float(sample_period)
        self.headway = float(headway)
        self.minimum_gap = float(minimum_gap)
        self.gamma = float(gamma)
        self.leader_accel_bound = float(leader_accel_bound)
        self.min_acceleration = float(min_acceleration)
        self._certified_gap: Optional[float] = None
        self._certified_leader_speed: Optional[float] = None
        #: Steps where the clamp actually reduced the commanded accel.
        self.interventions = 0
        #: Steps processed in total.
        self.steps = 0
        #: Steps where a measured gap exceeded the physical growth cap.
        self.rejected_jumps = 0
        #: The admissible bound computed at the last step (None = never).
        self.last_bound: Optional[float] = None

    def snapshot(self) -> Tuple:
        """The certified track and the step counters, for :meth:`restore`."""
        return (
            self._certified_gap,
            self._certified_leader_speed,
            self.interventions,
            self.steps,
            self.rejected_jumps,
            self.last_bound,
        )

    def restore(self, snapshot: Tuple) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        (
            self._certified_gap,
            self._certified_leader_speed,
            self.interventions,
            self.steps,
            self.rejected_jumps,
            self.last_bound,
        ) = snapshot

    # ------------------------------------------------------------------

    @property
    def certified_gap(self) -> Optional[float]:
        """Current certified gap, metres (None before the first sample)."""
        return self._certified_gap

    def barrier(self, follower_speed: float) -> Optional[float]:
        """``h = ĝ − d_min − τ·v_F`` (None before the first sample)."""
        if self._certified_gap is None:
            return None
        return (
            self._certified_gap
            - self.minimum_gap
            - self.headway * follower_speed
        )

    def _certify(
        self, distance: float, relative_velocity: float, follower_speed: float
    ) -> float:
        """Fold one (possibly hostile) measurement into the track.

        Returns the certified relative velocity for this step.
        """
        T = self.sample_period
        measured_leader = relative_velocity + follower_speed
        if self._certified_leader_speed is None:
            certified_leader = measured_leader
        else:
            # Leader speed may fall freely (pessimism is safe) but rise
            # at most a_L·T per step.
            certified_leader = min(
                measured_leader,
                self._certified_leader_speed + self.leader_accel_bound * T,
            )
        self._certified_leader_speed = certified_leader
        certified_relative = certified_leader - follower_speed

        if self._certified_gap is None:
            self._certified_gap = distance
        else:
            growth_cap = (
                self._certified_gap
                + T * max(0.0, certified_relative)
                + 0.5 * self.leader_accel_bound * T * T
            )
            if distance > growth_cap:
                self.rejected_jumps += 1
                self._certified_gap = growth_cap
            else:
                self._certified_gap = distance
        self._certified_gap = max(0.0, self._certified_gap)
        return certified_relative

    def clamp(
        self,
        desired_acceleration: float,
        follower_speed: float,
        distance: float,
        relative_velocity: float,
    ) -> float:
        """Certify this step's measurement and bound the command.

        Call exactly once per control step, with whatever gap /
        relative-velocity values the controller is about to act on
        (post-pipeline substitutes, or raw when undetected).
        """
        self.steps += 1
        certified_relative = self._certify(
            distance, relative_velocity, follower_speed
        )
        h = self.barrier(follower_speed)
        assert h is not None  # _certify just set the track
        T = self.sample_period
        bound = (self.gamma * h + T * certified_relative) / (
            self.headway * T + 0.5 * T * T
        )
        self.last_bound = bound
        admissible = max(self.min_acceleration, min(desired_acceleration, bound))
        if admissible < desired_acceleration:
            self.interventions += 1
        return admissible
