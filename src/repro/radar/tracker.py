"""Alpha-beta target tracking with coasting.

A conventional (undefended) automotive radar does not hand raw
detections to the controller — a tracker smooths them and *coasts*
through missed detections.  This is exactly why the CRA challenge
instants are invisible to the undefended ACC in the paper's figures:
the tracker bridges the deliberate zero-returns like any other missed
detection.

The :class:`AlphaBetaTracker` implements the classic fixed-gain
position/velocity filter per channel:

    prediction:  x̂⁻ = x̂ + v̂ T
    update:      x̂ = x̂⁻ + α (z - x̂⁻)
                 v̂ = v̂ + (β / T) (z - x̂⁻)

with track management: a track *initiates* after ``confirm_hits``
consecutive detections, *coasts* on the prediction through up to
``max_coast`` consecutive misses, and *drops* after that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = ["TrackState", "AlphaBetaTracker"]


@dataclass(frozen=True)
class TrackState:
    """Public view of the tracker at one instant."""

    status: str  # "empty", "tentative", "confirmed", "coasting"
    distance: Optional[float]
    distance_rate: Optional[float]
    consecutive_misses: int


class AlphaBetaTracker:
    """Fixed-gain tracker for the radar's distance channel.

    Parameters
    ----------
    alpha, beta:
        Position and velocity gains; the defaults are a standard
        moderately smoothing choice for 1 Hz automotive track updates.
    sample_period:
        Update period ``T``, seconds.
    confirm_hits:
        Consecutive detections required to confirm a track.
    max_coast:
        Consecutive misses a confirmed track survives on prediction.
    """

    def __init__(
        self,
        alpha: float = 0.6,
        beta: float = 0.2,
        sample_period: float = 1.0,
        confirm_hits: int = 2,
        max_coast: int = 5,
    ):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if not 0.0 <= beta <= 2.0:
            raise ValueError(f"beta must be in [0, 2], got {beta}")
        if sample_period <= 0.0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        if confirm_hits < 1:
            raise ValueError(f"confirm_hits must be >= 1, got {confirm_hits}")
        if max_coast < 0:
            raise ValueError(f"max_coast must be >= 0, got {max_coast}")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.sample_period = float(sample_period)
        self.confirm_hits = int(confirm_hits)
        self.max_coast = int(max_coast)
        self.reset()

    def reset(self) -> None:
        """Drop any track and return to the empty state."""
        self._distance: Optional[float] = None
        self._rate = 0.0
        self._hits = 0
        self._misses = 0
        self._confirmed = False

    def snapshot(self) -> object:
        """The track's mutable state, for :meth:`restore`."""
        return (
            self._distance, self._rate, self._hits, self._misses, self._confirmed
        )

    def restore(self, snapshot: object) -> None:
        """Return to a state captured by :meth:`snapshot`."""
        (
            self._distance, self._rate, self._hits, self._misses, self._confirmed
        ) = snapshot  # type: ignore[misc]

    # ------------------------------------------------------------------

    @property
    def state(self) -> TrackState:
        """Current track state."""
        if self._distance is None:
            status = "empty"
        elif not self._confirmed:
            status = "tentative"
        elif self._misses > 0:
            status = "coasting"
        else:
            status = "confirmed"
        return TrackState(
            status=status,
            distance=self._distance,
            distance_rate=self._rate if self._distance is not None else None,
            consecutive_misses=self._misses,
        )

    @property
    def has_track(self) -> bool:
        """True when a confirmed track exists (possibly coasting)."""
        return self._confirmed and self._distance is not None

    def _predict(self) -> float:
        assert self._distance is not None
        return self._distance + self._rate * self.sample_period

    def update(self, detection: Optional[Tuple[float, float]]) -> Optional[Tuple[float, float]]:
        """Process one radar output; returns the tracked ``(d, ḋ)`` or None.

        ``detection`` is ``(distance, relative_velocity)`` when the
        receiver produced a measurement, or None on an empty return
        (challenge instant, out-of-range target, missed detection).
        """
        if detection is None:
            return self._handle_miss()
        distance, rate_hint = detection

        if self._distance is None:
            # Track initiation: seed the rate from the measured Doppler.
            self._distance = float(distance)
            self._rate = float(rate_hint)
            self._hits = 1
            self._misses = 0
            self._confirmed = self._hits >= self.confirm_hits
            return (self._distance, self._rate) if self._confirmed else None

        predicted = self._predict()
        innovation = float(distance) - predicted
        self._distance = predicted + self.alpha * innovation
        self._rate = self._rate + (self.beta / self.sample_period) * innovation
        self._hits += 1
        self._misses = 0
        if not self._confirmed and self._hits >= self.confirm_hits:
            self._confirmed = True
        return (self._distance, self._rate) if self._confirmed else None

    def _handle_miss(self) -> Optional[Tuple[float, float]]:
        if self._distance is None or not self._confirmed:
            # Tentative tracks die on a miss.
            self.reset()
            return None
        self._misses += 1
        if self._misses > self.max_coast:
            self.reset()
            return None
        # Coast on the prediction.
        self._distance = self._predict()
        return (self._distance, self._rate)
