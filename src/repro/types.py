"""Shared typed containers used across the library.

These are small, immutable-by-convention dataclasses that move data
between the radar chain, the attack models, the detection/estimation
pipeline and the vehicle simulation.  Keeping them in one module avoids
import cycles between the subpackages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List

import numpy as np

__all__ = [
    "SensorStatus",
    "RadarMeasurement",
    "Timestamped",
    "TimeSeries",
    "DetectionEvent",
    "AttackLabel",
]


class SensorStatus(Enum):
    """Provenance of a radar measurement as seen by the receiving unit.

    The receiver itself can only distinguish ``CHALLENGE`` instants (it
    knows when it suppressed the probe); ``NOMINAL``/``ATTACKED`` labels
    exist so tests and metrics can compare against ground truth.
    """

    NOMINAL = "nominal"
    CHALLENGE = "challenge"
    ATTACKED = "attacked"


class AttackLabel(Enum):
    """Ground-truth label of what corrupted a measurement, for metrics."""

    NONE = "none"
    DOS = "dos"
    DELAY = "delay"


@dataclass(frozen=True)
class RadarMeasurement:
    """One sampled output of the radar receiver at discrete time ``k``.

    Attributes
    ----------
    time:
        Discrete sample time in seconds.
    distance:
        Measured distance to the target, meters.
    relative_velocity:
        Measured closing speed ``v_L - v_F``, m/s (positive = opening).
    beat_freq_up, beat_freq_down:
        The two beat frequencies (Eqns 5-6 of the paper) the distance and
        velocity were derived from, hertz.  ``0.0`` when the measurement
        was produced by the equation-fidelity path without an explicit
        beat-frequency stage.
    received_power:
        Echo power at the receiver per the radar range equation, watts.
    status:
        Whether this sample fell on a CRA challenge instant.
    """

    time: float
    distance: float
    relative_velocity: float
    beat_freq_up: float = 0.0
    beat_freq_down: float = 0.0
    received_power: float = 0.0
    status: SensorStatus = SensorStatus.NOMINAL

    def is_zero_output(self, tolerance: float) -> bool:
        """Return True if the receiver output is (numerically) zero.

        At a challenge instant an unattacked radar hears only thermal
        noise; both derived measurements sit below ``tolerance``.
        """
        return abs(self.distance) <= tolerance and abs(self.relative_velocity) <= tolerance


@dataclass(frozen=True)
class Timestamped:
    """A scalar value paired with its sample time."""

    time: float
    value: float


@dataclass
class TimeSeries:
    """A named, uniformly indexed scalar series with list-building helpers.

    A thin wrapper over two parallel lists; ``as_arrays`` hands the data
    to numpy consumers.  Used by the simulation engine to record traces.
    """

    name: str
    times: List[float] = field(default_factory=list)
    values: List[float] = field(default_factory=list)

    def append(self, time: float, value: float) -> None:
        """Record ``value`` at ``time``; times must be non-decreasing."""
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"time series {self.name!r} must be appended in order: "
                f"{time} < {self.times[-1]}"
            )
        self.times.append(time)
        self.values.append(value)

    def __len__(self) -> int:
        return len(self.times)

    def as_arrays(self) -> "tuple[np.ndarray, np.ndarray]":
        """Return ``(times, values)`` as float arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.values, dtype=float)

    def value_at(self, time: float, tolerance: float = 1e-9) -> float:
        """Return the value recorded at ``time`` (exact match within tol)."""
        times = np.asarray(self.times, dtype=float)
        idx = np.nonzero(np.abs(times - time) <= tolerance)[0]
        if idx.size == 0:
            raise KeyError(f"no sample at time {time} in series {self.name!r}")
        return self.values[int(idx[0])]

    def window(self, start: float, stop: float) -> "TimeSeries":
        """Return the sub-series with ``start <= t <= stop``."""
        out = TimeSeries(name=self.name)
        for t, v in zip(self.times, self.values):
            if start <= t <= stop:
                out.append(t, v)
        return out


@dataclass(frozen=True)
class DetectionEvent:
    """Outcome of the CRA detector at one challenge instant.

    Attributes
    ----------
    time:
        Challenge instant, seconds.
    attack_detected:
        True when the receiver produced a non-zero output at a time the
        probe was suppressed.
    receiver_output:
        Magnitude of the receiver output the verdict was based on.
    """

    time: float
    attack_detected: bool
    receiver_output: float
