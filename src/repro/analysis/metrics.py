"""Quantitative metrics for the reproduction (paper §6.2 "Results").

The paper's quantitative claims are: detection at k = 182 s for both
attacks, zero false positives and zero false negatives, and safe
operation (no collision) with the estimated measurements.  These
functions compute exactly those quantities from simulation results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from repro.attacks.base import Attack
from repro.simulation.results import ResultSummary, SimulationResult
from repro.types import DetectionEvent

__all__ = [
    "detection_latency",
    "DetectionConfusion",
    "detection_confusion",
    "estimation_rmse",
    "series_rmse",
    "SafetyMetrics",
    "safety_metrics",
]


def detection_latency(
    result: Union[SimulationResult, ResultSummary], attack: Attack
) -> Optional[float]:
    """Seconds from attack onset to the first detection, or None.

    The structural lower bound is the gap from the onset to the next
    challenge instant; CRA should achieve exactly that bound.  Reads
    only ``detection_times``, so a run's stored
    :class:`~repro.simulation.results.ResultSummary` serves as well as
    the run itself.
    """
    detections = [t for t in result.detection_times if t >= attack.window.start]
    if not detections:
        return None
    return detections[0] - attack.window.start


@dataclass(frozen=True)
class DetectionConfusion:
    """Confusion counts of the CRA detector over challenge instants."""

    true_positives: int
    false_positives: int
    true_negatives: int
    false_negatives: int

    @property
    def total(self) -> int:
        """Number of challenge verdicts counted."""
        return (
            self.true_positives
            + self.false_positives
            + self.true_negatives
            + self.false_negatives
        )

    @property
    def perfect(self) -> bool:
        """The paper's claim: zero false positives and zero false negatives."""
        return self.false_positives == 0 and self.false_negatives == 0


def detection_confusion(
    events: Sequence[DetectionEvent], attack: Optional[Attack]
) -> DetectionConfusion:
    """Score each challenge verdict against the attack's ground truth."""
    tp = fp = tn = fn = 0
    for event in events:
        truly_attacked = attack is not None and attack.is_active(event.time)
        if event.attack_detected and truly_attacked:
            tp += 1
        elif event.attack_detected and not truly_attacked:
            fp += 1
        elif not event.attack_detected and truly_attacked:
            fn += 1
        else:
            tn += 1
    return DetectionConfusion(
        true_positives=tp,
        false_positives=fp,
        true_negatives=tn,
        false_negatives=fn,
    )


def series_rmse(
    reference_times: np.ndarray,
    reference_values: np.ndarray,
    times: np.ndarray,
    values: np.ndarray,
    window: Optional["tuple[float, float]"] = None,
) -> float:
    """RMSE between two sampled series over a common (optional) window.

    Series are aligned on exactly matching sample instants (all
    simulation traces share the same grid).
    """
    reference_times = np.asarray(reference_times, dtype=float)
    times = np.asarray(times, dtype=float)
    common, ref_idx, val_idx = np.intersect1d(
        reference_times, times, return_indices=True
    )
    if window is not None:
        mask = (common >= window[0]) & (common <= window[1])
        ref_idx, val_idx = ref_idx[mask], val_idx[mask]
    if ref_idx.size == 0:
        raise ValueError("series share no sample instants in the window")
    diff = np.asarray(reference_values)[ref_idx] - np.asarray(values)[val_idx]
    return float(np.sqrt(np.mean(diff**2)))


def estimation_rmse(
    defended: SimulationResult,
    baseline: SimulationResult,
    trace: str = "safe_distance",
    reference_trace: str = "measured_distance",
    window: Optional["tuple[float, float]"] = None,
) -> float:
    """RMSE of the defended run's safe series against the clean baseline.

    By default compares the controller-visible distance of the defended
    run against the clean radar data of the no-attack baseline — i.e.
    how closely "Estimated Radar Data" tracks "RadarData-Without-Attack"
    in the paper's figures.
    """
    ref_t, ref_v = baseline.series(reference_trace).as_arrays()
    t, v = defended.series(trace).as_arrays()
    return series_rmse(ref_t, ref_v, t, v, window=window)


@dataclass(frozen=True)
class SafetyMetrics:
    """Safety outcome of one run."""

    min_gap: float
    collided: bool
    collision_time: Optional[float]
    time_gap_violated: float
    final_gap: float

    @property
    def safe(self) -> bool:
        """No collision over the run."""
        return not self.collided


def safety_metrics(
    result: SimulationResult, minimum_safe_gap: float = 2.0
) -> SafetyMetrics:
    """Compute the safety outcome of a run.

    ``time_gap_violated`` is the total time the true gap spent below
    ``minimum_safe_gap`` (seconds, assuming the uniform sample grid).
    """
    times = result.times
    gaps = result.array("true_distance")
    if times.size < 2:
        dt = 1.0
    else:
        dt = float(times[1] - times[0])
    violated = float(np.sum(gaps < minimum_safe_gap) * dt)
    return SafetyMetrics(
        min_gap=float(np.min(gaps)),
        collided=result.collided,
        collision_time=result.collision_time,
        time_gap_violated=violated,
        final_gap=float(gaps[-1]),
    )
