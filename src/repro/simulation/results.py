"""Trace containers and summaries for simulation runs."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from repro.types import DetectionEvent, TimeSeries

if TYPE_CHECKING:
    from repro.simulation.scenario import Scenario

__all__ = ["SimulationResult", "ResultSummary", "FigureData", "TRACE_NAMES"]

#: Every trace the engine records, in display order.
TRACE_NAMES = (
    "leader_position",
    "leader_velocity",
    "follower_position",
    "follower_velocity",
    "follower_acceleration",
    "true_distance",
    "true_relative_velocity",
    "measured_distance",
    "measured_relative_velocity",
    "safe_distance",
    "safe_relative_velocity",
    "desired_distance",
    "desired_acceleration",
    "pedal_acceleration",
    "brake_pressure",
    "spacing_mode",
    "estimated_flag",
    "attack_active_flag",
)


@dataclass(frozen=True)
class ResultSummary:
    """Headline safety/detection numbers of one run."""

    name: str
    duration: float
    min_gap: float
    final_gap: float
    collided: bool
    collision_time: Optional[float]
    detection_times: List[float]
    first_detection_time: Optional[float]
    estimated_samples: int
    final_follower_speed: float

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict view for table rendering."""
        return {
            "name": self.name,
            "duration_s": self.duration,
            "min_gap_m": round(self.min_gap, 2),
            "final_gap_m": round(self.final_gap, 2),
            "collided": self.collided,
            "collision_time_s": self.collision_time,
            "first_detection_s": self.first_detection_time,
            "estimated_samples": self.estimated_samples,
            "final_follower_speed_mps": round(self.final_follower_speed, 2),
        }


@dataclass
class SimulationResult:
    """Everything one closed-loop run produced.

    ``traces`` maps each name in :data:`TRACE_NAMES` to a
    :class:`~repro.types.TimeSeries` sampled at every simulation step.
    """

    name: str
    traces: Dict[str, TimeSeries] = field(default_factory=dict)
    detection_events: List[DetectionEvent] = field(default_factory=list)
    collision_time: Optional[float] = None
    attack_name: str = "none"
    defended: bool = False
    #: Defense-solver counters for runs whose pipeline performs secure
    #: reconstruction (subset search / cache telemetry, see
    #: ``SecureReconstructionEstimator.search_stats``); None otherwise.
    defense_stats: Optional[Dict[str, int]] = None

    @classmethod
    def empty(cls, name: str, **kwargs) -> "SimulationResult":
        """Create a result with all standard traces pre-registered."""
        traces = {trace_name: TimeSeries(trace_name) for trace_name in TRACE_NAMES}
        return cls(name=name, traces=traces, **kwargs)

    def record(self, time: float, **values: float) -> None:
        """Append one value per named trace at ``time``."""
        for trace_name, value in values.items():
            if trace_name not in self.traces:
                raise KeyError(f"unknown trace {trace_name!r}")
            self.traces[trace_name].append(time, float(value))

    def snapshot(self) -> object:
        """The recorded traces (list slices) and the collision time.

        The labels (``name``, ``attack_name``, ``defended``) and the
        end-of-run fields are not part of it: a run resuming from the
        snapshot records into its own result.
        """
        return self.collision_time, {
            name: (series.times[:], series.values[:])
            for name, series in self.traces.items()
        }

    def restore(self, snapshot: object) -> None:
        """Return the traces to a state captured by :meth:`snapshot`."""
        self.collision_time, traces = snapshot  # type: ignore[misc]
        for name, (times, values) in traces.items():
            series = self.traces[name]
            series.times = times[:]
            series.values = values[:]

    def series(self, name: str) -> TimeSeries:
        """Access one trace by name."""
        return self.traces[name]

    def array(self, name: str) -> np.ndarray:
        """One trace's values as a float array."""
        return self.series(name).as_arrays()[1]

    @property
    def times(self) -> np.ndarray:
        """The sample instants of the run."""
        return self.series("true_distance").as_arrays()[0]

    @property
    def collided(self) -> bool:
        """True when the follower reached the leader's position."""
        return self.collision_time is not None

    @property
    def detection_times(self) -> List[float]:
        """Instants at which the alarm was (re)raised."""
        seen: List[float] = []
        active = False
        for event in self.detection_events:
            if event.attack_detected and not active:
                seen.append(event.time)
                active = True
            elif not event.attack_detected:
                active = False
        return seen

    def min_gap(self) -> float:
        """Smallest true inter-vehicle distance over the run."""
        gaps = self.array("true_distance")
        return float(np.min(gaps)) if gaps.size else float("nan")

    def summary(self) -> ResultSummary:
        """Headline numbers for tables.

        End values come straight off the recorded lists: converting a
        whole trace to an array just to read its last sample was most
        of this call's cost.
        """
        gap_series = self.series("true_distance")
        gaps = gap_series.values
        estimated = self.series("estimated_flag").values
        speeds = self.series("follower_velocity").values
        detections = self.detection_times
        return ResultSummary(
            name=self.name,
            duration=float(gap_series.times[-1]) if len(gap_series) else 0.0,
            min_gap=(
                float(np.min(np.asarray(gaps, dtype=float)))
                if len(gaps) else float("nan")
            ),
            final_gap=float(gaps[-1]) if len(gaps) else float("nan"),
            collided=self.collided,
            collision_time=self.collision_time,
            detection_times=detections,
            first_detection_time=detections[0] if detections else None,
            estimated_samples=(
                int(np.sum(np.asarray(estimated, dtype=float)))
                if len(estimated) else 0
            ),
            final_follower_speed=float(speeds[-1]) if len(speeds) else float("nan"),
        )


@dataclass(frozen=True)
class FigureData:
    """The three runs a figure panel overlays.

    The radar data without attack, with attack (undefended), and the
    estimates the defense produces — built by ``repro.run(scenario,
    mode="figure")`` with a shared sensor seed so noise aligns across
    the overlay.
    """

    scenario: "Scenario"
    baseline: SimulationResult
    attacked: SimulationResult
    defended: SimulationResult

    def detection_time(self) -> float:
        """First detection instant of the defended run.

        Raises if nothing was detected — a figure scenario always
        contains an attack.
        """
        times = self.defended.detection_times
        if not times:
            raise RuntimeError(
                f"defended run of {self.scenario.name!r} detected nothing"
            )
        return times[0]
