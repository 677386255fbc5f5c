"""Persistence for simulation results (CSV and JSON).

Lets a run's traces leave the process — for external plotting, diffing
two builds of the library, or archiving the regenerated figure data
next to the paper's.  CSV carries the trace matrix (one column per
trace); JSON additionally round-trips the metadata (detection events,
collision time, attack label).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

from repro.simulation.results import SimulationResult
from repro.types import DetectionEvent, TimeSeries

__all__ = [
    "export_csv",
    "export_json",
    "load_json",
    "result_metadata",
    "result_from_metadata",
    "result_to_dict",
    "result_from_dict",
]

PathLike = Union[str, Path]


def result_metadata(result: SimulationResult) -> dict:
    """Everything of a result but its traces, as a JSON-compatible dict."""
    return {
        "name": result.name,
        "attack_name": result.attack_name,
        "defended": result.defended,
        "defense_stats": result.defense_stats,
        "collision_time": result.collision_time,
        "detection_events": [
            {
                "time": e.time,
                "attack_detected": e.attack_detected,
                "receiver_output": e.receiver_output,
            }
            for e in result.detection_events
        ],
    }


def result_from_metadata(meta: dict, traces: dict) -> SimulationResult:
    """Rebuild a result from :func:`result_metadata`'s dict and its traces."""
    return SimulationResult(
        name=meta["name"],
        traces=traces,
        detection_events=[
            DetectionEvent(
                time=float(e["time"]),
                attack_detected=bool(e["attack_detected"]),
                receiver_output=float(e["receiver_output"]),
            )
            for e in meta["detection_events"]
        ],
        collision_time=meta["collision_time"],
        attack_name=meta["attack_name"],
        defended=meta["defended"],
        # .get(): payloads written before the field existed lack the key.
        defense_stats=meta.get("defense_stats"),
    )


def result_to_dict(result: SimulationResult) -> dict:
    """A result (traces + metadata) as a JSON-compatible dict.

    The inverse of :func:`result_from_dict`.  Floats survive the JSON
    round trip exactly (``repr``-based shortest representation), so a
    reloaded result is bit-identical to the original.
    """
    return {
        **result_metadata(result),
        "traces": {
            name: {"times": series.times, "values": series.values}
            for name, series in result.traces.items()
        },
    }


def result_from_dict(payload: dict) -> SimulationResult:
    """Rebuild a :class:`SimulationResult` from its dict form."""
    traces = {
        name: TimeSeries(
            name,
            times=[float(t) for t in data["times"]],
            values=[float(v) for v in data["values"]],
        )
        for name, data in payload["traces"].items()
    }
    return result_from_metadata(payload, traces)


def export_csv(result: SimulationResult, path: PathLike) -> Path:
    """Write a result's traces as one CSV (``time`` + one column each).

    All traces share the simulation's uniform sample grid, so a single
    rectangular table is lossless.
    """
    path = Path(path)
    names = sorted(result.traces)
    times = result.times
    columns = {name: result.array(name) for name in names}
    for name, values in columns.items():
        if len(values) != len(times):
            raise ValueError(
                f"trace {name!r} has {len(values)} samples, expected {len(times)}"
            )
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", *names])
        for i, t in enumerate(times):
            writer.writerow([t, *(columns[name][i] for name in names)])
    return path


def export_json(result: SimulationResult, path: PathLike) -> Path:
    """Write a result (traces + metadata) as JSON."""
    path = Path(path)
    path.write_text(json.dumps(result_to_dict(result)))
    return path


def load_json(path: PathLike) -> SimulationResult:
    """Reload a result previously written with :func:`export_json`."""
    return result_from_dict(json.loads(Path(path).read_text()))
