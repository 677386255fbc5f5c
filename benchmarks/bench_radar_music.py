"""Perf bench — one-beat root-MUSIC: the certified root against the eigensolve.

Every radar measurement asks :func:`repro.radar.music.root_music` for
one beat per segment.  For ``K = 1`` it computes only that root (power
iteration, one FFT, Newton) and keeps it when a certificate proves it
is the root the companion eigensolve would pick; otherwise it runs the
eigensolve on the same covariance.  This bench captures every segment
root-MUSIC sees in one defended signal-fidelity run of each figure
panel (sensor seed 2017) and records:

* the per-call p50 of ``root_music`` on the certified segments, and of
  the eigensolve path (covariance + companion eigenvalues) on the same
  segments;
* the certified share, per panel and overall;
* disagreements: certified segments whose frequency differs from the
  eigensolve's by more than 1e-9 of the sample rate (gated at 0), and
  the largest difference;
* ``radar.measure_us_p50``: the per-call p50 of
  ``FMCWRadarSensor.measure`` over the same runs.

The numbers are written to ``BENCH_radar.json`` at the repo root under
a host header.  ``REPRO_BENCH_SMOKE`` shortens the runs to 190 s (just
past the attack onset), times one round and writes nothing; the
disagreement gate always runs.
"""

import json
import os
import statistics
import time
from pathlib import Path

import numpy as np

from conftest import emit, host_header
import repro
from repro import telemetry
from repro.analysis import render_table
from repro.radar import receiver, sensor
from repro.radar.music import _covariance_matrix, _exact_frequencies, root_music
from repro.simulation.scenario import PANELS, panel_scenario

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_radar.json"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
HORIZON = 190.0 if SMOKE else 300.0
#: Timing rounds per segment; each path's time is its fastest round.
REPEATS = 1 if SMOKE else 3
#: Largest certified-vs-eigensolve difference, as a share of the
#: sample rate (the root-MUSIC oracle tolerance of the test suite).
TOLERANCE = 1e-9


def _capture(panel):
    """Segments root-MUSIC sees in one defended run, and measure() times."""
    segments, measure_us = [], []
    music, measure = receiver.root_music, sensor.FMCWRadarSensor.measure

    def record(signal, n_sources, sample_rate, covariance_order=None):
        segments.append((np.array(signal), covariance_order, sample_rate))
        return music(signal, n_sources, sample_rate, covariance_order)

    def timed_measure(self, *args, **kwargs):
        start = time.perf_counter()
        out = measure(self, *args, **kwargs)
        measure_us.append((time.perf_counter() - start) * 1e6)
        return out

    receiver.root_music = record
    sensor.FMCWRadarSensor.measure = timed_measure
    try:
        scenario = panel_scenario(panel).with_overrides(fidelity="signal", horizon=HORIZON)
        repro.run(scenario)
    finally:
        receiver.root_music = music
        sensor.FMCWRadarSensor.measure = measure
    return segments, measure_us


def _fastest_us(call, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        out = call()
        best = min(best, time.perf_counter() - start)
    return best * 1e6, out


def _panel_row(panel):
    segments, measure_us = _capture(panel)
    certified_us, exact_us, differences = [], [], []
    for signal, order, rate in segments:
        # The eigensolve path counts each call it takes; a certified
        # call leaves the counter alone.
        with telemetry.session() as tele:
            fast_us, fast = _fastest_us(lambda: root_music(signal, 1, rate, order))
        if tele.counters.get("radar.music_exact_path"):
            continue
        slow_us, slow = _fastest_us(
            lambda: _exact_frequencies(_covariance_matrix(signal, order), 1, rate)
        )
        certified_us.append(fast_us)
        exact_us.append(slow_us)
        differences.append(abs((fast[0] - slow[0] + rate / 2) % rate - rate / 2) / rate)
    differences = np.array(differences)
    return {
        "panel": panel,
        "segments": len(segments),
        "certified": len(certified_us),
        "certified_share": round(len(certified_us) / len(segments), 4),
        "disagreements": int((differences > TOLERANCE).sum()),
        "max_difference_hz": float(differences.max() * segments[0][2]) if differences.size else 0.0,
        "_certified_us": certified_us,
        "_exact_us": exact_us,
        "_measure_us": measure_us,
    }


def bench_radar_music(benchmark):
    # Warm the per-order caches so the first panel does not pay them.
    _panel_row(PANELS[0])
    rows = benchmark.pedantic(
        lambda: [_panel_row(panel) for panel in PANELS], rounds=1, iterations=1
    )
    certified_us = [t for row in rows for t in row.pop("_certified_us")]
    exact_us = [t for row in rows for t in row.pop("_exact_us")]
    measure_us = [t for row in rows for t in row.pop("_measure_us")]
    segments = sum(row["segments"] for row in rows)
    summary = {
        "segments": segments,
        "certified_share": round(sum(row["certified"] for row in rows) / segments, 4),
        "disagreements": sum(row["disagreements"] for row in rows),
        "max_difference_hz": max(row["max_difference_hz"] for row in rows),
        "certified_us_p50": round(statistics.median(certified_us), 1),
        "exact_us_p50": round(statistics.median(exact_us), 1),
        "radar.measure_us_p50": round(statistics.median(measure_us), 1),
    }
    assert summary["disagreements"] == 0, rows
    if not SMOKE:
        # Same segments, same host: the certified path must be the
        # cheaper one, or it has no reason to exist.
        assert summary["certified_us_p50"] < summary["exact_us_p50"], summary
        RESULTS_PATH.write_text(
            json.dumps(
                {
                    "host": host_header("bench_radar_music", SMOKE),
                    "horizon_s": HORIZON,
                    "sensor_seed": 2017,
                    "repeats": REPEATS,
                    "tolerance_of_sample_rate": TOLERANCE,
                    "summary": summary,
                    "panels": rows,
                },
                indent=2,
            )
            + "\n"
        )
    emit(
        "radar_music",
        render_table(
            rows,
            title="One-beat root-MUSIC: certified root vs companion eigensolve "
            f"(defended signal runs, seed 2017, {HORIZON:g} s)",
        )
        + "\n\n"
        + render_table([summary], title="All panels (per-call p50 in us)"),
    )
