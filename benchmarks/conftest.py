"""Shared machinery for the benchmark harness.

Every bench regenerates one of the paper's tables or figures (see
DESIGN.md §5).  Output conventions:

* each bench prints its table/series and also writes it to
  ``benchmarks/output/<bench-name>.txt`` so the regenerated artifacts
  are inspectable after a ``pytest benchmarks/ --benchmark-only`` run;
* figure benches emit the same three series the paper overlays
  (radar data without attack / with attack / estimated) plus an ASCII
  rendering of the panel;
* benches assert the *shape* claims (who wins, where the crossover is),
  not absolute numbers.
"""

from __future__ import annotations

import functools
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import numpy as np
import pytest

from repro import run
from repro.analysis import ascii_plot, render_table

OUTPUT_DIR = Path(__file__).parent / "output"
REPO_ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> Optional[str]:
    """Stripped stdout of ``git <args>`` in the repo; None without git."""
    try:
        done = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
        )
    except OSError:  # no git on this host
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_header(bench: str, smoke: bool) -> dict:
    """The header of a committed ``BENCH_*.json``: what ran, and where.

    ``git_dirty`` is True when tracked files differ from ``git_sha``
    (the numbers then measure uncommitted code), None without git.
    """
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "bench": bench,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "git_dirty": None if status is None else bool(status),
        "smoke": smoke,
    }


def bench_workers() -> int:
    """Worker-process count for benches that fan out independent runs.

    Serial by default so bench timings stay comparable run-to-run; set
    ``REPRO_BENCH_WORKERS`` to parallelize (results are identical
    either way — see :mod:`repro.simulation.batch`).
    """
    return max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1")))


def emit(name: str, text: str) -> None:
    """Print a regenerated artifact and persist it under output/."""
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


@functools.lru_cache(maxsize=None)
def _figure_data_cached(panel: str):
    from repro import fig2_scenario, fig3_scenario

    factory = {"fig2": fig2_scenario, "fig3": fig3_scenario}[panel[:4]]
    attack = {"a": "dos", "b": "delay"}[panel[4]]
    return run(factory(attack), mode="figure")


@pytest.fixture
def figure_data():
    """Accessor for the cached (baseline, attacked, defended) triples."""
    return _figure_data_cached


def figure_series_table(data, stride: int = 15) -> str:
    """The three distance series on a coarse grid, as the paper plots."""
    times = data.defended.times
    rows = []
    for i in range(0, len(times), stride):
        rows.append(
            {
                "t_s": times[i],
                "radar_no_attack_m": round(
                    float(data.baseline.array("measured_distance")[i]), 1
                ),
                "radar_with_attack_m": round(
                    float(data.attacked.array("measured_distance")[i]), 1
                ),
                "estimated_m": round(
                    float(data.defended.array("safe_distance")[i]), 1
                ),
                "true_gap_defended_m": round(
                    float(data.defended.array("true_distance")[i]), 1
                ),
            }
        )
    return render_table(rows, precision=1)


def figure_velocity_table(data, stride: int = 30) -> str:
    """The relative-velocity view of the same panel."""
    times = data.defended.times
    rows = []
    for i in range(0, len(times), stride):
        rows.append(
            {
                "t_s": times[i],
                "dv_no_attack": round(
                    float(data.baseline.array("measured_relative_velocity")[i]), 2
                ),
                "dv_with_attack": round(
                    float(data.attacked.array("measured_relative_velocity")[i]), 2
                ),
                "dv_estimated": round(
                    float(data.defended.array("safe_relative_velocity")[i]), 2
                ),
            }
        )
    return render_table(rows, precision=2)


def figure_ascii(data, title: str) -> str:
    times = data.defended.times
    window = times >= 100.0
    return ascii_plot(
        {
            "no attack": (
                times[window],
                np.clip(data.baseline.array("measured_distance")[window], 0, 260),
            ),
            "with attack": (
                times[window],
                np.clip(data.attacked.array("measured_distance")[window], 0, 260),
            ),
            "estimated": (
                times[window],
                np.clip(data.defended.array("safe_distance")[window], 0, 260),
            ),
        },
        title=title,
        y_label="m",
        width=100,
        height=22,
    )


def figure_summary(data) -> str:
    rows = [
        data.baseline.summary().as_dict(),
        data.attacked.summary().as_dict(),
        data.defended.summary().as_dict(),
    ]
    return render_table(rows, precision=2)


def assert_figure_shape(data, attacked_should_collide: bool) -> None:
    """The shape claims every figure panel shares."""
    assert data.detection_time() == 182.0
    assert not data.defended.collided
    assert data.defended.min_gap() > 0.0
    if attacked_should_collide:
        assert data.attacked.collided
    assert data.defended.min_gap() >= data.attacked.min_gap()
