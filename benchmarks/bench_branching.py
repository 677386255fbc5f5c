"""Perf bench — runs that share a pre-attack prefix branch from one run.

A figure's baseline and attacked runs, and the defended runs of
fig2a/fig2b (same leader, same seed, different attack), are
bit-identical until the first attack starts at 180 s or 182 s of 300 s.
``execute_batch`` runs that prefix once and branches the other runs
from an engine snapshot (:mod:`repro.simulation.batch`).  This bench
times, per workload, the runs executed one batch each ("fresh": every
run simulates all 301 steps) against the same runs in one batch
("branched"):

* each panel's undefended baseline + attacked pair, at signal and at
  equation fidelity;
* the defended fig2a + fig2b pair of every defense strategy, at
  equation fidelity.

Every branched payload is asserted equal to its fresh twin, and every
row must show branched <= fresh within ``NOISE_BAND`` (each time is the
median of ``REPEATS`` alternating rounds).  The rows are written to
``BENCH_branching.json`` at the repo root under a host header.  Set
``REPRO_BENCH_SMOKE`` for one round and no timing gate (CI runs the
smoke mode; the equality assertions always run).
"""

import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

from conftest import emit, host_header
from repro.analysis import render_table
from repro.simulation import RunSpec, execute_batch
from repro.simulation.io import result_to_dict
from repro.simulation.scenario import PANELS, panel_scenario

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_branching.json"

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
REPEATS = 1 if SMOKE else 5
#: Branched may exceed fresh by this fraction before the gate fails:
#: the spread of repeated timings of one batch on a shared host.
NOISE_BAND = 0.10
STRATEGIES = ("rls", "secure_reconstruction", "safety_filter", "combined")


def _scenario(panel, fidelity, strategy="rls"):
    base = panel_scenario(panel)
    return base.with_overrides(
        fidelity=fidelity, defense=replace(base.defense, strategy=strategy)
    )


def _workloads():
    """``(name, fidelity, specs)`` for every row of the table."""
    for fidelity in ("signal", "equation"):
        for panel in PANELS:
            scenario = _scenario(panel, fidelity)
            yield f"{panel} undefended pair", fidelity, [
                RunSpec(scenario, attack_enabled=False, defended=False),
                RunSpec(scenario, attack_enabled=True, defended=False),
            ]
    for strategy in STRATEGIES:
        yield f"fig2a+fig2b defended {strategy}", "equation", [
            RunSpec(_scenario(panel, "equation", strategy))
            for panel in ("fig2a", "fig2b")
        ]


def _timed(call):
    start = time.perf_counter()
    out = call()
    return time.perf_counter() - start, out


def _fresh(specs):
    return [
        execute_batch([spec], backend="scalar").raise_on_error().payloads()[0]
        for spec in specs
    ]


def _branched(specs):
    return execute_batch(specs, backend="scalar").raise_on_error().payloads()


def _row(name, fidelity, specs):
    fresh_s, branched_s = [], []
    for _ in range(REPEATS):
        seconds, fresh = _timed(lambda: _fresh(specs))
        fresh_s.append(seconds)
        seconds, branched = _timed(lambda: _branched(specs))
        branched_s.append(seconds)
    for a, b in zip(fresh, branched):
        assert result_to_dict(a) == result_to_dict(b), name
        assert a.detection_events == b.detection_events, name
    fresh_median = statistics.median(fresh_s)
    branched_median = statistics.median(branched_s)
    return {
        "workload": name,
        "fidelity": fidelity,
        "runs": len(specs),
        "fresh_s": round(fresh_median, 4),
        "branched_s": round(branched_median, 4),
        "ratio": round(branched_median / fresh_median, 3),
    }


def bench_branching(benchmark):
    # Warm the process-wide caches (root-MUSIC bases, solver geometry)
    # so the first row does not pay them.
    _fresh(next(_workloads())[2])

    def measure():
        return [_row(*workload) for workload in _workloads()]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    if not SMOKE:
        slower = [row for row in rows if row["ratio"] > 1.0 + NOISE_BAND]
        assert not slower, f"branched slower than fresh beyond the band: {slower}"
        RESULTS_PATH.write_text(
            json.dumps(
                {
                    "host": host_header("bench_branching", SMOKE),
                    "repeats": REPEATS,
                    "noise_band": NOISE_BAND,
                    "rows": rows,
                },
                indent=2,
            )
            + "\n"
        )
    emit(
        "branching",
        render_table(
            rows,
            title="Shared pre-attack prefix: fresh runs vs one branched batch "
            f"(median of {REPEATS}; payloads asserted equal)",
        ),
    )
