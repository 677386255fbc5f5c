"""Perf bench — incremental secure-reconstruction solver runtime.

PR 10 replaced the defense's per-window, per-subset python solve with
batched subset kernels (one stacked build per window geometry, one
vectorized data pass over all C(p, p-s) subsets) and an incremental
window solver that caches those kernels across the sliding window
(:mod:`repro.defense.reconstruction`).  This bench pins the claim:

* on the fig2a closed-loop configuration (1 s sampling, window 8,
  s = 1) the ``incremental`` estimator runs each trusted-sample step
  >= 5x faster than the ``from_scratch`` baseline that rebuilds
  :class:`SecureStateReconstruct` every window;
* the two modes are **bit-identical** — every candidate of every
  window (x0, x_end, residual, covariance, subset bookkeeping)
  compares equal with ``==``/``array_equal``, no tolerance — including
  across the non-uniform windows left by challenge-instant holes;
* subset-search scaling at p = 2/4/6 sensors, including the historical
  pre-batching ``solve_naive`` loop as a third column;
* a full closed-loop ``repro.run`` of fig2b on ``secure_reconstruction``:
  ms per run, the rollback snapshots the pipeline takes (one per clean
  challenge) and the cost of one snapshot+restore pair, next to the
  generic deep-copy snapshot it replaced.  Timing ``observe()`` alone
  never sees that cost.

The table is written to ``BENCH_defense_runtime.json`` at the repo
root (committed, like ``BENCH_defense.json``) under a host header.  Set
``REPRO_BENCH_SMOKE`` to shrink the workloads and skip the timing
floor (CI runs the smoke mode; the equivalence assertions always run).
"""

import gc
import json
import os
import time
from dataclasses import replace
from math import comb
from pathlib import Path

import numpy as np

from conftest import emit, host_header
from repro import CarFollowingSimulation, fig2_scenario, run
from repro.analysis import render_table
from repro.core.predictor import MeasurementEstimator
from repro.defense.estimator import SecureReconstructionEstimator
from repro.defense.reconstruction import (
    IncrementalWindowSolver,
    SecureStateReconstruct,
    SSProblem,
)
from repro.types import RadarMeasurement

RESULTS_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_defense_runtime.json"
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
SPEEDUP_FLOOR = 5.0
#: Trusted-sample steps in the closed-loop stream / timing repeats.
N_STEPS = 60 if SMOKE else 400
REPEATS = 1 if SMOKE else 5
#: Sensor counts of the subset-search scaling sweep.
SENSOR_COUNTS = (2, 4, 6)
SCALING_STEPS = 20 if SMOKE else 120
#: Full closed-loop runs timed / snapshot+restore pairs timed.
RUN_REPEATS = 1 if SMOKE else 5
SNAPSHOT_PAIRS = 50 if SMOKE else 2000
MPH = 0.44704


def _fig2a_stream(n_steps, sample_period, *, hole_every=None):
    """A deterministic trusted-sample stream shaped like fig2a.

    Leader at 65 mph braking at the panel's -0.1082 m/s², follower at
    67 mph closing under a constant-time-headway law from the 100 m
    initial gap; a small deterministic ripple stands in for sensor
    noise so residuals are non-trivial.  ``hole_every`` drops every
    k-th sample the way CRA challenge instants do, producing the
    non-uniform windows the incremental solver must handle.
    """
    gap, v_l, v_f = 100.0, 65.0 * MPH, 67.0 * MPH
    samples = []
    k = 0
    while len(samples) < n_steps:
        k += 1
        a_l = -0.1082
        a_f = float(
            np.clip(0.05 * (gap - 1.5 * v_f - 10.0) + 0.5 * (v_l - v_f), -3.0, 2.0)
        )
        gap += sample_period * (v_l - v_f) + 0.5 * sample_period**2 * (a_l - a_f)
        gap = max(gap, 1.0)
        v_l = max(v_l + sample_period * a_l, 0.0)
        v_f = max(v_f + sample_period * a_f, 0.0)
        if hole_every and k % hole_every == 0:
            continue  # challenge instant — no trusted sample this step
        t = k * sample_period
        measurement = RadarMeasurement(
            time=t,
            distance=gap + 0.05 * np.sin(1.7 * k),
            relative_velocity=(v_l - v_f) + 0.02 * np.cos(2.3 * k),
        )
        samples.append((measurement, v_f + 0.01 * np.sin(0.9 * k)))
    return samples


def _make_estimator(scenario, mode):
    """Mirror the engine's estimator construction for the scenario."""
    defense = scenario.defense
    return SecureReconstructionEstimator(
        sample_period=scenario.sample_period,
        window=defense.secure_window,
        sparsity=defense.secure_sparsity,
        residual_threshold=defense.secure_residual_threshold,
        margin_gain=defense.margin_gain,
        solver_mode=mode,
    )


def _time_observe(scenario, mode, samples, repeats):
    """Best-of-N mean per-step observe() time, seconds."""
    best = float("inf")
    for _ in range(repeats):
        estimator = _make_estimator(scenario, mode)
        # Collections triggered by earlier phases' garbage would land
        # mid-loop and smear the per-step numbers.
        gc.collect()
        start = time.perf_counter()
        for measurement, speed in samples:
            estimator.observe(measurement, speed)
        best = min(best, time.perf_counter() - start)
    return best / len(samples), estimator


def _results_equal(a, b):
    """Bitwise equality of two ReconstructionResults (no tolerance)."""
    if a is None or b is None:
        return a is b
    if (
        a.guaranteed != b.guaranteed
        or a.subsets_searched != b.subsets_searched
        or a.subsets_pruned != b.subsets_pruned
        or a.unobservable_subsets != b.unobservable_subsets
        or len(a.candidates) != len(b.candidates)
    ):
        return False
    for ca, cb in zip(a.candidates, b.candidates):
        if (
            ca.sensors != cb.sensors
            or ca.attacked != cb.attacked
            or ca.residual != cb.residual
            or ca.observable != cb.observable
            or not np.array_equal(ca.x0, cb.x0)
            or not np.array_equal(ca.x_end, cb.x_end)
        ):
            return False
        if (ca.x_end_covariance is None) != (cb.x_end_covariance is None):
            return False
        if ca.x_end_covariance is not None and not np.array_equal(
            ca.x_end_covariance, cb.x_end_covariance
        ):
            return False
    return True


def _assert_modes_identical(scenario, samples):
    """Lock-step both solver modes; every window must match bitwise."""
    incremental = _make_estimator(scenario, "incremental")
    from_scratch = _make_estimator(scenario, "from_scratch")
    for measurement, speed in samples:
        incremental.observe(measurement, speed)
        from_scratch.observe(measurement, speed)
        assert _results_equal(
            incremental.last_result, from_scratch.last_result
        ), f"solver modes diverged at t={measurement.time}"
        a, b = incremental._state, from_scratch._state
        assert (a is None) == (b is None)
        if a is not None:
            assert a[0] == b[0] and np.array_equal(a[1], b[1])
    return incremental


def _scaling_row(p, s, steps):
    """Per-step solve time at ``p`` sensors: batched incremental vs
    batched from-scratch vs the historical per-subset python loop."""
    n, m, T = 4, 1, 8
    rng = np.random.default_rng(1000 * p + s)
    A = np.eye(n) + 0.05 * rng.standard_normal((n, n))
    B = 0.1 * rng.standard_normal((n, m))
    C = rng.standard_normal((p, n))
    ys = rng.standard_normal((steps + T, p))
    us = 0.1 * rng.standard_normal((steps + T - 1, m))
    threshold = 10.0  # generous: timing, not gating, is the point here

    solver = IncrementalWindowSolver(A, B, C, residual_threshold=threshold)
    start = time.perf_counter()
    for k in range(steps):
        last_inc = solver.solve(ys[k : k + T], us[k : k + T - 1], None, s)
    t_inc = (time.perf_counter() - start) / steps

    def scratch(k):
        return SecureStateReconstruct(
            SSProblem(A, B, C, ys[k : k + T], us=us[k : k + T - 1], s=s),
            residual_threshold=threshold,
        )

    start = time.perf_counter()
    for k in range(steps):
        last_scratch = scratch(k).solve()
    t_scratch = (time.perf_counter() - start) / steps

    naive_steps = max(1, steps // 4)
    start = time.perf_counter()
    for k in range(naive_steps):
        scratch(k).solve_naive()
    t_naive = (time.perf_counter() - start) / naive_steps

    # The batched paths are bit-identical; the subset count is C(p, p-s).
    assert _results_equal(last_inc, last_scratch)
    assert last_inc.subsets_searched == comb(p, p - s)
    return {
        "sensors_p": p,
        "sparsity_s": s,
        "subsets": comb(p, p - s),
        "from_scratch_us": round(t_scratch * 1e6, 1),
        "incremental_us": round(t_inc * 1e6, 1),
        "naive_loop_us": round(t_naive * 1e6, 1),
        "speedup": round(t_scratch / t_inc, 2) if t_inc > 0 else None,
    }


def _snapshot_pair_us(estimator, snapshot, restore, pairs):
    """Mean µs of one ``restore(snapshot())`` round trip."""
    gc.collect()
    start = time.perf_counter()
    for _ in range(pairs):
        restore(estimator, snapshot(estimator))
    return (time.perf_counter() - start) / pairs * 1e6


def _closed_loop_run():
    """One full fig2b run on secure_reconstruction, end to end."""
    delay = fig2_scenario("delay")
    scenario = delay.with_overrides(
        defense=replace(delay.defense, strategy="secure_reconstruction")
    )
    best = float("inf")
    for _ in range(RUN_REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = run(scenario, backend="scalar")
        best = min(best, time.perf_counter() - start)
    # The pipeline snapshots at every clean challenge response and
    # restores at every raising edge of the alarm.
    snapshots = sum(not e.attack_detected for e in result.detection_events)
    # Snapshot cost on the estimator's end-of-run state (full window,
    # warm geometry and transition caches).
    sim = CarFollowingSimulation(scenario)
    sim.run()
    estimator = sim.pipeline.estimator
    explicit_us = _snapshot_pair_us(
        estimator,
        SecureReconstructionEstimator.snapshot,
        SecureReconstructionEstimator.restore,
        SNAPSHOT_PAIRS,
    )
    deepcopy_us = _snapshot_pair_us(
        estimator,
        MeasurementEstimator.snapshot,
        MeasurementEstimator.restore,
        SNAPSHOT_PAIRS,
    )
    return {
        "scenario": "fig2b",
        "strategy": "secure_reconstruction",
        "ms_per_run": round(best * 1e3, 2),
        "snapshots_per_run": snapshots,
        "restores_per_run": len(result.detection_times),
        "snapshot_restore_us": round(explicit_us, 2),
        "deepcopy_snapshot_restore_us": round(deepcopy_us, 2),
    }


def bench_defense_runtime(benchmark):
    scenario = fig2_scenario("dos")

    def build():
        # Correctness first: bit-identical modes across the non-uniform
        # windows a challenge schedule leaves (holes every 7th step).
        holed = _fig2a_stream(
            N_STEPS // 2, scenario.sample_period, hole_every=7
        )
        _assert_modes_identical(scenario, holed)

        # Steady-state per-step cost on the uniform closed-loop stream.
        uniform = _fig2a_stream(N_STEPS, scenario.sample_period)
        t_scratch, _ = _time_observe(
            scenario, "from_scratch", uniform, REPEATS
        )
        t_inc, estimator = _time_observe(
            scenario, "incremental", uniform, REPEATS
        )
        stats = estimator.search_stats()
        rows = [
            _scaling_row(p, max(1, p // 3), SCALING_STEPS)
            for p in SENSOR_COUNTS
        ]
        return t_scratch, t_inc, stats, rows, _closed_loop_run()

    t_scratch, t_inc, stats, scaling, full_run = benchmark.pedantic(
        build, rounds=1, iterations=1
    )
    # fig2b: detection at the k = 182 challenge, one rollback, and a
    # snapshot at every clean challenge before it.
    assert full_run["restores_per_run"] == 1, full_run
    assert full_run["snapshots_per_run"] >= 1, full_run

    # Uniform windows hit the geometry cache on (almost) every step:
    # one miss to seed, window-1 extensions while the window grows.
    assert stats["geometry_misses"] <= 2, stats
    assert stats["geometry_hits"] >= stats["windows_solved"] - (
        scenario.defense.secure_window + 1
    ), stats

    speedup = t_scratch / t_inc if t_inc > 0 else float("inf")
    if not SMOKE:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x per-step speedup from the "
            f"incremental solver on the fig2a closed loop, measured "
            f"{speedup:.2f}x ({t_scratch * 1e6:.1f} -> {t_inc * 1e6:.1f} us)"
        )
        for row in scaling:
            assert row["speedup"] > 1.0, row

    record = {
        "host": host_header("bench_defense_runtime", SMOKE),
        "closed_loop": {
            "scenario": "fig2a",
            "steps": N_STEPS,
            "window": scenario.defense.secure_window,
            "sparsity": scenario.defense.secure_sparsity,
            "from_scratch_us_per_step": round(t_scratch * 1e6, 1),
            "incremental_us_per_step": round(t_inc * 1e6, 1),
            "speedup": round(speedup, 2),
            "speedup_floor": SPEEDUP_FLOOR,
            "bit_identical": True,
            "search_stats": stats,
        },
        "closed_loop_run": full_run,
        "subset_scaling": scaling,
    }
    if not SMOKE:  # the committed JSON records the full workload
        RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        "defense_runtime",
        render_table(
            [
                {
                    "configuration": "from_scratch (baseline)",
                    "us_per_step": round(t_scratch * 1e6, 1),
                    "speedup": 1.0,
                },
                {
                    "configuration": "incremental (cached geometry)",
                    "us_per_step": round(t_inc * 1e6, 1),
                    "speedup": round(speedup, 2),
                },
            ],
            title=f"Secure-reconstruction solver: fig2a closed loop, "
            f"{N_STEPS} trusted steps (bit-identical candidates asserted)",
        )
        + "\n\n"
        + render_table(
            scaling,
            title="Subset-search scaling (synthetic n=4 plant, window 8)",
        )
        + "\n\n"
        + render_table(
            [full_run],
            title="Full closed-loop run: fig2b, secure_reconstruction "
            "(rollback snapshots: explicit vs deep copy)",
        ),
    )
