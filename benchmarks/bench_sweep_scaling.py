"""Extension bench — directory run store + adaptive sweep scheduler.

Drives a 10,000-run heterogeneous sweep (DoS and delay attacks x
defended/undefended x five radar-noise levels, 500 seeds per cell)
through a fresh 8-file directory store (``RunStore(path, shards=8)``,
see ``docs/sharded_store.md``) at 1 and at 4 workers, then compares
the adaptive scheduler against the fixed grid on a detection-rate
panel.

Asserted contracts:

* **determinism** — both worker counts produce identical per-cell
  outcome sequences, both stores hold the same 10,000 fingerprints,
  and the raw payload blobs are byte-identical shard-to-shard
  (whoever computes a run stores it, so the 4-worker store was
  written *by the pool workers* — which the ``store.worker_writes``
  counter confirms whenever the pool actually runs, on every backend:
  vector groups run on the pool too);
* **scaling** — on a machine with >= 4 usable cores the 4-worker
  sweep completes >= 3x faster (on smaller containers the timings are
  emitted but the floor is not asserted — nothing to parallelize onto);
* **replay** — re-running the sweep against the populated store
  answers all 10,000 runs from the cache (``batch.cache_hits``) with
  outcome sequences equal to the cold run, i.e. replay is
  bit-identical, and reads only each run's stored summary: no payload
  bytes (``store.hit_bytes``) are read;
* **adaptive savings** — on detection-rate cells the adaptive
  schedule reaches the same converged confidence interval as the
  fixed grid with >= 20% fewer executed runs.

The measured numbers are written to ``BENCH_sweep.json`` at the repo
root (committed, like ``BENCH_service.json``) under a ``host`` header
(CPU count, python, numpy, git sha) so sweep throughput is tracked
across revisions.
"""

import json
import os
import time
from pathlib import Path

from conftest import emit, host_header
from repro import fig2_scenario, telemetry
from repro.analysis import render_table
from repro.attacks import AttackWindow, DoSJammingAttack
from repro.simulation import RunSpec, execute_batch, resolve_backend
from repro.simulation.sweep import SweepCell, run_sweep
from repro.store import RunStore

ATTACKS = ("dos", "delay")
NOISE_LEVELS = (0.1, 0.5, 1.0, 2.0, 4.0)
DEFENDED = (True, False)
RUNS_PER_CELL = 500  # 2 attacks x 2 toggles x 5 noise levels x 500 = 10,000
SHARDS = 8
WORKERS = 4
SPEEDUP_FLOOR = 3.0

ADAPTIVE_TARGET_CI = 0.05
ADAPTIVE_MIN_RUNS = 8
ADAPTIVE_MAX_RUNS = 64
SAVINGS_FLOOR = 0.20
PAYLOAD_SAMPLE = 32

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def _pool_available() -> bool:
    """Probe whether a process pool actually runs here (cheap runs)."""
    probe = execute_batch(
        [RunSpec(fig2_scenario("dos", horizon=10.0)) for _ in range(2)],
        workers=2,
        backend="scalar",
    )
    return probe.parallel


def _scaling_cells():
    """The heterogeneous 20-cell grid behind the 10k-run sweep."""
    cells = []
    for attack in ATTACKS:
        for defended in DEFENDED:
            for noise in NOISE_LEVELS:
                cells.append(
                    SweepCell(
                        key=f"{attack}-{'def' if defended else 'undef'}-n{noise}",
                        scenario=fig2_scenario(
                            attack, horizon=10.0, distance_noise_std=noise
                        ),
                        defended=defended,
                    )
                )
    return cells


def _detection_cells():
    """Detection-rate cells whose attack actually falls in the horizon.

    The paper's DoS window opens at t=182 s; at bench horizons nothing
    would ever be attacked (or challenged), so these cells move the
    window and the challenge schedule inside a 12 s run.
    """
    cells = []
    for dropout in (0.0, 0.05, 0.1, 0.2):
        base = fig2_scenario("dos", horizon=12.0, dropout_rate=dropout)
        cells.append(
            SweepCell(
                key=f"dos-early-drop{dropout}",
                scenario=base.with_overrides(
                    attack=DoSJammingAttack(
                        window=AttackWindow(start=2.0, end=12.0),
                        radar_params=base.radar_params,
                    ),
                    challenge_times=(4.0, 8.0),
                ),
            )
        )
    return cells


def _timed_sweep(cells, store, workers):
    start = time.perf_counter()
    result = run_sweep(
        cells,
        metric="min_gap",
        schedule="fixed",
        max_runs=RUNS_PER_CELL,
        workers=workers,
        cache=store,
    )
    return result, time.perf_counter() - start


def _payload_index(store, sample):
    """fingerprint -> raw payload blob for a deterministic sample."""
    wanted = set(sample)
    return {
        row["fingerprint"]: row["payload"]
        for row in store.iter_rows()
        if row["fingerprint"] in wanted
    }


def bench_sweep_scaling(benchmark, tmp_path_factory):
    cells = _scaling_cells()
    total_runs = len(cells) * RUNS_PER_CELL
    base = tmp_path_factory.mktemp("sweep-scaling")

    def sweep():
        measured = {}
        stores = {}
        for workers in (1, WORKERS):
            store = RunStore(base / f"shards-w{workers}", shards=SHARDS)
            with telemetry.session() as tele:
                result, wall = _timed_sweep(cells, store, workers)
            measured[workers] = (result, wall)
            measured[f"counters_w{workers}"] = dict(tele.counters)
            stores[workers] = store

        # Warm replay against the pool-written store: every run must
        # come back from the shards, none from the engine.
        with telemetry.session() as tele:
            replay, replay_wall = _timed_sweep(cells, stores[WORKERS], 1)
        measured["replay"] = (replay, replay_wall)
        measured["replay_counters"] = dict(tele.counters)

        adaptive_kwargs = dict(
            metric="detection_rate",
            target_ci=ADAPTIVE_TARGET_CI,
            min_runs=ADAPTIVE_MIN_RUNS,
            max_runs=ADAPTIVE_MAX_RUNS,
        )
        detection = _detection_cells()
        measured["fixed"] = run_sweep(
            detection, schedule="fixed", **adaptive_kwargs
        )
        measured["adaptive"] = run_sweep(
            detection, schedule="adaptive", **adaptive_kwargs
        )
        return measured, stores

    measured, stores = benchmark.pedantic(sweep, rounds=1, iterations=1)
    serial, t_serial = measured[1]
    parallel, t_parallel = measured[WORKERS]
    replay, t_replay = measured["replay"]

    # Determinism: identical outcomes at both worker counts, and after
    # replay from the store.
    assert serial.executed_runs == parallel.executed_runs == total_runs
    for cold, warm in ((parallel, serial), (replay, serial)):
        for cell_result in cold.cells:
            assert cell_result.outcomes == warm.cell(cell_result.key).outcomes

    # Both stores hold the same 10k runs, byte-identical payloads.
    fingerprints = stores[1].fingerprints()
    assert len(fingerprints) == total_runs
    assert stores[WORKERS].fingerprints() == fingerprints
    sample = fingerprints[:: max(1, total_runs // PAYLOAD_SAMPLE)]
    assert _payload_index(stores[1], sample) == _payload_index(
        stores[WORKERS], sample
    )

    # The serial sweep wrote from the parent; the pooled one from the
    # workers, whichever engine ran each run.
    assert measured["counters_w1"].get("store.worker_writes", 0) == 0
    if _pool_available():
        assert measured[f"counters_w{WORKERS}"]["store.worker_writes"] == total_runs

    # Replay answered everything from the cache, from the stored
    # summaries alone: no payload was read.
    assert measured["replay_counters"]["batch.cache_hits"] == total_runs
    assert "store.hit_bytes" not in measured["replay_counters"]

    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    cpus = os.cpu_count() or 1
    speedup_asserted = cpus >= WORKERS and _pool_available()
    if speedup_asserted:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x speedup at {WORKERS} workers "
            f"on {cpus} cores, measured {speedup:.2f}x"
        )

    # Adaptive vs fixed: same converged intervals, >= 20% fewer runs.
    fixed, adaptive = measured["fixed"], measured["adaptive"]
    for cell_result in adaptive.cells:
        assert cell_result.converged, cell_result
        assert cell_result.ci_halfwidth <= ADAPTIVE_TARGET_CI
        assert cell_result.mean == fixed.cell(cell_result.key).mean
    assert adaptive.executed_runs <= (1.0 - SAVINGS_FLOOR) * fixed.executed_runs, (
        f"adaptive executed {adaptive.executed_runs} of "
        f"{fixed.executed_runs} fixed-grid runs"
    )

    for store in stores.values():
        store.close()

    record = {
        "host": host_header("bench_sweep_scaling", smoke=False),
        "backend": resolve_backend(None),
        "workload": (
            f"{total_runs}-run fixed sweep ({len(cells)} cells x "
            f"{RUNS_PER_CELL} seeds) through a {SHARDS}-shard store, "
            f"1 vs {WORKERS} workers; adaptive vs fixed on "
            f"{len(fixed.cells)} detection-rate cells"
        ),
        "runs": total_runs,
        "shards": SHARDS,
        "wall_s_workers1": round(t_serial, 3),
        f"wall_s_workers{WORKERS}": round(t_parallel, 3),
        "wall_s_replay": round(t_replay, 3),
        "speedup": round(speedup, 2),
        "speedup_floor": SPEEDUP_FLOOR,
        "speedup_asserted": speedup_asserted,
        "replay_cache_hits": measured["replay_counters"]["batch.cache_hits"],
        "adaptive_executed_runs": adaptive.executed_runs,
        "fixed_grid_runs": fixed.executed_runs,
        "savings_fraction": round(adaptive.savings_fraction, 3),
    }
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        "sweep_scaling",
        render_table(
            [
                {
                    "configuration": "cold, workers=1",
                    "runs": total_runs,
                    "wall_s": round(t_serial, 2),
                    "runs_per_s": round(total_runs / t_serial, 1),
                },
                {
                    "configuration": f"cold, workers={WORKERS}",
                    "runs": total_runs,
                    "wall_s": round(t_parallel, 2),
                    "runs_per_s": round(total_runs / t_parallel, 1),
                },
                {
                    "configuration": "warm replay, workers=1",
                    "runs": total_runs,
                    "wall_s": round(t_replay, 2),
                    "runs_per_s": round(total_runs / t_replay, 1),
                },
                {
                    "configuration": f"speedup ({cpus} cores)",
                    "runs": total_runs,
                    "wall_s": None,
                    "runs_per_s": round(speedup, 2),
                },
                {
                    "configuration": "adaptive vs fixed (detection)",
                    "runs": adaptive.executed_runs,
                    "wall_s": None,
                    "runs_per_s": f"saved {adaptive.savings_fraction:.0%}",
                },
            ],
            title=(
                f"Directory-store sweep: {total_runs} runs over {SHARDS} files, "
                "bit-identical across worker counts and replay"
            ),
        ),
    )
