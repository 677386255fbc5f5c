"""Extension bench — throughput of the vectorized batch engine.

Times the same 64-run homogeneous Monte-Carlo sweep (Figure 2a DoS,
defended, 64 derived sensor seeds) on the serial scalar engine and on
``backend="vectorized"``, asserting both halves of the engine's
contract: the vectorized payloads are *bit-identical* to scalar
(``==`` on every serialized trace, no tolerance), and the lock-step
loop completes the sweep >= 10x faster.

Unlike the process-pool bench this floor holds on a single core — the
win comes from replacing 64 python step loops with one numpy pass per
step, not from parallel hardware.

A second table times groups of 1-4 runs on both engines and reports
vectorized ÷ scalar wall time, without a floor.  Below about three runs
a lock-step group pays more numpy dispatch per step than the scalar
loop saves, which is why the scalar engine stays and ``backend="auto"``
keeps lone runs on it.
"""

import time

from conftest import emit
from repro import fig2_scenario
from repro.analysis import render_table
from repro.simulation import RunSpec, derive_seeds, execute_batch
from repro.simulation.io import result_to_dict

N_RUNS = 64
SPEEDUP_FLOOR = 10.0
SMALL_GROUPS = (1, 2, 3, 4)


def _sweep_specs(n_runs=N_RUNS):
    scenario = fig2_scenario("dos")
    return [
        RunSpec(scenario.with_overrides(sensor_seed=seed), tag=str(i))
        for i, seed in enumerate(derive_seeds(scenario.sensor_seed, n_runs))
    ]


def bench_vectorized_speedup(benchmark):
    def timed(backend, repeats, n_runs=N_RUNS):
        # Best-of-N wall time: a single sample of either backend is
        # noisy enough on a loaded container to wobble across the
        # asserted floor.
        best = float("inf")
        for _ in range(repeats):
            specs = _sweep_specs(n_runs)
            start = time.perf_counter()
            batch = execute_batch(specs, backend=backend)
            best = min(best, time.perf_counter() - start)
            batch.raise_on_error()
        return batch, best

    def sweep():
        scalar, t_scalar = timed("scalar", repeats=2)
        vector, t_vector = timed("vectorized", repeats=3)
        small = [
            (n, timed("scalar", 5, n)[1], timed("vectorized", 5, n)[1])
            for n in SMALL_GROUPS
        ]
        return scalar, vector, t_scalar, t_vector, small

    scalar, vector, t_scalar, t_vector, small = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # Bit-identical reproduction — the contract that makes the backend
    # a pure performance knob.
    assert [result_to_dict(r.payload) for r in scalar.records] == [
        result_to_dict(r.payload) for r in vector.records
    ]
    assert all(r.backend_used == "vectorized" for r in vector.records)

    speedup = t_scalar / t_vector if t_vector > 0 else float("inf")
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x speedup from the vectorized engine "
        f"on a {N_RUNS}-run homogeneous sweep, measured {speedup:.2f}x"
    )

    emit(
        "vectorized_speedup",
        render_table(
            [
                {
                    "configuration": f"backend={b}",
                    "runs": N_RUNS,
                    "wall_s": round(t, 3),
                    "runs_per_s": round(N_RUNS / t, 1) if t > 0 else None,
                }
                for b, t in (("scalar", t_scalar), ("vectorized", t_vector))
            ]
            + [
                {
                    "configuration": "speedup",
                    "runs": N_RUNS,
                    "wall_s": None,
                    "runs_per_s": round(speedup, 2),
                }
            ],
            title=f"Vectorized engine: {N_RUNS}-run Monte-Carlo sweep, "
            "scalar vs lock-step (bit-identical payloads asserted)",
        )
        + "\n\n"
        + render_table(
            [
                {
                    "group_runs": n,
                    "scalar_s": round(t_s, 4),
                    "vectorized_s": round(t_v, 4),
                    "vectorized/scalar": round(t_v / t_s, 2),
                }
                for n, t_s, t_v in small
            ],
            title="Small groups (fig2a defended, best of 5): vectorized "
            "wall time / scalar wall time (no floor)",
        ),
    )
