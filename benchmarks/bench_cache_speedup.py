"""Extension bench — warm-vs-cold speedup of the run store.

Builds the full markdown report (4 panel triples, the Figure 2a
defense comparison and two 8-seed Monte-Carlo robustness sweeps) three
times against a fresh temporary store: once with the cache off (the
pre-store baseline), once cold through a ``readwrite`` binding
(computes every run and persists it), and once warm (every run replays
from the store).  Asserts the tentpole contract of :mod:`repro.store`:

* all three report texts are **byte-identical** — caching changes
  wall-clock only, never output;
* the store holds one row per distinct run the report executes;
* the warm build is at least 10x faster than the cold one (one SQLite
  lookup and payload decode per run vs one simulated 300 s closed loop).
"""

import time

from conftest import emit
from repro.analysis import render_table
from repro.analysis.defense_comparison import defense_variants
from repro.analysis.report import build_report
from repro.simulation import RunSpec
from repro.simulation.scenario import PANELS, panel_scenario
from repro.store import RunStore, run_fingerprint

SPEEDUP_FLOOR = 10.0
#: Robustness-section seeds: a heavier, more realistic report workload.
SEEDS = tuple(range(8))
#: ``(attack_enabled, defended)`` of a panel's baseline, attacked and
#: defended runs.
FIGURE_TOGGLES = ((False, False), (True, False), (True, True))


def report_specs(seeds):
    """Every run ``build_report(seeds=seeds)`` executes, in report order."""
    specs = [
        RunSpec(panel_scenario(panel), attack_enabled=attack, defended=defended)
        for panel in PANELS
        for attack, defended in FIGURE_TOGGLES
    ]
    specs += [
        RunSpec(variant, attack_enabled=True, defended=defended)
        for _, variant, defended in defense_variants(panel_scenario("fig2a"))
    ]
    specs += [
        RunSpec(panel_scenario(panel).with_overrides(sensor_seed=seed))
        for panel in ("fig2a", "fig2b")
        for seed in seeds
    ]
    return specs


def bench_cache_speedup(benchmark, tmp_path_factory):
    store = RunStore(tmp_path_factory.mktemp("runstore") / "runstore.sqlite")

    def timed(cache):
        start = time.perf_counter()
        text = build_report(seeds=SEEDS, cache=cache)
        return text, time.perf_counter() - start

    def sweep():
        baseline, t_off = timed("off")
        cold, t_cold = timed(store)
        warm, t_warm = timed(store)
        return baseline, cold, warm, t_off, t_cold, t_warm

    baseline, cold, warm, t_off, t_cold, t_warm = benchmark.pedantic(
        sweep, rounds=1, iterations=1
    )

    # Caching must never change the report, only its cost.
    assert cold == baseline
    assert warm == baseline

    stats = store.stats()
    # One row per distinct run: the defense comparison's "undefended"
    # and "rls" rows are the fig2a panel's attacked and defended runs.
    assert stats.entries == len({run_fingerprint(s) for s in report_specs(SEEDS)})

    speedup = t_cold / t_warm if t_warm > 0 else float("inf")
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x warm speedup, measured {speedup:.1f}x "
        f"(cold {t_cold:.2f}s, warm {t_warm:.3f}s)"
    )

    emit(
        "cache_speedup",
        render_table(
            [
                {
                    "configuration": "cache off",
                    "wall_s": round(t_off, 3),
                    "stored_runs": 0,
                    "identical_report": True,
                },
                {
                    "configuration": "cold (compute + store)",
                    "wall_s": round(t_cold, 3),
                    "stored_runs": stats.entries,
                    "identical_report": cold == baseline,
                },
                {
                    "configuration": "warm (replay)",
                    "wall_s": round(t_warm, 3),
                    "stored_runs": stats.entries,
                    "identical_report": warm == baseline,
                },
                {
                    "configuration": f"warm speedup (floor {SPEEDUP_FLOOR:.0f}x)",
                    "wall_s": round(speedup, 1),
                    "stored_runs": None,
                    "identical_report": None,
                },
            ],
            title="Run store: full report build, cold vs warm "
            f"({stats.payload_bytes / 1024:.0f} KiB stored payload)",
        ),
    )
    store.close()
