"""Registry of every reproduced experiment (tables, figures, ablations).

The registry is the machine-readable version of DESIGN.md §5: one entry
per paper table/figure plus the extension studies, each mapping to the
benchmark file that regenerates it and the modules it exercises.  The
CLI (``python -m repro list``) and EXPERIMENTS.md are generated from it,
and a test asserts that every registered bench file actually exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.analysis.tables import render_table

__all__ = ["Experiment", "REGISTRY", "get_experiment", "experiments_table"]


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment.

    Attributes
    ----------
    identifier:
        Short id (``fig2a``, ``results-detection``, ...).
    title:
        What the paper (or extension) shows.
    paper_claim:
        The quantitative/qualitative claim being reproduced; empty for
        extension studies.
    workload:
        Scenario and parameters, in one line.
    bench:
        Benchmark file under ``benchmarks/`` that regenerates it.
    modules:
        Key library modules exercised.
    kind:
        ``"figure"``, ``"table"``, ``"ablation"`` or ``"extension"``.
    """

    identifier: str
    title: str
    paper_claim: str
    workload: str
    bench: str
    modules: Tuple[str, ...]
    kind: str = "figure"


REGISTRY: Tuple[Experiment, ...] = (
    Experiment(
        identifier="fig2a",
        title="DoS attack + detection/estimation, constant leader deceleration",
        paper_claim="Spurious high readings after k=182; detected at k=182; "
        "estimation keeps the follower safe",
        workload="v_L0=65 mph, v_set=67 mph, d0=100 m, leader -0.1082 m/s², "
        "jammer 100 mW/10 dBi/155 MHz on [182,300] s",
        bench="bench_fig2a_dos_constant_decel.py",
        modules=("radar", "attacks.dos", "core", "vehicle", "simulation"),
        kind="figure",
    ),
    Experiment(
        identifier="fig2b",
        title="Delay-injection attack + defense, constant leader deceleration",
        paper_claim="+6 m spoof from k=180 makes the follower under-brake; "
        "detected at k=182; estimation restores safe spacing",
        workload="Same scenario; delay attack +6 m on [180,300] s",
        bench="bench_fig2b_delay_constant_decel.py",
        modules=("radar", "attacks.delay", "core", "vehicle", "simulation"),
        kind="figure",
    ),
    Experiment(
        identifier="fig3a",
        title="DoS attack, leader decelerates then accelerates",
        paper_claim="Same DoS shape with the phase-switching leader",
        workload="Leader -0.1082 m/s² then +0.012 m/s² (switch at 150 s)",
        bench="bench_fig3a_dos_decel_accel.py",
        modules=("radar", "attacks.dos", "core", "vehicle", "simulation"),
        kind="figure",
    ),
    Experiment(
        identifier="fig3b",
        title="Delay attack, leader decelerates then accelerates",
        paper_claim="Follower's margin shrinks but CRA still detects at k=182",
        workload="Phase-switching leader; delay attack +6 m on [180,300] s",
        bench="bench_fig3b_delay_decel_accel.py",
        modules=("radar", "attacks.delay", "core", "vehicle", "simulation"),
        kind="figure",
    ),
    Experiment(
        identifier="results-detection",
        title="Detection times and confusion counts",
        paper_claim="Both attacks detected at k=182 s; zero false positives "
        "and zero false negatives",
        workload="All four figure scenarios + a stealthy 60 s spoof ramp; "
        "CRA vs a χ²-residual baseline",
        bench="bench_results_detection.py",
        modules=("core.detector", "core.baselines", "analysis.metrics"),
        kind="table",
    ),
    Experiment(
        identifier="results-rls-runtime",
        title="RLS run-time over one attack window",
        paper_claim="1.2e7 ns (jamming) / 1.3e7 ns (delay) in MATLAB; "
        "O(n²) per update",
        workload="182 trusted samples + 118 forecasts; parameter-count sweep",
        bench="bench_results_rls_runtime.py",
        modules=("core.rls", "core.predictor"),
        kind="table",
    ),
    Experiment(
        identifier="jammer-feasibility",
        title="Eqn 11 jamming-success criterion",
        paper_claim="Attack succeeds iff P_r/P_jammer < 1; the paper's "
        "jammer swamps the echo at the experiment distances",
        workload="Jammer power × distance sweep; burn-through crossover",
        bench="bench_jammer_feasibility.py",
        modules=("radar.link_budget", "attacks.dos"),
        kind="table",
    ),
    Experiment(
        identifier="ablation-forgetting",
        title="RLS forgetting factor λ and initialization δ",
        paper_claim="",
        workload="λ ∈ {0.85..1.0} × δ ∈ {1, 100} on the fig2a scenario",
        bench="bench_ablation_forgetting.py",
        modules=("core.rls", "core.predictor"),
        kind="ablation",
    ),
    Experiment(
        identifier="ablation-challenge-rate",
        title="Challenge rate vs detection latency",
        paper_claim="",
        workload="PRBS schedules at rates 0.02-0.2, 3 LFSR seeds",
        bench="bench_ablation_challenge_rate.py",
        modules=("core.cra", "core.detector"),
        kind="ablation",
    ),
    Experiment(
        identifier="ablation-estimators",
        title="Recovery estimator choice",
        paper_claim="",
        workload="dead-reckoning vs per-channel RLS vs hold-last vs Kalman, "
        "4 sensor seeds",
        bench="bench_ablation_estimators.py",
        modules=("core.dead_reckoning", "core.predictor", "core.baselines"),
        kind="ablation",
    ),
    Experiment(
        identifier="ablation-regressors",
        title="Regressor basis for the leader-velocity RLS",
        paper_claim="",
        workload="polynomial degree 0-2 and AR(2)/AR(4) bases",
        bench="bench_ablation_regressors.py",
        modules=("core.regressors", "core.dead_reckoning"),
        kind="ablation",
    ),
    Experiment(
        identifier="ablation-headway",
        title="CTH headway time τ_h",
        paper_claim="",
        workload="τ_h ∈ {1.5, 2, 3, 4} s on the fig2a scenario",
        bench="bench_ablation_headway.py",
        modules=("vehicle.params", "vehicle.upper_controller"),
        kind="ablation",
    ),
    Experiment(
        identifier="noise-sensitivity",
        title="Sensor-noise sensitivity of the defense",
        paper_claim="",
        workload="0.5-4x the LRR2 accuracy-spec noise, 3 seeds",
        bench="bench_noise_sensitivity.py",
        modules=("radar.sensor", "core.dead_reckoning"),
        kind="extension",
    ),
    Experiment(
        identifier="radar-accuracy",
        title="Signal-chain accuracy vs distance (substrate validation)",
        paper_claim="",
        workload="25 Monte-Carlo draws per distance over the 2-200 m "
        "envelope, full synthesis + root-MUSIC chain",
        bench="bench_radar_accuracy.py",
        modules=("radar.signal_synth", "radar.music", "radar.receiver"),
        kind="extension",
    ),
    Experiment(
        identifier="detection-baselines",
        title="Detector zoo vs attack stealth",
        paper_claim="",
        workload="Spoof ramp time 0-118 s; CRA vs χ² vs CUSUM vs safety "
        "envelope",
        bench="bench_detection_baselines.py",
        modules=("core.detector", "core.baselines", "attacks.delay"),
        kind="extension",
    ),
    Experiment(
        identifier="adaptive-cra",
        title="Adaptive challenge scheduling (recovery latency)",
        paper_claim="",
        workload="Finite DoS burst; static schedule vs alert-mode "
        "probing at 8/4/2 s",
        bench="bench_adaptive_cra.py",
        modules=("core.adaptive_cra", "core.detector"),
        kind="extension",
    ),
    Experiment(
        identifier="seed-robustness",
        title="Monte-Carlo robustness of the headline claims",
        paper_claim="",
        workload="16 sensor-noise seeds per fig2 configuration, "
        "defended and undefended, fanned out via the batch engine",
        bench="bench_seed_robustness.py",
        modules=("simulation.monte_carlo", "simulation.batch", "core.pipeline"),
        kind="extension",
    ),
    Experiment(
        identifier="batch-speedup",
        title="Parallel batch-execution engine throughput",
        paper_claim="",
        workload="16-seed fig2a Monte-Carlo sweep, 1 vs 4 workers; "
        "asserts bit-identical outcomes (and >=2x speedup on >=4 cores)",
        bench="bench_batch_speedup.py",
        modules=("simulation.batch", "simulation.monte_carlo"),
        kind="extension",
    ),
    Experiment(
        identifier="vectorized-speedup",
        title="Vectorized batch engine: lock-step vs scalar throughput",
        paper_claim="",
        workload="64-run fig2a Monte-Carlo sweep on backend='scalar' vs "
        "backend='vectorized'; asserts bit-identical payloads and "
        ">=10x speedup from the fused numpy step loop",
        bench="bench_vectorized_speedup.py",
        modules=("simulation.vectorized", "simulation.batch", "simulation.knobs"),
        kind="extension",
    ),
    Experiment(
        identifier="cache-speedup",
        title="Content-addressed run store: warm-vs-cold report build",
        paper_claim="",
        workload="Full 4-panel report built cold (computing + storing) "
        "and warm (replayed from the store); asserts byte-identical "
        "text and >=10x warm speedup",
        bench="bench_cache_speedup.py",
        modules=("store", "simulation.batch", "analysis.report"),
        kind="extension",
    ),
    Experiment(
        identifier="telemetry-overhead",
        title="Telemetry layer: disabled-path overhead and trace fidelity",
        paper_claim="",
        workload="Microbenchmark of the disabled span/counter gate "
        "projected over a 16-spec batch (asserts <2% overhead), plus a "
        "traced warm batch whose JSONL replays every run",
        bench="bench_telemetry_overhead.py",
        modules=("telemetry", "simulation.batch", "store"),
        kind="extension",
    ),
    Experiment(
        identifier="follower-policy",
        title="Follower policy: hierarchical ACC vs plain IDM",
        paper_claim="",
        workload="Both follower policies through the fig2 scenarios, "
        "clean/attacked/defended",
        bench="bench_follower_policy.py",
        modules=("vehicle.idm", "vehicle.acc", "core.pipeline"),
        kind="extension",
    ),
    Experiment(
        identifier="redundancy-comparison",
        title="CRA+RLS vs redundancy-based fusion",
        paper_claim="",
        workload="Median fusion over 3 radars vs single-sensor CRA+RLS, "
        "targeted spoof and broadcast jamming",
        bench="bench_redundancy_comparison.py",
        modules=("core.fusion", "core.pipeline"),
        kind="extension",
    ),
    Experiment(
        identifier="platoon-string-stability",
        title="Attack propagation through an ACC platoon",
        paper_claim="",
        workload="4 followers, DoS on follower 0, defense on the attacked "
        "vehicle only",
        bench="bench_platoon_string_stability.py",
        modules=("simulation.platoon", "vehicle", "core"),
        kind="extension",
    ),
    Experiment(
        identifier="sweep-scaling",
        title="Sharded store + adaptive sweep: scaling and savings",
        paper_claim="",
        workload="10,000-run heterogeneous sweep (20 cells x 500 seeds) "
        "through an 8-shard run store at 1 vs 4 workers; asserts "
        "bit-identical payloads/replay (and >=3x speedup on >=4 cores), "
        "plus >=20% fewer runs from the adaptive scheduler at the same "
        "confidence interval; writes timings to BENCH_sweep.json",
        bench="bench_sweep_scaling.py",
        modules=("simulation.sweep", "store.runstore", "simulation.batch"),
        kind="extension",
    ),
    Experiment(
        identifier="defense-comparison",
        title="Defense strategies head-to-head: RLS, secure state "
        "reconstruction, CBF safety filter",
        paper_claim="",
        workload="All four figure panels x 7 defense variants (undefended, "
        "per-channel RLS, dead reckoning, secure reconstruction, safety "
        "filter with and without detection, combined); asserts the full "
        "strategies are collision-free everywhere and the filter's "
        "detection-free DoS guarantee; writes BENCH_defense.json",
        bench="bench_defense_comparison.py",
        modules=("defense", "analysis.defense_comparison", "simulation"),
        kind="extension",
    ),
    Experiment(
        identifier="defense-runtime",
        title="Incremental secure-reconstruction solver: per-step runtime",
        paper_claim="",
        workload="400 trusted steps of a fig2a-shaped closed loop through "
        "the estimator in incremental vs from_scratch solver modes; "
        "asserts bit-identical candidates (incl. challenge-hole windows) "
        "and >=5x per-step speedup from the cached geometry kernels, plus "
        "a subset-search scaling table at p = 2/4/6 sensors; writes "
        "BENCH_defense_runtime.json",
        bench="bench_defense_runtime.py",
        modules=("defense.reconstruction", "defense.estimator", "telemetry"),
        kind="extension",
    ),
    Experiment(
        identifier="service-throughput",
        title="Simulation service: sustained req/s with single-flight",
        paper_claim="",
        workload="300+ HTTP requests at a 90% hit ratio over 15 unique "
        "specs against an in-process ServiceApp; asserts coalescing "
        "holds executed runs at the unique-spec count and a hit-path "
        "throughput floor; writes req/s to BENCH_service.json",
        bench="bench_service_throughput.py",
        modules=("service", "store", "telemetry"),
        kind="extension",
    ),
)

_BY_ID: Dict[str, Experiment] = {exp.identifier: exp for exp in REGISTRY}


def get_experiment(identifier: str) -> Experiment:
    """Look an experiment up by id; raises KeyError with suggestions."""
    try:
        return _BY_ID[identifier]
    except KeyError:
        known = ", ".join(sorted(_BY_ID))
        raise KeyError(
            f"unknown experiment {identifier!r}; known ids: {known}"
        ) from None


def experiments_table(kind: Optional[str] = None) -> str:
    """Render the registry (optionally filtered by kind) as a table."""
    rows = [
        {
            "id": exp.identifier,
            "kind": exp.kind,
            "title": exp.title,
            "bench": exp.bench,
        }
        for exp in REGISTRY
        if kind is None or exp.kind == kind
    ]
    return render_table(rows, title="Reproduced experiments")
