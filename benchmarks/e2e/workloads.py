"""The four workloads of the end-to-end benchmark.

Each workload drives one public path of :mod:`repro` from outside and
times only calls into it.  Its inputs are a pure function of the seed
(:meth:`plan`); the program receives only the generated scenarios,
batches and requests.  Every workload times two kinds of operation on
its path:

* **cold** — the program has to compute the answer (it simulates);
* **warm** — the same request again, answered from the run store.

* ``panels_signal`` — cold: one paper figure panel at signal fidelity
  (``repro.run(mode="figure")``); warm: the same panel from a ``RunStore``;
* ``ssr_batch`` — cold: one secure-reconstruction run inside a 32-run
  ``execute_batch``; warm: each run replayed by ``repro.run(cache=...)``;
* ``sweep_store`` — cold: one run of an adaptive ``run_sweep`` into a
  fresh 4-shard store; warm: one run of the same sweep replayed;
* ``service_mixed`` — cold: a never-seen spec POSTed to ``repro serve``;
  warm: a stored spec (open loop, 100/s); a closed loop sets the rate.

Library workloads repeat *cycles* (one cold operation and its warm
replays, each cycle on fresh inputs) until the time is up.  In a trace
run, cycles alternate untraced and traced, so the two halves of each
pair do the same work and their ratio is the tracing overhead.
"""

from __future__ import annotations

import asyncio
import functools
import itertools
import json
import os
import random
import resource
import select
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro
from repro import fig2_scenario, fig3_scenario
from repro.analysis import detection_confusion
from repro.simulation import batch as batch_mod
from repro.simulation import sweep as sweep_mod
from repro.simulation.io import result_to_dict
from repro.simulation.spec import scenario_from_dict, scenario_to_dict
from repro.store.fingerprint import run_fingerprint
from repro.store.runstore import RunStore
from repro.store.sharded import ShardedRunStore

import loadgen
from stats import median, percentile, tail_percentile
from tracing import PER_LAYER_UNITS, Tracer, layer_metrics, layer_self_times, load_dir

E2E_DIR = Path(__file__).resolve().parent

#: The paper's four figure panels (Figures 2a/2b/3a/3b).
PANELS = ("fig2a", "fig2b", "fig3a", "fig3b")

#: The paper detects both attacks at the first challenge after onset.
PAPER_DETECTION_TIME = 182.0

#: Upper bound on cycles (and seeds drawn) in one measured phase.
MAX_CYCLES = 256


def panel_scenario(panel: str, strategy: str = "rls", **overrides):
    """The scenario of one figure panel, e.g. ``"fig3b"``."""
    factory = fig2_scenario if panel.startswith("fig2") else fig3_scenario
    scenario = factory("dos" if panel.endswith("a") else "delay", **overrides)
    if strategy != scenario.defense.strategy:
        scenario = scenario.with_overrides(
            defense=replace(scenario.defense, strategy=strategy)
        )
    return scenario


# -- bookkeeping ------------------------------------------------------------


@dataclass
class Tally:
    """Samples and check outcomes of one measured phase."""

    cold_ms: List[float] = field(default_factory=list)
    warm_ms: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    #: Operation time and units served per cycle (or per second of a
    #: closed loop); trace runs pair the cycles up.
    cycle_s: List[float] = field(default_factory=list)
    cycle_units: List[int] = field(default_factory=list)
    #: Workload-specific samples for the human-readable report.
    detail: Dict[str, List[float]] = field(default_factory=dict)

    def new_cycle(self) -> None:
        self.cycle_s.append(0.0)
        self.cycle_units.append(0)

    def add(self, kind: str, latency_ms: float, units: int = 0) -> None:
        (self.cold_ms if kind == "cold" else self.warm_ms).append(latency_ms)
        if units:
            self.cycle_units[-1] += units

    def throughput(self) -> float:
        """Median over cycles of units served per second of operation time.

        The median of per-cycle rates, not their pooled mean, so that a
        burst of contention on the host moves it by one cycle at most.
        """
        return median([u / s for u, s in zip(self.cycle_units, self.cycle_s) if s > 0])

    def check(self, attempted: int, problems: List[str]) -> None:
        """Count ``attempted`` operations, of which ``problems`` failed."""
        self.attempted += attempted
        self.failed += min(attempted, len(problems))
        self.failures.extend(problems)

    def sample(self, key: str, value: float) -> None:
        self.detail.setdefault(key, []).append(value)


class Timer:
    """Times one operation; within a traced cycle, under the tracer."""

    def __init__(self, tally: Tally, tracer: Optional[Tracer], cycle: int) -> None:
        self.tally, self.tracer, self.cycle = tally, tracer, cycle

    def __call__(self, kind: str, call: Callable[[], Any]) -> Tuple[Any, float]:
        tracer = self.tracer
        if tracer is None:
            start = perf_counter()
            out = call()
            seconds = perf_counter() - start
        else:
            tracer.kind = kind
            tracer.install()
            try:
                with tracer.root(f"bench.{kind}", trace_id=self.cycle):
                    start = perf_counter()
                    out = call()
                    seconds = perf_counter() - start
            finally:
                tracer.uninstall()
        self.tally.cycle_s[-1] += seconds
        return out, seconds


@contextmanager
def count_executions():
    """Count simulations started (scalar runs and vectorized group runs)."""
    from repro.simulation import engine, vectorized

    counter = SimpleNamespace(runs=0)
    run = engine.CarFollowingSimulation.__dict__["run"]
    group = vectorized.run_group_vectorized

    def counted_run(self):
        counter.runs += 1
        return run(self)

    def counted_group(specs):
        counter.runs += len(specs)
        return group(specs)

    engine.CarFollowingSimulation.run = counted_run
    vectorized.run_group_vectorized = counted_group
    try:
        yield counter
    finally:
        engine.CarFollowingSimulation.run = run
        vectorized.run_group_vectorized = group


def same_result(a, b) -> bool:
    """Bit-identity of two simulation results (traces and metadata)."""
    return result_to_dict(a) == result_to_dict(b)


def metric(value: float, unit: str, n: int) -> Dict[str, Any]:
    return {"value": value, "unit": unit, "n": n}


def latency_lines(label: str, values_ms: List[float]) -> List[str]:
    """Median plus the highest percentile with ten samples beyond it."""
    if not values_ms:
        return []
    lines = [f"{label}_p50 {median(values_ms):.3f} ms (n={len(values_ms)})"]
    tail = tail_percentile(len(values_ms))
    if tail is not None:
        lines.append(
            f"{label}_p{tail:g} {percentile(values_ms, tail):.3f} ms (n={len(values_ms)})"
        )
    return lines


def result(tally: Tally, metrics: Dict[str, Any], detail: List[str]) -> Dict[str, Any]:
    return {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures[:10],
        "metrics": metrics,
        "detail": detail,
    }


def layer_result(values: Dict[str, float]) -> Dict[str, Any]:
    return {
        name: metric(value, PER_LAYER_UNITS[name], 1) for name, value in values.items()
    }


# -- library workloads ---------------------------------------------------


class LibraryWorkload:
    """A workload that calls :mod:`repro` in the benchmark process."""

    name = ""

    def __init__(self, seed: int, workdir: Path, smoke: bool, paired: bool = False) -> None:
        self.seed = seed
        self.workdir = workdir
        self.smoke = smoke
        #: Trace runs time each input twice (untraced, then traced).
        self.repeat = 2 if paired else 1
        self.seeds = batch_mod.derive_seeds(seed, MAX_CYCLES * 8)
        #: Per-layer numbers the workload measures itself.
        self.extra: Dict[str, float] = {}
        self.store: Optional[RunStore] = None

    def plan(self, cycles: int) -> List[Any]:
        """The inputs of the first ``cycles`` cycles (JSON-compatible)."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int, timed: Timer, tally: Tally) -> None:
        raise NotImplementedError

    def detail(self, tally: Tally) -> List[str]:
        return latency_lines("cold_ms", tally.cold_ms) + latency_lines(
            "warm_ms", tally.warm_ms
        )

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def measure(self, seconds: float, tracer: Optional[Tracer] = None) -> Tally:
        """Run cycles until ``seconds`` pass (trace runs: whole pairs)."""
        tally = Tally()
        deadline = perf_counter() + seconds
        index = 0
        while index < MAX_CYCLES and (
            perf_counter() < deadline or index < 2 or (tracer and index % 2)
        ):
            traced = tracer is not None and index % 2 == 1
            tally.new_cycle()
            try:
                self.cycle(index, Timer(tally, tracer if traced else None, index), tally)
            except Exception as exc:  # a failing program is a result, not a crash
                tally.check(1, [f"cycle {index}: {type(exc).__name__}: {exc}"])
            index += 1
        return tally

    def run(self, seconds: float, trace_dir: Optional[Path]) -> Dict[str, Any]:
        if trace_dir is None:
            tally = self.measure(seconds)
            rss = max(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            ) / 1024.0
            metrics = {
                "cold_ms_p50": metric(median(tally.cold_ms), "ms", len(tally.cold_ms)),
                "warm_ms_p50": metric(median(tally.warm_ms), "ms", len(tally.warm_ms)),
                "throughput_per_s": metric(tally.throughput(), "1/s", len(tally.cycle_s)),
                "peak_rss_mb": metric(rss, "MB", 1),
            }
            return result(tally, metrics, self.detail(tally))
        tracer = Tracer(trace_dir, role="bench")
        tally = self.measure(seconds, tracer)
        tracer.dump()
        pairs = len(tally.cycle_s) // 2
        untraced = sum(tally.cycle_s[0 : 2 * pairs : 2])
        traced = sum(tally.cycle_s[1 : 2 * pairs : 2])
        extra = dict(self.extra)
        extra["trace.overhead"] = traced / untraced if untraced else 0.0
        values = layer_metrics(load_dir(trace_dir), traced, extra)
        return result(tally, layer_result(values), [f"traced pairs {pairs}"])


def check_figure(figure) -> List[str]:
    """The paper's claims on one panel's defended run."""
    name = figure.scenario.name
    defended = figure.defended
    problems = []
    detections = defended.detection_times
    if not detections or detections[0] != PAPER_DETECTION_TIME:
        problems.append(f"{name}: first detection {detections[:1]}, expected 182.0")
    confusion = detection_confusion(defended.detection_events, figure.scenario.attack)
    if confusion.false_positives or confusion.false_negatives:
        problems.append(f"{name}: {confusion}")
    if defended.collided:
        problems.append(f"{name}: defended run collided at {defended.collision_time}")
    return problems


class PanelsSignal(LibraryWorkload):
    """The paper's figure panels at signal fidelity (radar-bound)."""

    name = "panels_signal"
    #: Warm replays timed after each computed panel.
    replays = 20

    def __init__(self, seed, workdir, smoke, paired=False):
        super().__init__(seed, workdir, smoke, paired)
        # Smoke runs end just past the paper's detection instant.
        self.horizon = 190.0 if smoke else 300.0
        self.replays = 2 if smoke else PanelsSignal.replays

    def plan(self, cycles):
        # The panel order is fixed, so every seed measures the same mix
        # of panels; the seed draws the sensor noise.
        return [
            {
                "panel": PANELS[(index // self.repeat) % len(PANELS)],
                "sensor_seed": self.seeds[index],
            }
            for index in range(cycles)
        ]

    def scenario(self, panel: str, sensor_seed: int, horizon: float):
        return panel_scenario(
            panel, fidelity="signal", horizon=horizon, sensor_seed=sensor_seed
        )

    def setup(self):
        self.store = RunStore(self.workdir / "panels.sqlite")
        with RunStore(self.workdir / "warmup.sqlite") as store:
            warmup = functools.partial(
                repro.run,
                self.scenario(PANELS[0], self.seeds[-1], horizon=20.0),
                mode="figure", backend="auto", workers=1, cache=store,
            )
            warmup()  # compute and store
            warmup()  # replay

    def cycle(self, index, timed, tally):
        item = self.plan(index + 1)[index]
        scenario = self.scenario(item["panel"], item["sensor_seed"], self.horizon)

        def run():  # resolves repro.run per call: traced cycles get the wrapper
            return repro.run(scenario, mode="figure", backend="auto", workers=1,
                             cache=self.store)

        figure, seconds = timed("cold", run)
        tally.add("cold", seconds * 1e3, 1)
        tally.check(1, check_figure(figure))
        tally.sample(item["panel"], seconds)
        runs = (figure.baseline, figure.attacked, figure.defended)
        for _ in range(self.replays):
            replay, seconds = timed("warm", run)
            tally.add("warm", seconds * 1e3, 1)
            same = all(map(same_result, runs, (replay.baseline, replay.attacked, replay.defended)))
            tally.check(1, [] if same else [f"{item['panel']}: replay differs from the computed panel"])
        if index == 0:
            stats = self.store.stats()
            self.extra["store.bytes_per_run"] = stats.payload_bytes / stats.entries

    def detail(self, tally):
        lines = super().detail(tally)
        per_panel = {p: tally.detail[p] for p in PANELS if p in tally.detail}
        if len(per_panel) == len(PANELS):
            figures_s = sum(median(v) for v in per_panel.values())
            lines.append(f"figures_s {figures_s:.3f} s (four panels, median of each)")
        return lines


class SsrBatch(LibraryWorkload):
    """Defended batches on the secure-reconstruction strategies."""

    name = "ssr_batch"
    strategies = ("secure_reconstruction", "combined")
    #: Seeds per (panel, strategy) in one batch: 4 x 2 x 4 = 32 runs.
    seeds_per_cell = 4

    def __init__(self, seed, workdir, smoke, paired=False):
        super().__init__(seed, workdir, smoke, paired)
        self.per_cell = 1 if smoke else SsrBatch.seeds_per_cell

    def plan(self, cycles):
        return [
            {
                "seeds": list(self.seeds[index * self.per_cell : (index + 1) * self.per_cell]),
                "recheck": random.Random(f"{self.seed}:{index}").randrange(
                    len(PANELS) * len(self.strategies) * self.per_cell
                ),
            }
            for index in range(cycles)
        ]

    def specs(self, seeds) -> List[batch_mod.RunSpec]:
        return [
            batch_mod.RunSpec(
                panel_scenario(panel, strategy, sensor_seed=seed),
                tag=f"{panel}/{strategy}/{seed}",
            )
            for panel in PANELS
            for strategy in self.strategies
            for seed in seeds
        ]

    def setup(self):
        self.store = RunStore(self.workdir / "ssr.sqlite")
        spec = self.specs(self.seeds[-1:])[0]
        batch_mod.execute_batch([spec], backend="auto", workers=1, cache=self.store)
        repro.run(spec.scenario, backend="auto", cache=self.store)

    def cycle(self, index, timed, tally):
        item = self.plan(index + 1)[index]
        specs = self.specs(item["seeds"])
        batch, seconds = timed("cold", lambda: batch_mod.execute_batch(
            specs, backend="auto", workers=1, cache=self.store,
        ))
        tally.add("cold", seconds * 1e3 / len(specs), len(specs))
        tally.sample("cold_batch_s", seconds)
        problems = [f"{r.tag}: {r.error}" for r in batch.records if not r.ok]
        # Collisions at derived seeds are simulation outcomes, not wrong
        # outputs: the paper's safety claim covers its own seed, which
        # check_paper_seed() holds the strategies to.
        for record in batch.records:
            if record.ok:
                tally.sample("collided", float(record.payload.collided))
        checked = batch.records[item["recheck"]]
        if checked.ok and not same_result(
            checked.payload, repro.run(specs[item["recheck"]].scenario, backend="scalar")
        ):
            problems.append(f"{checked.tag}: differs from a backend='scalar' rerun")
        tally.check(len(specs), problems)
        if index == 0:
            self._note_defense_stats(batch.records)
            stats = self.store.stats()
            self.extra["store.bytes_per_run"] = stats.payload_bytes / stats.entries
        for spec, record in zip(specs, batch.records):
            replay, seconds = timed("warm", lambda: repro.run(
                spec.scenario, backend="auto", cache=self.store,
            ))
            tally.add("warm", seconds * 1e3, 1)
            ok = record.ok and same_result(replay, record.payload)
            tally.check(1, [] if ok else [f"{record.tag}: replay differs from the batch run"])

    def check_paper_seed(self, tally: Tally) -> None:
        """Both strategies are collision-free on the paper's panels."""
        specs = [
            batch_mod.RunSpec(panel_scenario(panel, strategy), tag=f"{panel}/{strategy}")
            for panel in PANELS
            for strategy in self.strategies
        ]
        records = batch_mod.execute_batch(specs, backend="auto", workers=1).records
        tally.check(len(specs), [
            f"{r.tag} (paper seed): {r.error or f'collided at {r.payload.collision_time}'}"
            for r in records
            if not r.ok or r.payload.collided
        ])

    def measure(self, seconds, tracer=None):
        tally = super().measure(seconds, tracer)
        self.check_paper_seed(tally)
        return tally

    def _note_defense_stats(self, records) -> None:
        totals: Dict[str, int] = {}
        for record in records:
            for key, value in (record.payload.defense_stats or {}).items():
                totals[key] = totals.get(key, 0) + value
        windows = totals.get("windows_solved", 0)
        searched = totals.get("subsets_searched", 0)
        lookups = sum(totals.get(k, 0) for k in (
            "geometry_hits", "geometry_extensions", "geometry_misses"))
        self.extra["defense.subsets_per_window"] = searched / windows if windows else 0.0
        self.extra["defense.pruned_ratio"] = (
            totals.get("subsets_pruned", 0) / searched if searched else 0.0
        )
        self.extra["defense.geometry_hit_ratio"] = (
            totals.get("geometry_hits", 0) / lookups if lookups else 0.0
        )

    def detail(self, tally):
        lines = super().detail(tally)
        batches = tally.detail.get("cold_batch_s", [])
        if batches:
            runs = len(PANELS) * len(self.strategies) * self.per_cell
            lines.append(
                f"runs_per_s {runs * len(batches) / sum(batches):.3f} 1/s "
                f"(cold, {len(batches)} batches of {runs})"
            )
        collided = tally.detail.get("collided", [])
        if collided:
            lines.append(
                f"collided {sum(collided):g}/{len(collided)} runs at derived seeds "
                f"(the paper's seed is a separate check)"
            )
        return lines


class SweepStore(LibraryWorkload):
    """Adaptive sweeps into a sharded store, then replays against it."""

    name = "sweep_store"
    strategies = ("rls", "safety_filter")
    replays = 3
    shards = 4
    options = dict(
        metric="min_gap", target_ci=0.1, min_runs=16, max_runs=128,
        round_size=32, workers=2, backend="auto",
    )
    smoke_options = dict(options, min_runs=4, max_runs=8, round_size=8)

    def __init__(self, seed, workdir, smoke, paired=False):
        super().__init__(seed, workdir, smoke, paired)
        self.options = SweepStore.smoke_options if smoke else SweepStore.options
        self.cells = [
            sweep_mod.SweepCell(key=f"{panel}/{strategy}", scenario=panel_scenario(panel, strategy))
            for panel in PANELS
            for strategy in self.strategies
        ]

    def plan(self, cycles):
        return [{"base_seed": self.seeds[index]} for index in range(cycles)]

    def setup(self):
        store = ShardedRunStore(self.workdir / "warmup", shards=self.shards)
        options = dict(self.options, min_runs=2, max_runs=2, round_size=1)
        for _ in range(2):  # compute and store, then replay
            sweep_mod.run_sweep(self.cells[:1], base_seed=self.seeds[-1], cache=store, **options)
        store.close()
        shutil.rmtree(store.path)

    def cycle(self, index, timed, tally):
        item = self.plan(index + 1)[index]
        store = ShardedRunStore(self.workdir / f"sweep-{index}", shards=self.shards)

        def sweep():
            return sweep_mod.run_sweep(
                self.cells, base_seed=item["base_seed"], cache=store, **self.options
            )

        try:
            cold, seconds = timed("cold", sweep)
            runs = cold.executed_runs
            tally.add("cold", seconds * 1e3 / runs, runs)
            tally.sample("time_to_ci_s", seconds)
            problems = self._recheck(store, item["base_seed"], cold, index)
            if len(store) != runs:
                problems.append(f"store holds {len(store)} runs, the sweep executed {runs}")
            tally.check(1, problems)
            if index == 0:
                self.extra["sweep.rounds"] = float(cold.rounds)
                self.extra["sweep.executed_runs"] = float(runs)
                stats = store.stats()
                self.extra["store.bytes_per_run"] = stats.payload_bytes / stats.entries
            outcomes = [(c.key, c.runs, c.values) for c in cold.cells]
            for _ in range(self.replays):
                with count_executions() as executions:
                    replay, seconds = timed("warm", sweep)
                tally.add("warm", seconds * 1e3 / replay.executed_runs, replay.executed_runs)
                tally.sample("replay_s", seconds)
                problems = []
                if executions.runs:
                    problems.append(f"replay executed {executions.runs} runs")
                if [(c.key, c.runs, c.values) for c in replay.cells] != outcomes:
                    problems.append("replay outcomes differ from the cold pass")
                tally.check(1, problems)
        finally:
            store.close()
            shutil.rmtree(store.path, ignore_errors=True)

    def _recheck(self, store, base_seed, sweep, index) -> List[str]:
        """Four stored payloads against fresh ``backend='scalar'`` runs.

        Rebuilds each run's seed from the sweep's documented seed tree
        (cell ``i`` draws from ``derive_seeds(cell_bases[i], max_runs)``).
        """
        rng = random.Random(f"{self.seed}:{index}")
        cell_bases = batch_mod.derive_seeds(base_seed, len(self.cells))
        problems = []
        for _ in range(4):
            cell_index = rng.randrange(len(self.cells))
            cell = self.cells[cell_index]
            run_index = rng.randrange(sweep.cells[cell_index].runs)
            seed = batch_mod.derive_seeds(cell_bases[cell_index], self.options["max_runs"])[run_index]
            spec = batch_mod.RunSpec(
                cell.scenario.with_overrides(sensor_seed=int(seed)),
                attack_enabled=cell.attack_enabled, defended=cell.defended,
            )
            stored = store.get(run_fingerprint(spec))
            fresh = repro.run(
                spec.scenario, attack_enabled=spec.attack_enabled,
                defended=spec.defended, backend="scalar",
            )
            if stored is None or not same_result(stored, fresh):
                problems.append(f"{cell.key} seed {seed}: stored payload differs from a fresh run")
        return problems

    def detail(self, tally):
        lines = super().detail(tally)
        for key in ("time_to_ci_s", "replay_s"):
            values = tally.detail.get(key, [])
            if values:
                lines.append(f"{key} {median(values):.3f} s (n={len(values)})")
        return lines


# -- the service workload --------------------------------------------------


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _child_pids(pid: int) -> List[int]:
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            children.append(int(entry.name))
    return children


class Server:
    """``python -m repro serve`` (or the traced launcher) on a free port."""

    start_timeout_s = 60.0

    def __init__(self, store_path: Path, trace_dir: Optional[Path] = None) -> None:
        if trace_dir is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                       "--workers", "1", "--store", str(store_path)]
        else:
            command = [sys.executable, str(E2E_DIR / "serve_traced.py"),
                       "--store", str(store_path), "--trace-dir", str(trace_dir)]
        self.log_path = store_path.with_suffix(".log")
        self._log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._log, text=True,
            cwd=E2E_DIR.parents[1],
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], self.start_timeout_s)
        line = self.proc.stdout.readline().strip() if ready else ""
        if not line.startswith("http://"):
            self.stop()
            raise RuntimeError(f"service did not start: {self.log_path.read_text()[-2000:]}")
        host, port = line[len("http://"):].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def call(self, request: loadgen.Request) -> Tuple[int, Any]:
        return asyncio.run(loadgen.exchange(self.host, self.port, request))

    def pin(self) -> None:
        """Server and load generator on one CPU, the pool worker on another.

        Left to the scheduler, the worker lands on the server's CPU in
        some runs and not in others, which moved the median miss latency
        by a third between runs of the same seed.  Call after the pool
        has forked (after the set-up requests).
        """
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) < 2:
            return
        os.sched_setaffinity(0, {cpus[0]})
        os.sched_setaffinity(self.proc.pid, {cpus[0]})
        for pid in _child_pids(self.proc.pid):
            os.sched_setaffinity(pid, {cpus[1]})

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of the server and its pool worker."""
        pids = [self.proc.pid, *_child_pids(self.proc.pid)]
        return max(_vm_hwm_mb(pid) for pid in pids)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


class ServiceMixed:
    """Mixed hit/miss traffic against the HTTP service."""

    name = "service_mixed"
    rate = 100.0
    warm_seeds = 5
    #: One never-seen spec in every block of this many requests.
    fresh_every = 10
    checked_payloads = 4
    #: Closed-loop replies per throughput cycle.
    closed_block = 100

    def __init__(self, seed: int, workdir: Path, smoke: bool, paired: bool = False) -> None:
        self.seed, self.workdir, self.smoke = seed, workdir, smoke
        seeds = batch_mod.derive_seeds(seed, self.warm_seeds + 8192)
        self.warm_specs = [
            scenario_to_dict(panel_scenario(panel, sensor_seed=s))
            for panel in PANELS
            for s in seeds[: self.warm_seeds]
        ]
        self._warm_bodies = [self._body(spec) for spec in self.warm_specs]
        self.fresh_seeds = seeds[self.warm_seeds :]
        self._fresh = itertools.count()
        self._ids = itertools.count(1)
        self._servers = itertools.count()
        self.server: Optional[Server] = None

    @staticmethod
    def _body(spec: dict) -> bytes:
        return json.dumps({"scenario": spec}).encode("utf-8")

    def _stream(self, label: str, fresh: Iterator[int]) -> Iterator[Tuple[Optional[int], int]]:
        """``(fresh index or None, warm index)`` per request, forever."""
        rng = random.Random(f"{self.seed}:{label}")
        while True:
            fresh_at = rng.randrange(self.fresh_every)
            for position in range(self.fresh_every):
                if position == fresh_at:
                    yield next(fresh), -1
                else:
                    yield None, rng.randrange(len(self.warm_specs))

    def plan(self, requests: int) -> List[Any]:
        stream = self._stream("open", itertools.count())
        return [
            {"fresh_seed": self.fresh_seeds[f]} if f is not None else {"warm": w}
            for f, w in itertools.islice(stream, requests)
        ]

    def _requests(self, label: str, count: int) -> List[loadgen.Request]:
        requests = []
        for fresh, warm in itertools.islice(self._stream(label, self._fresh), count):
            if fresh is None:
                body, hit = self._warm_bodies[warm], True
            else:
                seed = self.fresh_seeds[fresh % len(self.fresh_seeds)]
                panel = PANELS[fresh % len(PANELS)]
                body = self._body(scenario_to_dict(panel_scenario(panel, sensor_seed=seed)))
                hit = False
            requests.append(loadgen.Request(
                "POST", "/v1/runs?wait=1", body, str(next(self._ids)), expect_hit=hit,
            ))
        return requests

    def setup(self, trace_dir: Optional[Path] = None) -> None:
        """Start a server on a fresh store and store the warm specs."""
        store = self.workdir / f"service-{next(self._servers)}.sqlite"
        self.server = Server(store, trace_dir)
        for body in self._warm_bodies:
            status, payload = self.server.call(loadgen.Request(
                "POST", "/v1/runs?wait=1", body, f"setup-{next(self._ids)}",
            ))
            if status != 200 or payload.get("status") != "done":
                raise RuntimeError(f"warming the service failed: {status} {payload}")
        self.server.pin()

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    @staticmethod
    def _problems(reply: loadgen.Reply) -> List[str]:
        rid = reply.request.request_id
        if reply.error is not None:
            return [f"request {rid}: {reply.error}"]
        payload = reply.payload or {}
        if reply.status != 200 or payload.get("status") != "done":
            return [f"request {rid}: {reply.status} {payload.get('status')} {payload.get('error')}"]
        if payload.get("cache_hit") is not reply.request.expect_hit:
            return [f"request {rid}: cache_hit {payload.get('cache_hit')}, "
                    f"expected {reply.request.expect_hit}"]
        return []

    def _open_phase(self, seconds: float, tally: Tally) -> List[loadgen.Reply]:
        requests = self._requests("open", max(1, int(self.rate * seconds)))
        replies, stats = asyncio.run(
            loadgen.open_loop(self.server.host, self.server.port, requests, self.rate)
        )
        for reply in replies:
            kind = "warm" if reply.request.expect_hit else "cold"
            tally.add(kind, reply.latency_s * 1e3)
            tally.check(1, self._problems(reply))
        for lag in stats.lag_s:
            tally.sample("lag_ms", lag * 1e3)
        tally.sample("inflight_max", stats.inflight_max)
        return replies

    def _closed_phase(self, seconds: float, tally: Tally) -> None:
        """Saturate the service; each block of replies is a throughput cycle."""
        # Enough pre-encoded requests for 600 per second.
        requests = iter(self._requests("closed", int(600 * seconds) + 100))
        start = perf_counter()
        replies, _ = asyncio.run(
            loadgen.closed_loop(self.server.host, self.server.port, requests, seconds)
        )
        done = [start]
        for reply in replies:
            problems = self._problems(reply)
            tally.check(1, problems)
            if not problems:
                done.append(reply.done)
        done.sort()
        block = min(self.closed_block, len(done) - 1)
        for end in range(block, len(done), block) if block else ():
            tally.new_cycle()
            tally.cycle_s[-1] = done[end] - done[end - block]
            tally.cycle_units[-1] = block

    def _check_payloads(self, replies: List[loadgen.Reply], tally: Tally) -> None:
        """Stored traces of a few fresh specs against local runs."""
        fresh = [r for r in replies if r.request.expect_hit is False and not self._problems(r)]
        rng = random.Random(f"{self.seed}:payloads")
        for reply in rng.sample(fresh, min(self.checked_payloads, len(fresh))):
            spec = json.loads(reply.request.body)["scenario"]
            fingerprint = reply.payload["fingerprint"]
            status, payload = self.server.call(loadgen.Request(
                "GET", f"/v1/runs/{fingerprint}?trace=1", b"", f"check-{fingerprint[:12]}",
            ))
            local = json.loads(json.dumps(result_to_dict(
                repro.run(scenario_from_dict(spec), backend="scalar")
            )))
            ok = status == 200 and payload.get("payload") == local
            tally.check(1, [] if ok else [f"run {fingerprint[:12]}: stored trace differs from a local run"])

    def run(self, seconds: float, trace_dir: Optional[Path]) -> Dict[str, Any]:
        tally = Tally()
        if trace_dir is None:
            replies = self._open_phase(seconds * 2 / 3, tally)
            self._closed_phase(seconds / 3, tally)
            self._check_payloads(replies, tally)
            rss = self.server.peak_rss_mb()
            metrics = {
                "cold_ms_p50": metric(median(tally.cold_ms), "ms", len(tally.cold_ms)),
                "warm_ms_p50": metric(median(tally.warm_ms), "ms", len(tally.warm_ms)),
                "throughput_per_s": metric(tally.throughput(), "1/s", len(tally.cycle_s)),
                "peak_rss_mb": metric(rss, "MB", 1),
            }
            return result(tally, metrics, self.detail(tally))

        # The plain server's open loop is the untraced reference for the
        # tracing overhead; the traced launcher then serves both phases.
        reference = self._open_phase(seconds / 3, tally)
        self.close()
        self.setup(trace_dir)
        traced_tally = Tally()
        traced = self._open_phase(seconds / 3, traced_tally)
        self._closed_phase(seconds / 3, traced_tally)
        sent, failed = traced_tally.attempted, traced_tally.failed
        self._check_payloads(traced, traced_tally)
        status, stats = self.server.call(loadgen.Request(
            "GET", "/v1/store/stats", b"", "check-stats",
        ))
        self.close()  # the server and its pool worker write their traces on exit
        lags = traced_tally.detail.get("lag_ms", [])
        extra = {
            "trace.overhead": (
                median([r.latency_s for r in traced]) / median([r.latency_s for r in reference])
            ),
            "store.bytes_per_run": (
                stats["payload_bytes"] / stats["entries"] if status == 200 and stats["entries"] else 0.0
            ),
            "loadgen.lag_ms_p99": percentile(lags, 99) if lags else 0.0,
            "loadgen.inflight_max": float(max(traced_tally.detail.get("inflight_max", [0]))),
            "loadgen.sent": float(sent),
            "loadgen.ok": float(sent - failed),
            "loadgen.failed": float(failed),
        }
        # The server and its pool worker run side by side and the traces
        # include the set-up requests, so shares here are of the two
        # processes' summed busy time rather than of the phase wall time.
        merged = load_dir(trace_dir)
        values = layer_metrics(merged, sum(layer_self_times(merged).values()), extra)
        tally.check(traced_tally.attempted, traced_tally.failures)
        return result(tally, layer_result(values), [f"traced requests {traced_tally.attempted}"])

    def detail(self, tally: Tally) -> List[str]:
        lines = latency_lines("hit_ms", tally.warm_ms) + latency_lines("miss_ms", tally.cold_ms)
        if tally.cycle_s:
            lines.append(f"sat_rps {tally.throughput():.3f} 1/s (closed loop, "
                         f"{loadgen.MAX_CONNECTIONS} connections, median of "
                         f"{len(tally.cycle_s)} blocks of replies)")
        lags = tally.detail.get("lag_ms", [])
        if lags:
            lines.append(f"loadgen_lag_ms_p99 {percentile(lags, 99):.3f} ms "
                         f"(inflight max {max(tally.detail['inflight_max']):g})")
        return lines


WORKLOADS = {
    cls.name: cls for cls in (PanelsSignal, SsrBatch, SweepStore, ServiceMixed)
}


def run_child(name: str, role: str, seed: int, seconds: float, trace: bool,
              smoke: bool, trace_dir: Path) -> int:
    """Body of one workload subprocess: set up, report ready, measure."""
    workdir = E2E_DIR / ".work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, workdir, smoke, paired=trace)
    try:
        workload.setup()
        print("@@ready", flush=True)
        if role == "measure":
            if trace:
                shutil.rmtree(trace_dir, ignore_errors=True)
            outcome = workload.run(seconds, trace_dir if trace else None)
            print("@@result " + json.dumps(outcome), flush=True)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return 0
