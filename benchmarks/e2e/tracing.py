"""Outside-in span tracer for the end-to-end benchmark.

The benchmark adds no spans inside ``src/``.  For the duration of a
traced operation, :class:`Tracer` replaces the public functions and
methods listed in :data:`TARGETS` with timing wrappers and restores
the originals afterwards.  Each wrapper records one span (name, layer,
start, end, parent, trace id) on a per-task stack, so a layer's *self
time* is its span's duration minus the part its child spans cover.  A
coroutine span (the service's request handler) counts only the steps
it runs itself: waiting, and other requests' steps on the same event
loop, are not its self time.

Spans stay in memory.  Every span's duration and self time go into
per-name arrays; coarse spans (one per run, batch, store call or
request) are also kept as full records.  :meth:`Tracer.dump` writes
them as one JSONL file per process: the benchmark process, the pool
workers it forks (they inherit the wrappers and dump when they exit)
and the traced server launcher (``serve_traced.py``).  While a tracer
is installed it also runs a :mod:`repro.telemetry` session, so the
program's own counters land in the same file.  :func:`load_dir` merges
the files and :func:`layer_metrics` derives the per-layer metrics that
``BENCHMARK.json`` names.
"""

from __future__ import annotations

import array
import base64
import contextvars
import functools
import importlib
import inspect
import itertools
import json
import multiprocessing.util
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import percentile

__all__ = [
    "Target",
    "TARGETS",
    "PER_LAYER_UNITS",
    "Tracer",
    "Merged",
    "load_dir",
    "layer_self_times",
    "layer_metrics",
]

#: Span layer of the benchmark's own root spans (one per timed operation).
BENCH_LAYER = "bench"


@dataclass(frozen=True)
class Target:
    """One public callable the tracer wraps.

    ``attr`` is ``"function"`` or ``"Class.method"`` inside ``module``;
    ``aliases`` are further modules that imported the function by name
    at import time and so need the wrapper bound there too.  Coarse
    spans are also kept as full records in the trace file.
    """

    module: str
    attr: str
    span: str
    layer: str
    coarse: bool = False
    aliases: Tuple[str, ...] = ()


TARGETS: Tuple[Target, ...] = (
    Target("repro.radar.sensor", "FMCWRadarSensor.measure", "radar.measure", "radar"),
    Target("repro.core.pipeline", "SafeMeasurementPipeline.process", "core.pipeline", "core"),
    Target("repro.core.dead_reckoning", "DeadReckoningEstimator.observe", "core.estimator", "core"),
    Target("repro.core.dead_reckoning", "DeadReckoningEstimator.forecast", "core.estimator", "core"),
    Target("repro.core.predictor", "RadarChannelEstimator.observe", "core.estimator", "core"),
    Target("repro.core.predictor", "RadarChannelEstimator.forecast", "core.estimator", "core"),
    Target("repro.core.predictor", "ChannelPredictor.observe", "core.rls", "core"),
    Target("repro.core.predictor", "ChannelPredictor.forecast", "core.rls", "core"),
    Target("repro.defense.estimator", "SecureReconstructionEstimator.observe", "defense.ssr", "defense"),
    Target("repro.defense.estimator", "SecureReconstructionEstimator.forecast", "defense.ssr", "defense"),
    Target("repro.defense.safety_filter", "SafetyFilter.clamp", "defense.clamp", "defense"),
    Target("repro.vehicle.acc", "ACCSystem.step", "vehicle.acc_step", "vehicle"),
    Target("repro.simulation.results", "SimulationResult.record", "simulation.record", "simulation"),
    Target("repro.simulation.engine", "CarFollowingSimulation.run", "simulation.engine_run", "simulation", coarse=True),
    Target("repro.simulation.vectorized", "run_group_vectorized", "simulation.vector_group", "simulation", coarse=True),
    Target(
        "repro.simulation.batch", "execute_batch", "simulation.execute_batch", "simulation",
        coarse=True, aliases=("repro.simulation.sweep", "repro.service.jobs"),
    ),
    Target("repro.simulation.sweep", "run_sweep", "simulation.run_sweep", "simulation", coarse=True),
    Target("repro.facade", "run", "simulation.facade_run", "simulation", coarse=True, aliases=("repro",)),
    Target("repro.store.fingerprint", "run_fingerprint", "store.fingerprint", "store", aliases=("repro.service.jobs",)),
    Target("repro.store.runstore", "RunStore.get", "store.get", "store", coarse=True),
    Target("repro.store.runstore", "RunStore.put", "store.put", "store", coarse=True),
    Target("repro.store.sharded", "ShardedRunStore.get", "store.sharded_get", "store"),
    Target("repro.store.sharded", "ShardedRunStore.put", "store.sharded_put", "store"),
    Target("repro.simulation.spec", "scenario_from_dict", "service.parse", "service", aliases=("repro.service.jobs",)),
    Target("repro.service.app", "ServiceApp.handle", "service.handle", "service", coarse=True),
)

#: Every per-layer metric the traced run reports, with its unit.  The
#: names and units must match ``per_layer`` in ``BENCHMARK.json``.
PER_LAYER_UNITS: Dict[str, str] = {
    "radar.measure_us_p50": "us",
    "radar.share": "ratio",
    "core.pipeline_self_us_p50": "us",
    "core.rls_window_ns": "ns",
    "core.share": "ratio",
    "defense.ssr_step_us_p50": "us",
    "defense.ssr_step_us_p99": "us",
    "defense.ssr_share": "ratio",
    "defense.subsets_per_window": "count",
    "defense.pruned_ratio": "ratio",
    "defense.geometry_hit_ratio": "ratio",
    "defense.filter_clamp_us_p50": "us",
    "defense.share": "ratio",
    "vehicle.acc_step_us_p50": "us",
    "vehicle.share": "ratio",
    "simulation.record_us_p50": "us",
    "simulation.engine_self_share": "ratio",
    "simulation.vector_group_ms_p50": "ms",
    "simulation.vector_group_runs_mean": "count",
    "simulation.vector_run_share": "ratio",
    "simulation.queue_wait_ms_p50": "ms",
    "simulation.share": "ratio",
    "sweep.rounds": "count",
    "sweep.executed_runs": "count",
    "sweep.scheduler_self_ms": "ms",
    "store.fingerprint_us_p50": "us",
    "store.put_us_p50": "us",
    "store.put_us_p95": "us",
    "store.get_us_p50": "us",
    "store.get_us_p95": "us",
    "store.bytes_per_run": "bytes",
    "store.write_retries": "count",
    "store.replay_hit_ratio": "ratio",
    "store.share": "ratio",
    "service.handle_us_p50": "us",
    "service.parse_us_p50": "us",
    "service.fingerprint_us_p50": "us",
    "service.store_get_us_p50": "us",
    "service.store_put_us_p50": "us",
    "service.execute_ms_p50": "ms",
    "service.hit_ratio": "ratio",
    "service.coalesced": "count",
    "service.share": "ratio",
    "loadgen.lag_ms_p99": "ms",
    "loadgen.inflight_max": "count",
    "loadgen.sent": "count",
    "loadgen.ok": "count",
    "loadgen.failed": "count",
    "trace.overhead": "ratio",
    "trace.coverage": "ratio",
    "bench.share": "ratio",
}

#: Spans the program itself emits through :mod:`repro.telemetry` that
#: the per-layer metrics read (durations only; they overlap the
#: tracer's own spans, so they take no part in self-time accounting).
TELEMETRY_SPANS = ("service.execute",)


class _Stat:
    __slots__ = ("layer", "durs", "selfs")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.durs = array.array("d")
        self.selfs = array.array("d")


def _encode(values) -> str:
    return base64.b64encode(array.array("d", values).tobytes()).decode("ascii")


def _decode(text: str) -> array.array:
    values = array.array("d")
    values.frombytes(base64.b64decode(text))
    return values


class Tracer:
    """Per-process span recorder that patches :data:`TARGETS` in and out.

    ``role`` labels the process in the trace file (``bench``,
    ``server``; forked children become ``worker``).  Install around
    each traced operation with :meth:`install` / :meth:`uninstall`,
    open the operation's root span with :meth:`root`, and call
    :meth:`dump` once at the end.
    """

    def __init__(self, trace_dir: Path, role: str) -> None:
        self.trace_dir = Path(trace_dir)
        self.role = role
        #: Operation kind the benchmark is timing ("cold" / "warm");
        #: store hooks attribute hits and misses to it.
        self.kind = role
        self._stack: contextvars.ContextVar = contextvars.ContextVar("e2e_stack")
        self._trace_id: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_trace", default=None
        )
        self._patches: List[Tuple[Any, str, Any]] = []
        self._telemetry = None
        self._reset()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _reset(self) -> None:
        self.origin = perf_counter()
        self.stats: Dict[str, _Stat] = {}
        self.spans: List[Tuple] = []
        #: Event counts and sampled values recorded by wrapper hooks.
        self.counts: Counter = Counter()
        self.lists: Dict[str, List[float]] = {}
        #: Counters read from the program's :mod:`repro.telemetry`.
        self.counters: Counter = Counter()
        self._root_stack: List[list] = []
        self._ids = itertools.count(1)

    def _after_fork(self) -> None:
        """In a forked pool worker: keep only the worker's own spans."""
        self.role = "worker"
        self._telemetry = None  # the parent's session; its counters are not ours
        self._reset()
        multiprocessing.util.Finalize(None, self.dump, exitpriority=10)

    # -- recording ------------------------------------------------------

    def _stack_now(self) -> List[list]:
        stack = self._stack.get(None)
        return self._root_stack if stack is None else stack

    def _record(self, name: str, layer: str, start: float, end: float,
                self_time: float, span_id: int, parent: Optional[int],
                coarse: bool) -> float:
        duration = end - start
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = _Stat(layer)
        stat.durs.append(duration)
        stat.selfs.append(self_time)
        if coarse:
            self.spans.append((
                name, start - self.origin, end - self.origin,
                span_id, parent, self._trace_id.get(),
            ))
        return duration

    def note(self, key: str, value: float) -> None:
        """Append one sampled value (e.g. a queue wait) under ``key``."""
        self.lists.setdefault(key, []).append(value)

    def root(self, name: str, trace_id: Any = None) -> "_RootSpan":
        """Context manager timing one benchmark operation as a root span."""
        return _RootSpan(self, name, trace_id)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer, name, layer, coarse = self, target.span, target.layer, target.coarse
        hook = _HOOKS.get(target.span)
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                # Each request task gets its own stack: concurrent tasks
                # on one event loop must not see each other's frames.
                request = args[1] if len(args) > 1 else None
                headers = getattr(request, "headers", None) or {}
                stack_token = tracer._stack.set([])
                trace_token = tracer._trace_id.set(headers.get("x-request-id"))
                frame = [0.0, next(tracer._ids)]
                tracer._stack_now().append(frame)
                busy = [0.0]
                start = perf_counter()
                try:
                    return await _Steps(fn(*args, **kwargs), frame, busy)
                finally:
                    tracer._record(name, layer, start, perf_counter(), busy[0],
                                   frame[1], None, coarse)
                    tracer._trace_id.reset(trace_token)
                    tracer._stack.reset(stack_token)

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack_now()
            parent = stack[-1] if stack else None
            frame = [0.0, next(tracer._ids)]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = tracer._record(
                    name, layer, start, end, end - start - frame[0], frame[1],
                    parent[1] if parent is not None else None, coarse,
                )
                if parent is not None:
                    parent[0] += duration
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------

    def install(self) -> None:
        """Bind the wrappers and start a :mod:`repro.telemetry` session."""
        from repro import telemetry

        if self._patches:
            return
        for target in TARGETS:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            wrapper = self._wrap(original, target)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            for alias in target.aliases:
                alias_module = importlib.import_module(alias)
                if getattr(alias_module, attr, None) is original:
                    self._patches.append((alias_module, attr, original))
                    setattr(alias_module, attr, wrapper)
        self._telemetry = telemetry.enable()

    def uninstall(self) -> None:
        """Restore the originals and fold the telemetry session in."""
        from repro import telemetry

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        session, self._telemetry = self._telemetry, None
        if session is not None:
            if telemetry.current() is session:
                telemetry.disable()
            self.counters.update(session.counters)
            for event in session.events:
                if event["name"] in TELEMETRY_SPANS:
                    self.note(event["name"], event["dur"])

    # -- output ---------------------------------------------------------

    def dump(self) -> Optional[Path]:
        """Write this process's spans as ``<trace_dir>/<role>-<pid>.jsonl``."""
        self.uninstall()
        if not self.stats and not self.counts and not self.counters:
            return None
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        path = self.trace_dir / f"{self.role}-{os.getpid()}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "process", "role": self.role,
                                 "pid": os.getpid()}) + "\n")
            for name, start, end, span_id, parent, trace in self.spans:
                fh.write(json.dumps({
                    "kind": "span", "name": name, "start": start, "end": end,
                    "id": span_id, "parent": parent, "trace": trace,
                }) + "\n")
            for name, stat in self.stats.items():
                fh.write(json.dumps({
                    "kind": "stat", "name": name, "layer": stat.layer,
                    "count": len(stat.durs), "durs": _encode(stat.durs),
                    "selfs": _encode(stat.selfs),
                }) + "\n")
            fh.write(json.dumps({
                "kind": "notes",
                "counts": dict(self.counts),
                "lists": {k: _encode(v) for k, v in self.lists.items()},
                "counters": dict(self.counters),
            }) + "\n")
        return path


class _Steps:
    """Await a coroutine while timing only the steps it runs itself.

    A coroutine's wall time includes waiting and the steps of other
    tasks on the same event loop; its *self* time here is the time its
    own steps ran, minus what its child spans took during them.
    """

    __slots__ = ("coro", "frame", "busy")

    def __init__(self, coro, frame: list, busy: list) -> None:
        self.coro, self.frame, self.busy = coro, frame, busy

    def __await__(self):
        coro, frame, busy = self.coro, self.frame, self.busy
        value, error = None, None
        while True:
            children = frame[0]
            start = perf_counter()
            try:
                yielded = coro.send(value) if error is None else coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                busy[0] += perf_counter() - start - (frame[0] - children)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # cancellation: hand it to the coroutine
                value, error = None, exc


class _RootSpan:
    """A benchmark operation: the root of every span it causes."""

    __slots__ = ("tracer", "name", "trace_id", "frame", "start", "_token")

    def __init__(self, tracer: Tracer, name: str, trace_id: Any) -> None:
        self.tracer, self.name, self.trace_id = tracer, name, trace_id

    def __enter__(self) -> "_RootSpan":
        self._token = self.tracer._trace_id.set(self.trace_id)
        self.frame = [0.0, next(self.tracer._ids)]
        self.tracer._stack_now().append(self.frame)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        self.tracer._stack_now().pop()
        self.tracer._record(self.name, BENCH_LAYER, self.start, end,
                            end - self.start - self.frame[0], self.frame[1], None, True)
        self.tracer._trace_id.reset(self._token)


# -- hooks: counts and samples read from the wrapped call's result --------


def _hook_batch(tracer: Tracer, args, result) -> None:
    for record in result.records:
        if not record.cached:
            tracer.note("queue_wait_s", record.queue_wait)
            tracer.counts[f"runs.{record.backend_used}"] += 1


def _hook_vector_group(tracer: Tracer, args, result) -> None:
    tracer.note("vector_group_runs", len(result))


def _hook_store_get(tracer: Tracer, args, result) -> None:
    outcome = "miss" if result is None else "hit"
    tracer.counts[f"store.get_{outcome}.{tracer.kind}"] += 1


def _hook_engine_run(tracer: Tracer, args, result) -> None:
    pipeline = getattr(args[0], "pipeline", None)
    if pipeline is not None and type(pipeline.estimator).__name__ in (
        "DeadReckoningEstimator", "RadarChannelEstimator",
    ):
        tracer.counts["rls_runs"] += 1


_HOOKS: Dict[str, Callable] = {
    "simulation.execute_batch": _hook_batch,
    "simulation.vector_group": _hook_vector_group,
    "store.get": _hook_store_get,
    "simulation.engine_run": _hook_engine_run,
}


# -- merging and metrics ---------------------------------------------------


@dataclass
class Merged:
    """Spans and counts of every process of one traced workload."""

    durs: Dict[str, array.array] = field(default_factory=dict)
    selfs: Dict[str, array.array] = field(default_factory=dict)
    layers: Dict[str, str] = field(default_factory=dict)
    #: ``role -> span name -> durations`` (the service metrics read
    #: the server's own spans only).
    by_role: Dict[str, Dict[str, array.array]] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)
    lists: Dict[str, List[float]] = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)


def load_dir(trace_dir: Path) -> Merged:
    """Merge every ``*.jsonl`` trace file in ``trace_dir``."""
    merged = Merged()
    for path in sorted(Path(trace_dir).glob("*.jsonl")):
        role = "?"
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                kind = record["kind"]
                if kind == "process":
                    role = record["role"]
                elif kind == "stat":
                    name = record["name"]
                    durs, selfs = _decode(record["durs"]), _decode(record["selfs"])
                    merged.layers[name] = record["layer"]
                    merged.durs.setdefault(name, array.array("d")).extend(durs)
                    merged.selfs.setdefault(name, array.array("d")).extend(selfs)
                    merged.by_role.setdefault(role, {}).setdefault(
                        name, array.array("d")
                    ).extend(durs)
                elif kind == "notes":
                    merged.counts.update(record["counts"])
                    merged.counters.update(record["counters"])
                    for key, text in record["lists"].items():
                        merged.lists.setdefault(key, []).extend(_decode(text))
    return merged


def layer_self_times(merged: Merged) -> Dict[str, float]:
    """Total self time (seconds) of every layer's spans."""
    by_layer: Dict[str, float] = {}
    for name, selfs in merged.selfs.items():
        layer = merged.layers[name]
        by_layer[layer] = by_layer.get(layer, 0.0) + sum(selfs)
    return by_layer


def layer_metrics(merged: Merged, wall_s: float, extra: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics from merged spans; ``extra`` supplies the rest.

    ``wall_s`` is the traced operations' wall time; shares are layer
    self time divided by it.  ``extra`` carries what the benchmark
    measures itself (sweep counts, defense statistics from results,
    load-generator numbers, the trace overhead); a metric absent from
    both reads 0.
    """

    def p(name: str, q: float, scale: float, role: Optional[str] = None) -> float:
        source = merged.by_role.get(role, {}) if role else merged.durs
        values = source.get(name)
        return percentile(values, q) * scale if values else 0.0

    def total_self(name: str) -> float:
        return sum(merged.selfs.get(name, ()))

    layer_self = layer_self_times(merged)
    wall = wall_s if wall_s > 0 else float("inf")
    covered = sum(v for k, v in layer_self.items() if k != BENCH_LAYER)
    counts, counters = merged.counts, merged.counters

    executed = sum(v for k, v in counts.items() if k.startswith("runs."))
    warm_gets = counts["store.get_hit.warm"] + counts["store.get_miss.warm"]
    server_hits = counters["service.cache_hit"]
    server_requests = server_hits + counters["service.executed"]
    groups = merged.lists.get("vector_group_runs", [])
    sweeps = len(merged.durs.get("simulation.run_sweep", ()))
    windows_ns = sum(merged.durs.get("core.rls", ())) * 1e9
    execute_s = merged.lists.get("service.execute", [])

    metrics = {
        "radar.measure_us_p50": p("radar.measure", 50, 1e6),
        "radar.share": layer_self.get("radar", 0.0) / wall,
        "core.pipeline_self_us_p50": (
            percentile(merged.selfs["core.pipeline"], 50) * 1e6
            if merged.selfs.get("core.pipeline") else 0.0
        ),
        "core.rls_window_ns": windows_ns / counts["rls_runs"] if counts["rls_runs"] else 0.0,
        "core.share": layer_self.get("core", 0.0) / wall,
        "defense.ssr_step_us_p50": p("defense.ssr", 50, 1e6),
        "defense.ssr_step_us_p99": p("defense.ssr", 99, 1e6),
        "defense.ssr_share": total_self("defense.ssr") / wall,
        "defense.filter_clamp_us_p50": p("defense.clamp", 50, 1e6),
        "defense.share": layer_self.get("defense", 0.0) / wall,
        "vehicle.acc_step_us_p50": p("vehicle.acc_step", 50, 1e6),
        "vehicle.share": layer_self.get("vehicle", 0.0) / wall,
        "simulation.record_us_p50": p("simulation.record", 50, 1e6),
        "simulation.engine_self_share": total_self("simulation.engine_run") / wall,
        "simulation.vector_group_ms_p50": p("simulation.vector_group", 50, 1e3),
        "simulation.vector_group_runs_mean": sum(groups) / len(groups) if groups else 0.0,
        "simulation.vector_run_share": (
            counts["runs.vectorized"] / executed if executed else 0.0
        ),
        "simulation.queue_wait_ms_p50": (
            percentile(merged.lists["queue_wait_s"], 50) * 1e3
            if merged.lists.get("queue_wait_s") else 0.0
        ),
        "simulation.share": layer_self.get("simulation", 0.0) / wall,
        "sweep.scheduler_self_ms": (
            total_self("simulation.run_sweep") * 1e3 / sweeps if sweeps else 0.0
        ),
        "store.fingerprint_us_p50": p("store.fingerprint", 50, 1e6),
        "store.put_us_p50": p("store.put", 50, 1e6),
        "store.put_us_p95": p("store.put", 95, 1e6),
        "store.get_us_p50": p("store.get", 50, 1e6),
        "store.get_us_p95": p("store.get", 95, 1e6),
        "store.write_retries": float(counters["store.write_retries"]),
        "store.replay_hit_ratio": (
            counts["store.get_hit.warm"] / warm_gets if warm_gets else 0.0
        ),
        "store.share": layer_self.get("store", 0.0) / wall,
        "service.handle_us_p50": p("service.handle", 50, 1e6, "server"),
        "service.parse_us_p50": p("service.parse", 50, 1e6, "server"),
        "service.fingerprint_us_p50": p("store.fingerprint", 50, 1e6, "server"),
        "service.store_get_us_p50": p("store.get", 50, 1e6, "server"),
        "service.store_put_us_p50": p("store.put", 50, 1e6, "server"),
        "service.execute_ms_p50": percentile(execute_s, 50) * 1e3 if execute_s else 0.0,
        "service.hit_ratio": server_hits / server_requests if server_requests else 0.0,
        "service.coalesced": float(counters["service.coalesced"]),
        "service.share": layer_self.get("service", 0.0) / wall,
        "trace.coverage": covered / wall,
        "bench.share": max(0.0, 1.0 - covered / wall),
    }
    for name in PER_LAYER_UNITS:
        metrics.setdefault(name, 0.0)
    metrics.update(extra)
    return metrics
