"""Parallel batch execution of independent simulation runs.

Every sweep in the repository — Monte-Carlo seed robustness, the
(baseline / attacked / defended) figure triple, platoon comparisons,
noise-sensitivity grids — is a set of *independent* closed-loop runs.
This module is the one substrate they all fan out through:

* :class:`RunSpec` describes one run (a car-following
  :class:`~repro.simulation.scenario.Scenario` or a
  :class:`~repro.simulation.platoon.PlatoonScenario`, plus the
  attack/defense toggles);
* :func:`execute_batch` distributes a list of specs over a
  ``ProcessPoolExecutor`` in chunks and returns ordered, structured
  :class:`RunRecord` entries (payload, wall-clock, worker pid, error);
* :func:`run_many` is the convenience wrapper returning just the
  payloads.

Determinism is by construction: each spec carries its full
configuration (including ``sensor_seed``), so a run's result does not
depend on which worker executes it or in what order — ``workers=4``
output is bit-identical to ``workers=1``.  :func:`derive_seeds` offers
a deterministic way to expand one base seed into per-run seeds.

``workers=1`` (the default) executes serially in-process with zero
overhead.  If the platform cannot spawn or sustain a process pool
(restricted sandboxes, missing ``/dev/shm``, unpicklable payloads,
...) the batch degrades to the serial path — never silently: a
``RuntimeWarning`` is emitted and :attr:`BatchResult.degraded_reason`
records the triggering pool-infrastructure error (``OSError``,
``BrokenExecutor``, pickling failures).  Any *other* exception escaping
the pool is a genuine bug and propagates instead of being retried
serially.

With an active :mod:`repro.telemetry` session, every executed spec
emits one ``batch.run`` span (worker pid, queue wait, cache-hit flag,
error status) and the batch-scoped aggregate is attached as
:attr:`BatchResult.telemetry` (``None`` when telemetry is off).

Determinism also makes runs *memoizable*: with ``cache=`` set to
``"readonly"`` or ``"readwrite"`` (or an explicit
:class:`repro.store.RunStore`), each spec is fingerprinted via
:mod:`repro.store.fingerprint` and store hits skip simulation entirely
— the replayed payload is bit-identical to a fresh run.

The ``backend=`` knob selects the engine (see
:mod:`repro.simulation.knobs`): ``"scalar"`` is the per-run engine
described above; ``"vectorized"`` advances homogeneous groups of runs
in lock-step through :mod:`repro.simulation.vectorized` (bit-identical
results, one numpy pass per step instead of N python step loops);
``"auto"`` vectorizes the groups that qualify and runs the rest on the
scalar path, recording the choice per run in
:attr:`RunRecord.backend_used`.
"""

from __future__ import annotations

import operator
import os
import pickle
import time
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.engine import CarFollowingSimulation
from repro.simulation.knobs import resolve_backend, validate_workers
from repro.simulation.results import SimulationResult
from repro.simulation.platoon import PlatoonScenario, PlatoonSimulation
from repro.simulation.scenario import Scenario
from repro.telemetry.summary import TelemetrySummary

__all__ = [
    "RunSpec",
    "RunRecord",
    "BatchResult",
    "execute_batch",
    "run_many",
    "derive_seeds",
]

#: A worker-side reducer applied to (spec, raw result) before the
#: payload travels back to the parent — must be a picklable callable
#: (module-level function) when ``workers > 1``.
Postprocess = Callable[["RunSpec", Any], Any]


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run.

    Attributes
    ----------
    scenario:
        A :class:`Scenario` (two-vehicle engine) or a
        :class:`PlatoonScenario` (N-follower engine).
    attack_enabled:
        Whether the scenario's attack is active.
    defended:
        Whether the CRA+RLS defense runs.  Platoon scenarios configure
        defense per-follower via ``defended_followers`` instead; the
        flag is ignored for them.
    tag:
        Caller-chosen label carried through to the :class:`RunRecord`
        (useful for regrouping sweep results).
    """

    scenario: Union[Scenario, PlatoonScenario]
    attack_enabled: bool = True
    defended: bool = True
    tag: str = ""


@dataclass(frozen=True)
class RunRecord:
    """Structured outcome of one executed :class:`RunSpec`.

    ``payload`` is the simulation result (or the postprocessed value)
    and is ``None`` when the run raised; ``error`` then holds the
    exception rendered as ``"ExcType: message"``.
    """

    index: int
    tag: str
    payload: Any
    elapsed: float
    worker_pid: int
    error: Optional[str] = None
    #: True when the payload was served from the run store
    #: (:mod:`repro.store`) instead of being simulated.
    cached: bool = False
    #: Seconds between batch submission and the run starting (pool
    #: scheduling latency; ~0 on the serial path and for cache hits).
    queue_wait: float = 0.0
    #: Which engine executed the run: ``"scalar"`` or ``"vectorized"``.
    #: ``None`` when nothing executed (the payload replayed from the
    #: run store).
    backend_used: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class BatchResult:
    """Ordered records of a batch plus execution metadata.

    ``workers`` is the worker count actually used; ``parallel`` tells
    whether a process pool ran the batch (``False`` for the serial
    path, including pool-unavailable fallback).

    ``degraded_reason`` is ``None`` for a batch that executed as
    requested; when the process pool could not be created or broke on a
    pool-infrastructure error, it holds that error rendered as
    ``"ExcType: message"`` and the batch was re-run serially (a
    ``RuntimeWarning`` is emitted at the same time, so the degradation
    is never silent).  Errors *inside* a run never set it — they are
    captured per-record — and non-infrastructure errors escaping the
    pool propagate instead of degrading.
    """

    records: Tuple[RunRecord, ...]
    workers: int
    parallel: bool
    elapsed: float
    #: Runs served from the run store instead of being simulated
    #: (always 0 when executed with ``cache`` off).
    cache_hits: int = 0
    #: Why the batch fell back to serial execution (``None`` if it
    #: did not) — see the class docstring.
    degraded_reason: Optional[str] = None
    #: Batch-scoped telemetry aggregate (``None`` unless a
    #: :mod:`repro.telemetry` session was active during execution).
    telemetry: Optional[TelemetrySummary] = None

    def payloads(self) -> List[Any]:
        """The per-run payloads, in submission order."""
        return [record.payload for record in self.records]

    def raise_on_error(self) -> "BatchResult":
        """Raise :class:`SimulationError` if any run failed."""
        failed = [record for record in self.records if not record.ok]
        if failed:
            first = failed[0]
            raise SimulationError(
                f"{len(failed)}/{len(self.records)} batch runs failed; "
                f"first failure (index {first.index}, tag {first.tag!r}): "
                f"{first.error}"
            )
        return self


def derive_seeds(base_seed: int, n: int) -> Tuple[int, ...]:
    """Expand one base seed into ``n`` decorrelated per-run seeds.

    Deterministic in ``(base_seed, n)`` and independent of execution
    order, so serial and parallel sweeps see the same seed list.  Built
    on :class:`numpy.random.SeedSequence`, whose spawn tree guarantees
    the derived streams are pairwise independent.

    Both arguments must be genuine integers (numpy integer scalars are
    fine); ``n`` must be non-negative (``n=0`` yields an empty tuple).
    Invalid inputs raise :class:`~repro.exceptions.ConfigurationError`
    up front rather than an opaque NumPy error from deep inside
    ``SeedSequence``.
    """
    try:
        base = operator.index(base_seed)
    except TypeError:
        raise ConfigurationError(
            f"base_seed must be an integer, got {base_seed!r} "
            f"({type(base_seed).__name__})"
        ) from None
    try:
        count = operator.index(n)
    except TypeError:
        raise ConfigurationError(
            f"n must be an integer, got {n!r} ({type(n).__name__})"
        ) from None
    if base < 0:
        raise ConfigurationError(f"base_seed must be >= 0, got {base}")
    if count < 0:
        raise ConfigurationError(f"n must be >= 0, got {count}")
    if count == 0:
        return ()
    state = np.random.SeedSequence(base).generate_state(count, np.uint32)
    return tuple(int(word) for word in state)


def _execute_spec(
    item: Tuple[int, RunSpec],
    postprocess: Optional[Postprocess] = None,
    submitted_at: Optional[float] = None,
) -> RunRecord:
    """Run one spec (in a worker or inline) and capture the outcome.

    ``submitted_at`` is the parent's ``time.time()`` at batch
    submission; the gap to the run actually starting is recorded as
    ``queue_wait`` (wall clocks are comparable across processes on one
    host, unlike ``perf_counter``).
    """
    index, spec = item
    queue_wait = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None else 0.0
    )
    start = time.perf_counter()
    try:
        if isinstance(spec.scenario, PlatoonScenario):
            result: Any = PlatoonSimulation(
                spec.scenario, attack_enabled=spec.attack_enabled
            ).run()
        else:
            result = CarFollowingSimulation(
                spec.scenario,
                attack_enabled=spec.attack_enabled,
                defended=spec.defended,
            ).run()
        payload = result if postprocess is None else postprocess(spec, result)
        error = None
    except Exception as exc:  # captured into the record, re-raised by callers
        payload = None
        error = f"{type(exc).__name__}: {exc}"
    return RunRecord(
        index=index,
        tag=spec.tag,
        payload=payload,
        elapsed=time.perf_counter() - start,
        worker_pid=os.getpid(),
        error=error,
        queue_wait=queue_wait,
        backend_used="scalar",
    )


def _default_chunksize(n_specs: int, workers: int) -> int:
    """Chunk so each worker sees ~4 chunks (amortizes IPC, keeps the
    tail balanced when run times vary)."""
    return max(1, n_specs // (workers * 4))


def _run_serial(
    items: Sequence[Tuple[int, RunSpec]],
    postprocess: Optional[Postprocess],
    submitted_at: Optional[float] = None,
) -> List[RunRecord]:
    return [
        _execute_spec(item, postprocess, submitted_at=submitted_at)
        for item in items
    ]


#: Pool-infrastructure failures that justify re-running the batch
#: serially: the pool could not be created (sandboxed ``/dev/shm``,
#: fork limits, missing ``_multiprocessing``), broke mid-batch, or the
#: payloads could not cross the process boundary.  Everything else is
#: a real bug in the caller's code and must propagate.
_POOL_INFRA_ERRORS = (OSError, ImportError, BrokenExecutor, pickle.PicklingError)


def execute_batch(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    chunksize: Optional[int] = None,
    postprocess: Optional[Postprocess] = None,
    cache: Any = None,
    backend: Optional[str] = None,
) -> BatchResult:
    """Execute independent runs, fanning out over a process pool.

    Parameters
    ----------
    specs:
        The runs; results come back in the same order.
    workers:
        Process count for the scalar engine.  ``1`` (default) runs
        serially in-process; more than ``len(specs)`` is clamped.
        Vectorized groups always execute in the calling process.
    chunksize:
        Specs handed to a worker per dispatch; defaults to
        ``len(specs) // (workers * 4)`` (at least 1).
    postprocess:
        Optional reducer ``(spec, result) -> payload`` applied worker-
        side — use a module-level function so it pickles; lets sweeps
        return small summaries instead of full trace containers.
    cache:
        Run-store policy (see :mod:`repro.store.cache`): ``None`` /
        ``"off"`` (default) bypasses the store entirely;
        ``"readonly"`` serves fingerprint hits from the store;
        ``"readwrite"`` additionally stores computed misses.  A
        :class:`~repro.store.RunStore` or
        :class:`~repro.store.CacheBinding` selects an explicit store.
        Results are bit-identical in every mode; only wall-clock
        changes.  Uncacheable specs (platoons) always compute.
    backend:
        Engine selection (see :mod:`repro.simulation.knobs`):
        ``"scalar"``, ``"vectorized"``, ``"auto"``, or ``None``
        (default — reads :envvar:`REPRO_BACKEND`, else scalar).
        ``"vectorized"`` requires every spec to be vectorizable and
        raises :class:`~repro.exceptions.ConfigurationError` naming
        the blocking feature otherwise; ``"auto"`` silently runs
        non-qualifying specs on the scalar engine.  Results are
        bit-identical across backends; each record's
        :attr:`RunRecord.backend_used` says which engine ran it.

    Errors inside a run are captured per-record (``RunRecord.error``);
    call :meth:`BatchResult.raise_on_error` to surface them.  If the
    pool itself cannot be created or breaks on a pool-infrastructure
    error, the batch re-runs serially, warns, and records the cause in
    :attr:`BatchResult.degraded_reason`; other errors propagate.
    """
    workers = validate_workers(workers)
    backend = resolve_backend(backend)
    if not specs:
        return BatchResult(records=(), workers=workers, parallel=False, elapsed=0.0)

    tele = _telemetry.current()
    mark = tele.mark() if tele is not None else None

    binding = None
    if cache is not None and cache != "off":
        from repro.store.cache import resolve_cache

        binding = resolve_cache(cache)
    if binding is None:
        result = _execute_batch_plain(
            specs,
            workers=workers,
            chunksize=chunksize,
            postprocess=postprocess,
            backend=backend,
        )
    else:
        try:
            result = _execute_batch_cached(
                specs,
                binding,
                workers=workers,
                chunksize=chunksize,
                postprocess=postprocess,
                backend=backend,
            )
        finally:
            if binding.owns_store:
                binding.store.close()

    if tele is not None and mark is not None:
        _emit_batch_telemetry(tele, result)
        result = replace(result, telemetry=tele.summary_since(mark))
    return result


def _emit_batch_telemetry(tele: "_telemetry.Telemetry", result: BatchResult) -> None:
    """One ``batch.run`` span per executed spec, plus batch counters."""
    for record in result.records:
        tele.emit(
            "batch.run",
            record.elapsed,
            attrs={
                "index": record.index,
                "tag": record.tag,
                "worker_pid": record.worker_pid,
                "queue_wait": round(record.queue_wait, 6),
                "cached": record.cached,
                "ok": record.ok,
                "backend": record.backend_used,
            },
        )
    tele.incr("batch.batches")
    tele.incr("batch.runs", len(result.records))
    if result.cache_hits:
        tele.incr("batch.cache_hits", result.cache_hits)
    if result.degraded_reason is not None:
        tele.incr("batch.degraded")


def _execute_batch_plain(
    specs: Sequence[RunSpec],
    *,
    workers: int,
    chunksize: Optional[int],
    postprocess: Optional[Postprocess],
    backend: str = "scalar",
) -> BatchResult:
    """The store-free execution path (pre-cache behavior, unchanged)."""
    if backend != "scalar":
        return _execute_batch_vector(
            specs,
            workers=workers,
            chunksize=chunksize,
            postprocess=postprocess,
            backend=backend,
        )
    items = list(enumerate(specs))
    start = time.perf_counter()
    submitted_at = time.time()
    effective = min(workers, len(items))
    if effective == 1:
        records = _run_serial(items, postprocess, submitted_at=submitted_at)
        return BatchResult(
            records=tuple(records),
            workers=1,
            parallel=False,
            elapsed=time.perf_counter() - start,
        )

    degraded_reason: Optional[str] = None
    try:
        import functools
        from concurrent.futures import ProcessPoolExecutor

        call = functools.partial(
            _execute_spec, postprocess=postprocess, submitted_at=submitted_at
        )
        with ProcessPoolExecutor(max_workers=effective) as pool:
            records = list(
                pool.map(
                    call,
                    items,
                    chunksize=chunksize or _default_chunksize(len(items), effective),
                )
            )
        parallel = True
    except _POOL_INFRA_ERRORS as exc:
        # Pool unavailable or broken (sandboxed /dev/shm, fork limits,
        # unpicklable payloads, ...): degrade to the serial path, which
        # by construction produces identical results — but say so, and
        # record why.  Anything outside _POOL_INFRA_ERRORS is a real
        # bug and propagates rather than silently discarding the pool's
        # completed work.
        degraded_reason = f"{type(exc).__name__}: {exc}"
        warnings.warn(
            f"process pool unavailable or broken ({degraded_reason}); "
            f"re-running the {len(items)}-spec batch serially",
            RuntimeWarning,
            stacklevel=3,
        )
        records = _run_serial(items, postprocess, submitted_at=submitted_at)
        effective = 1
        parallel = False
    return BatchResult(
        records=tuple(records),
        workers=effective,
        parallel=parallel,
        elapsed=time.perf_counter() - start,
        degraded_reason=degraded_reason,
    )


def _run_vector_group(
    members: Sequence[Tuple[int, RunSpec]],
    postprocess: Optional[Postprocess],
) -> Optional[List[RunRecord]]:
    """Execute one homogeneous group on the vectorized engine.

    Returns the group's records (submission indices preserved), or
    ``None`` — after a ``RuntimeWarning`` — when the engine raised, so
    the caller re-runs the group on the scalar engine.  A vectorized
    group cannot attribute a mid-loop exception to a single run, while
    the scalar re-run captures errors per-record as usual (and, by the
    equivalence contract, produces the same payloads for the runs that
    succeed).
    """
    from repro.simulation.vectorized import run_group_vectorized

    start = time.perf_counter()
    try:
        results = run_group_vectorized([spec for _, spec in members])
    except Exception as exc:
        warnings.warn(
            f"vectorized group of {len(members)} runs failed "
            f"({type(exc).__name__}: {exc}); re-running the group on the "
            f"scalar engine",
            RuntimeWarning,
            stacklevel=5,
        )
        return None
    # One lock-step loop produced the whole group; attribute the group's
    # wall-clock evenly (per-run stage timing has no meaning here).
    per_run = (time.perf_counter() - start) / len(members)
    records: List[RunRecord] = []
    for (index, spec), result in zip(members, results):
        if postprocess is None:
            payload, error = result, None
        else:
            payload, error = _apply_postprocess(postprocess, spec, result)
        records.append(
            RunRecord(
                index=index,
                tag=spec.tag,
                payload=payload,
                elapsed=per_run,
                worker_pid=os.getpid(),
                error=error,
                backend_used="vectorized",
            )
        )
    return records


def _execute_batch_vector(
    specs: Sequence[RunSpec],
    *,
    workers: int,
    chunksize: Optional[int],
    postprocess: Optional[Postprocess],
    backend: str,
) -> BatchResult:
    """Dispatch a batch under ``backend='vectorized'`` or ``'auto'``.

    Specs are partitioned into homogeneous vector groups (same scenario
    up to ``sensor_seed``/``name``, same toggles — see
    :func:`repro.simulation.vectorized.group_key`) and a scalar
    remainder.  Strict ``"vectorized"`` refuses any remainder up front,
    naming the blocking feature; ``"auto"`` additionally leaves
    singleton groups on the scalar engine (no lock-step win for one
    run) and re-runs a group on the scalar engine if the vectorized
    engine raises.  The scalar remainder goes through the ordinary
    pool/serial machinery, so ``workers`` keeps its meaning there.
    """
    from repro.simulation.vectorized import group_key, vectorization_blocker

    start = time.perf_counter()
    items = list(enumerate(specs))
    groups: dict = {}
    scalar_items: List[Tuple[int, RunSpec]] = []
    for index, spec in items:
        blocker = vectorization_blocker(spec)
        if blocker is not None:
            if backend == "vectorized":
                tag = f" (tag {spec.tag!r})" if spec.tag else ""
                raise ConfigurationError(
                    f"backend='vectorized' cannot execute spec {index}{tag}: "
                    f"{blocker}; use backend='auto' to fall back to the "
                    f"scalar engine"
                )
            scalar_items.append((index, spec))
            continue
        groups.setdefault(group_key(spec), []).append((index, spec))
    if backend == "auto":
        # A singleton gains nothing from lock-step; keep it scalar.
        for key in [k for k, members in groups.items() if len(members) < 2]:
            scalar_items.extend(groups.pop(key))

    records: dict = {}
    for members in groups.values():
        group_records = _run_vector_group(members, postprocess)
        if group_records is None:
            scalar_items.extend(members)
        else:
            for record in group_records:
                records[record.index] = record

    parallel, degraded_reason, effective = False, None, 1
    if scalar_items:
        scalar_items.sort()
        inner = _execute_batch_plain(
            [spec for _, spec in scalar_items],
            workers=workers,
            chunksize=chunksize,
            postprocess=postprocess,
            backend="scalar",
        )
        parallel, degraded_reason = inner.parallel, inner.degraded_reason
        effective = inner.workers
        for (index, _), record in zip(scalar_items, inner.records):
            records[index] = replace(record, index=index)
    return BatchResult(
        records=tuple(records[index] for index, _ in items),
        workers=effective,
        parallel=parallel,
        elapsed=time.perf_counter() - start,
        degraded_reason=degraded_reason,
    )


def _apply_postprocess(
    postprocess: Postprocess, spec: RunSpec, result: Any
) -> Tuple[Any, Optional[str]]:
    """Run a reducer parent-side with worker-equivalent error capture."""
    try:
        return postprocess(spec, result), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


#: Per-worker-process cache of opened directory stores, keyed by
#: (directory, file count).  A pool worker re-used across chunks keeps
#: its file connections open instead of reconnecting per run.
_WORKER_STORES: dict = {}


def _worker_store(path: str, shards: int) -> Any:
    key = (path, shards)
    store = _WORKER_STORES.get(key)
    if store is None:
        from repro.store.runstore import RunStore

        store = RunStore(path, shards=shards)
        _WORKER_STORES[key] = store
    return store


@dataclass(frozen=True)
class _StoreWritingPostprocess:
    """Worker-side store writer wrapped around the user's reducer.

    With a single-file store, cache-aware batches keep every write in
    the parent (one WAL file serializes its writers anyway) — which
    also forces raw :class:`SimulationResult` payloads across the
    process boundary.  A store of ``shards > 1`` files flips both
    costs: this wrapper runs inside the pool worker, writes the freshly
    computed result into the worker's own file connection (fingerprint
    routing means distinct files never contend), and only then applies
    the user's reducer — so the parent receives the reduced payload and
    performs no store writes at all.

    Picklable by construction (the store travels as its directory path
    + file count and is reopened lazily per worker process via
    :data:`_WORKER_STORES`).  Under serial degradation the wrapper
    simply runs in the parent process and stays correct.  A store
    write failure fails the run (captured per-record like any other
    run error).
    """

    path: str
    shards: int
    postprocess: Optional[Postprocess] = None

    def __call__(self, spec: RunSpec, result: Any) -> Any:
        if isinstance(result, SimulationResult):
            from repro.simulation.spec import scenario_to_dict
            from repro.store.fingerprint import run_fingerprint

            fingerprint = run_fingerprint(spec)
            if fingerprint is not None:
                _worker_store(self.path, self.shards).put(
                    fingerprint,
                    result,
                    spec_dict=scenario_to_dict(spec.scenario),
                    attack_enabled=spec.attack_enabled,
                    defended=spec.defended,
                    sensor_seed=spec.scenario.sensor_seed,
                    horizon=spec.scenario.horizon,
                )
        if self.postprocess is None:
            return result
        return self.postprocess(spec, result)


def _execute_batch_cached(
    specs: Sequence[RunSpec],
    binding: Any,
    *,
    workers: int,
    chunksize: Optional[int],
    postprocess: Optional[Postprocess],
    backend: str = "scalar",
) -> BatchResult:
    """Serve fingerprint hits from the run store; compute the misses.

    With a single-file store the store is only ever touched from the
    calling process — workers never hold a SQLite connection, and in
    ``readwrite`` mode they return raw
    :class:`~repro.simulation.results.SimulationResult` payloads (any
    ``postprocess`` is applied parent-side after the store write).  A
    store of ``shards > 1`` files instead has each pool worker write
    its own files directly via
    :class:`_StoreWritingPostprocess` — the reducer then runs
    worker-side and raw payloads never cross the process boundary.
    Either way a sweep's reducer sees the same values whether its
    input was computed or replayed.
    """
    from repro.store.fingerprint import run_fingerprint

    start = time.perf_counter()
    items = list(enumerate(specs))
    records: dict = {}
    misses: List[Tuple[int, RunSpec, Optional[str]]] = []
    for index, spec in items:
        lookup_start = time.perf_counter()
        fingerprint = run_fingerprint(spec)
        hit = binding.store.get(fingerprint) if fingerprint is not None else None
        if hit is None:
            misses.append((index, spec, fingerprint))
            continue
        if postprocess is None:
            payload, error = hit, None
        else:
            payload, error = _apply_postprocess(postprocess, spec, hit)
        records[index] = RunRecord(
            index=index,
            tag=spec.tag,
            payload=payload,
            elapsed=time.perf_counter() - lookup_start,
            worker_pid=os.getpid(),
            error=error,
            cached=True,
        )

    inner_workers, parallel = 1, False
    degraded_reason: Optional[str] = None
    if misses:
        # A store of several files lets each worker write its own
        # files and ship only the reduced payload back; a one-file
        # store keeps every write in the parent (one WAL file
        # serializes its writers), which also needs the raw result back.
        worker_writes = (
            binding.writes
            and workers > 1
            and backend == "scalar"
            and binding.store.shards > 1
        )
        if worker_writes:
            binding.store.prepare()
            worker_postprocess: Optional[Postprocess] = _StoreWritingPostprocess(
                path=str(binding.store.path),
                shards=binding.store.shards,
                postprocess=postprocess,
            )
        else:
            worker_postprocess = None if binding.writes else postprocess
        inner = _execute_batch_plain(
            [spec for _, spec, _ in misses],
            workers=workers,
            chunksize=chunksize,
            postprocess=worker_postprocess,
            backend=backend,
        )
        inner_workers, parallel = inner.workers, inner.parallel
        degraded_reason = inner.degraded_reason
        for (index, spec, fingerprint), record in zip(misses, inner.records):
            payload, error = record.payload, record.error
            if worker_writes:
                # The worker already stored the result and applied the
                # user's reducer; count the write parent-side (worker
                # processes have no telemetry session).
                if record.ok and fingerprint is not None:
                    _telemetry.incr("store.worker_writes")
            elif binding.writes and record.ok:
                if fingerprint is not None and isinstance(
                    payload, SimulationResult
                ):
                    from repro.simulation.spec import scenario_to_dict

                    binding.store.put(
                        fingerprint,
                        payload,
                        spec_dict=scenario_to_dict(spec.scenario),
                        attack_enabled=spec.attack_enabled,
                        defended=spec.defended,
                        sensor_seed=spec.scenario.sensor_seed,
                        horizon=spec.scenario.horizon,
                    )
                if postprocess is not None:
                    payload, error = _apply_postprocess(
                        postprocess, spec, payload
                    )
            records[index] = RunRecord(
                index=index,
                tag=spec.tag,
                payload=payload,
                elapsed=record.elapsed,
                worker_pid=record.worker_pid,
                error=error,
                queue_wait=record.queue_wait,
                backend_used=record.backend_used,
            )

    return BatchResult(
        records=tuple(records[index] for index, _ in items),
        workers=inner_workers,
        parallel=parallel,
        elapsed=time.perf_counter() - start,
        cache_hits=len(items) - len(misses),
        degraded_reason=degraded_reason,
    )


def run_many(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
    chunksize: Optional[int] = None,
    postprocess: Optional[Postprocess] = None,
    cache: Any = None,
    backend: Optional[str] = None,
) -> List[Any]:
    """Execute a batch and return just the ordered payloads.

    Raises :class:`SimulationError` if any run failed.  ``cache``
    selects the run-store policy and ``backend`` the engine (see
    :func:`execute_batch` — both knobs have identical semantics here).
    """
    return (
        execute_batch(
            specs,
            workers=workers,
            chunksize=chunksize,
            postprocess=postprocess,
            cache=cache,
            backend=backend,
        )
        .raise_on_error()
        .payloads()
    )
