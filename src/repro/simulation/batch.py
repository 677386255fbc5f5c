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
  payloads;
* :class:`SummaryReducer` marks a reducer that needs only a run's
  :class:`~repro.simulation.results.ResultSummary`.

Determinism is by construction: each spec carries its full
configuration (including ``sensor_seed``), so a run's result does not
depend on which worker executes it or in what order — ``workers=4``
output is bit-identical to ``workers=1``.  :func:`derive_seeds` offers
a deterministic way to expand one base seed into per-run seeds.

Determinism also lets runs share work.  Specs whose scenarios differ
only in the attack (and the name) and that share the ``defended``
toggle are bit-identical until the earliest attack of the group
starts — a figure's baseline and attacked runs, or the defended runs
of fig2a and fig2b.  The scalar engine runs such a prefix once: the
first spec of the group runs whole and snapshots the engine state at
the branch point, and the others resume from the snapshot (see
:class:`~repro.simulation.engine.RunSnapshot`).  Groups form only
among the specs one process runs one after another — the whole miss
list when serial, one chunk on the pool path — so a run spread over
the pool never waits for a prefix another worker computes.  Every result, and what the store
keeps of it, is the same as the spec run alone.

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
— the replayed payload is bit-identical to a fresh run.  A
:class:`SummaryReducer`'s hits read only the row's stored summary, not
its trace payload.  Cached and
uncached batches share one dispatch (with cache off the lookup simply
finds no hits).  In ``readwrite`` mode whoever computes a run stores
it: a pool worker writes its own results, whatever the store's file
count and whichever engine ran them, so only reduced payloads cross
the process boundary; telemetry counts those writes as
``store.worker_writes``.  Serial runs are written by the calling
process.

The ``backend=`` knob selects the engine (see
:mod:`repro.simulation.knobs`): ``"scalar"`` is the per-run engine
described above; ``"vectorized"`` advances homogeneous groups of runs
in lock-step through :mod:`repro.simulation.vectorized` (bit-identical
results, one numpy pass per step instead of N python step loops);
``"auto"`` vectorizes the groups that qualify and runs the rest on the
scalar path, recording the choice per run in
:attr:`RunRecord.backend_used`.  ``workers`` means the same on every
backend: a vector group is one pool task, like a chunk of scalar runs.
Pool workers have no telemetry session, so the ``vector.*`` counters
of pooled groups, like the ``engine.*`` counters of pooled scalar runs,
are not counted.
"""

from __future__ import annotations

import math
import operator
import os
import pickle
import time
import warnings
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass, replace
from functools import cached_property, partial
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks import Attack, AttackSchedule, NoAttack
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation.engine import CarFollowingSimulation, RunSnapshot
from repro.simulation.knobs import resolve_backend, validate_workers
from repro.simulation.results import ResultSummary, SimulationResult
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
    "SummaryReducer",
]

#: A worker-side reducer applied to (spec, raw result) before the
#: payload travels back to the parent — must be a picklable callable
#: (module-level function) when ``workers > 1``.
Postprocess = Callable[["RunSpec", Any], Any]


@dataclass(frozen=True)
class SummaryReducer:
    """A reducer that needs only a run's :class:`ResultSummary`.

    ``fn(spec, summary)`` sees the same summary however the run was
    obtained: a computed run's ``result.summary()`` (serial, pooled or
    vectorized), or, on a cache hit, the row's stored summary
    (:meth:`~repro.store.runstore.RunStore.summary`), so the hit
    decodes no trace payload.  Picklable when ``fn`` is a module-level
    function.
    """

    fn: Callable[["RunSpec", ResultSummary], Any]

    def __call__(self, spec: "RunSpec", result: SimulationResult) -> Any:
        return self.fn(spec, result.summary())


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

    @cached_property
    def _fingerprint(self) -> Optional[str]:
        """The run-store key (:func:`repro.store.fingerprint.run_fingerprint`).

        Computed once per spec object and pickled with it, so the store
        lookup and the store write of one run hash the spec only once.
        """
        from repro.store.fingerprint import run_fingerprint

        return run_fingerprint(self)


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
    #: Seconds the run took.  A run that branched from another run's
    #: pre-attack prefix counts only its own suffix; the run that
    #: computed the prefix (the trunk) counts the prefix too.
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
    fine, booleans are not); ``n`` must be non-negative (``n=0`` yields
    an empty tuple).  Invalid inputs raise
    :class:`~repro.exceptions.ConfigurationError` up front rather than
    an opaque NumPy error from deep inside ``SeedSequence``.
    """
    try:
        if isinstance(base_seed, bool):  # an int subclass, but not a seed
            raise TypeError
        base = operator.index(base_seed)
    except TypeError:
        raise ConfigurationError(
            f"base_seed must be an integer, got {base_seed!r} "
            f"({type(base_seed).__name__})"
        ) from None
    try:
        if isinstance(n, bool):
            raise TypeError
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
    *,
    snapshot_at: Optional[float] = None,
    resume_from: Optional[RunSnapshot] = None,
) -> Tuple[RunRecord, Optional[RunSnapshot]]:
    """Run one spec (in a worker or inline) and capture the outcome.

    ``submitted_at`` is the parent's ``time.time()`` at batch
    submission; the gap to the run actually starting is recorded as
    ``queue_wait`` (wall clocks are comparable across processes on one
    host, unlike ``perf_counter``).  ``snapshot_at`` and
    ``resume_from`` go to the engine (see
    :class:`~repro.simulation.engine.CarFollowingSimulation`); the
    snapshot the run took, if any, is returned next to its record.
    """
    index, spec = item
    queue_wait = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None else 0.0
    )
    start = time.perf_counter()
    snapshot = None
    try:
        if isinstance(spec.scenario, PlatoonScenario):
            result: Any = PlatoonSimulation(
                spec.scenario, attack_enabled=spec.attack_enabled
            ).run()
        else:
            simulation = CarFollowingSimulation(
                spec.scenario,
                attack_enabled=spec.attack_enabled,
                defended=spec.defended,
                snapshot_at=snapshot_at,
                resume_from=resume_from,
            )
            try:
                result = simulation.run()
            finally:
                snapshot = simulation.branch_snapshot
        payload = result if postprocess is None else postprocess(spec, result)
        error = None
    except Exception as exc:  # captured into the record, re-raised by callers
        payload = None
        error = f"{type(exc).__name__}: {exc}"
    record = RunRecord(
        index=index,
        tag=spec.tag,
        payload=payload,
        elapsed=time.perf_counter() - start,
        worker_pid=os.getpid(),
        error=error,
        queue_wait=queue_wait,
        backend_used="scalar",
    )
    return record, snapshot


def _attack_onset(attack: Any) -> Optional[float]:
    """The first instant ``attack`` can act; ``None`` when unknown.

    Known: an :class:`~repro.attacks.base.Attack` that keeps the base
    class's window gating, :class:`~repro.attacks.base.NoAttack` (never,
    ``inf``) and an :class:`~repro.attacks.scheduler.AttackSchedule` of
    known attacks.  Anything else may act at any time.
    """
    if isinstance(attack, NoAttack):
        return math.inf
    if isinstance(attack, AttackSchedule):
        onsets = [_attack_onset(member) for member in attack.attacks]
        return None if None in onsets else min(onsets, default=math.inf)
    if isinstance(attack, Attack) and type(attack).effect_at is Attack.effect_at:
        return attack.window.start
    return None


def _attack_start(spec: RunSpec) -> Optional[float]:
    """When the spec's effective attack starts (``inf``: no attack)."""
    attack = spec.scenario.attack if spec.attack_enabled else None
    return math.inf if attack is None else _attack_onset(attack)


def _prefix_key(spec: RunSpec) -> Optional[Tuple[str, bool]]:
    """Key of the specs whose runs are bit-identical until an attack.

    Specs share it when their scenarios are equal once ``attack`` and
    ``name`` are dropped (compared through the declarative spec dict,
    as fingerprints are) and their ``defended`` toggles match; their
    effective attacks may differ.  ``None`` for a spec that runs whole:
    a platoon, an attack with no known start, or a scenario with no
    spec form.
    """
    scenario = spec.scenario
    if not isinstance(scenario, Scenario) or _attack_start(spec) is None:
        return None
    from repro.simulation.spec import scenario_to_dict
    from repro.store.fingerprint import canonical_json

    try:
        body = canonical_json(
            scenario_to_dict(replace(scenario, attack=None, name=""))
        )
    except (ConfigurationError, TypeError):
        return None
    return body, bool(spec.defended)


def _run_group(
    members: Sequence[Tuple[int, RunSpec]],
    postprocess: Optional[Postprocess],
    submitted_at: Optional[float],
) -> List[RunRecord]:
    """Run specs that share a prefix key: the prefix once, then branch.

    The first member (the trunk) runs whole and snapshots its state
    before the earliest attack start of the group; every other member
    resumes from that snapshot.  A group whose earliest attack starts
    at the first step has no prefix, and a trunk that failed before the
    snapshot leaves the others to run whole.
    """
    branch_at = min(_attack_start(spec) for _, spec in members)
    if len(members) == 1 or branch_at <= 0.0:
        return [_execute_spec(item, postprocess, submitted_at)[0] for item in members]
    trunk, snapshot = _execute_spec(
        members[0], postprocess, submitted_at, snapshot_at=branch_at
    )
    records = [trunk]
    for item in members[1:]:
        records.append(
            _execute_spec(item, postprocess, submitted_at, resume_from=snapshot)[0]
        )
        if snapshot is not None:
            _telemetry.incr("batch.branched_runs")
    return records


def _default_chunksize(n_specs: int, workers: int) -> int:
    """Chunk so each worker sees ~4 chunks (amortizes IPC, keeps the
    tail balanced when run times vary)."""
    return max(1, n_specs // (workers * 4))


def _run_serial(
    items: Sequence[Tuple[int, RunSpec]],
    postprocess: Optional[Postprocess],
    submitted_at: Optional[float] = None,
) -> List[RunRecord]:
    """Run ``items`` in this process; records come back in item order.

    Specs with one :func:`_prefix_key` form a group that runs its
    shared pre-attack prefix once (:func:`_run_group`); groups run in
    the order of their first member.
    """
    groups: dict = {}
    for item in items:
        key = _prefix_key(item[1]) if len(items) > 1 else None
        groups.setdefault((None, item[0]) if key is None else key, []).append(item)
    records = {
        record.index: record
        for members in groups.values()
        for record in _run_group(members, postprocess, submitted_at)
    }
    return [records[index] for index, _ in items]


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
        Process count for both engines.  ``1`` (default) runs serially
        in-process; more than the number of vector groups plus scalar
        runs is clamped.  One pool runs the batch: each vector group is
        one task (largest first), followed by chunks of
        ``n // (workers * 4)`` (at least 1) of the ``n`` scalar runs.
    postprocess:
        Optional reducer ``(spec, result) -> payload`` applied worker-
        side — use a module-level function so it pickles; lets sweeps
        return small summaries instead of full trace containers.  A
        :class:`SummaryReducer` needs only the run's summary, so its
        cache hits read the row's stored summary and decode no payload
        (sweeps and Monte-Carlo replay this way); any other reducer, or
        none, gets the fully decoded result.
    cache:
        Run-store policy (see :mod:`repro.store.cache`): ``None`` /
        ``"off"`` (default) bypasses the store entirely;
        ``"readonly"`` serves fingerprint hits from the store;
        ``"readwrite"`` additionally stores computed misses, each
        written by whoever computed it: the pool worker (counted as
        ``store.worker_writes``) for pooled scalar runs and vector
        groups alike, or the calling process for a serial batch.  A
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
        non-qualifying specs, and groups of fewer than three, on the
        scalar engine.  Results are
        bit-identical across backends; each record's
        :attr:`RunRecord.backend_used` says which engine ran it.

    On the scalar engine, specs that differ only in their attack share
    their pre-attack prefix: it runs once and the other runs branch
    from an engine snapshot (see the module docstring).  This happens
    after store hits are served and after ``"auto"`` has taken its
    vector groups, only among the misses one process runs serially,
    and changes no result; telemetry counts ``batch.branched_runs``
    and ``engine.shared_steps``.

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
    start = time.perf_counter()

    binding = None
    if cache is not None and cache != "off":
        from repro.store.cache import resolve_cache

        binding = resolve_cache(cache)
    writes = binding is not None and binding.writes
    try:
        # Serve fingerprint hits from the store; with cache off there
        # is nothing to look up and every spec is a miss.  A
        # SummaryReducer's hits read the stored summary, not the run.
        records: dict = {}
        misses: List[Tuple[int, RunSpec]] = []
        summary_only = isinstance(postprocess, SummaryReducer)
        reducer = postprocess.fn if summary_only else postprocess
        read = None
        if binding is not None:
            read = binding.store.summary if summary_only else binding.store.get
        for index, spec in enumerate(specs):
            lookup_start = time.perf_counter()
            hit = None
            if read is not None and spec._fingerprint is not None:
                hit = read(spec._fingerprint)
            if hit is None:
                misses.append((index, spec))
                continue
            if reducer is None:
                payload, error = hit, None
            else:
                payload, error = _apply_postprocess(reducer, spec, hit)
            records[index] = RunRecord(
                index=index,
                tag=spec.tag,
                payload=payload,
                elapsed=time.perf_counter() - lookup_start,
                worker_pid=os.getpid(),
                error=error,
                cached=True,
            )
        # Whoever computes a run stores it: the store writer runs next
        # to the engine, so the user's reducer still sees the raw
        # result and only the reduced payload leaves a pool worker.
        inner = _compute_batch(
            [spec for _, spec in misses],
            workers=workers,
            postprocess=(
                _StoreWritingPostprocess(binding.store, postprocess)
                if writes else postprocess
            ),
            backend=backend,
        )
    finally:
        if binding is not None and binding.owns_store:
            binding.store.close()

    parent = os.getpid()
    for (index, spec), record in zip(misses, inner.records):
        records[index] = replace(record, index=index)
        # Worker processes have no telemetry session, so their writes
        # are counted here; inline writes count as ``store.writes``.
        if writes and record.ok and spec._fingerprint is not None and (
            record.worker_pid != parent
        ):
            _telemetry.incr("store.worker_writes")
    result = BatchResult(
        records=tuple(records[index] for index in range(len(specs))),
        workers=inner.workers,
        parallel=inner.parallel,
        elapsed=time.perf_counter() - start,
        cache_hits=len(specs) - len(misses),
        degraded_reason=inner.degraded_reason,
    )
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


#: Smallest group ``backend="auto"`` runs on the vectorized engine:
#: the measured break-even against the scalar engine (a vectorized pair
#: is slower than two scalar runs, a triple about as fast as three).
_AUTO_MIN_GROUP = 3


def _partition(
    items: Sequence[Tuple[int, RunSpec]], backend: str
) -> Tuple[List[List[Tuple[int, RunSpec]]], List[Tuple[int, RunSpec]]]:
    """Split ``items`` into vector groups (largest first) and scalar items.

    Under ``"vectorized"`` or ``"auto"``, specs are partitioned into
    homogeneous vector groups (same scenario up to
    ``sensor_seed``/``name``, same toggles — see
    :func:`repro.simulation.vectorized.group_key`) and a scalar
    remainder.  Strict ``"vectorized"`` refuses any remainder up front,
    naming the blocking feature; ``"auto"`` also leaves groups smaller
    than :data:`_AUTO_MIN_GROUP` on the scalar engine.
    """
    if backend == "scalar":
        return [], list(items)
    from repro.simulation.vectorized import group_key, vectorization_blocker

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
    vector_groups = []
    for members in groups.values():
        if backend == "auto" and len(members) < _AUTO_MIN_GROUP:
            scalar_items.extend(members)
        else:
            vector_groups.append(members)
    vector_groups.sort(key=len, reverse=True)
    return vector_groups, sorted(scalar_items)


def _run_task(
    task: Tuple[bool, Sequence[Tuple[int, RunSpec]]],
    postprocess: Optional[Postprocess],
    submitted_at: Optional[float],
) -> Tuple[List[RunRecord], Optional[str]]:
    """Run one pool task: a vector group, or scalar specs run serially.

    Returns the records and, when the vectorized engine failed on the
    group, the warning the calling process raises again.
    """
    vectorized, members = task
    if vectorized:
        return _run_vector_group(members, postprocess, submitted_at)
    return _run_serial(members, postprocess, submitted_at), None


def _compute_batch(
    specs: Sequence[RunSpec],
    *,
    workers: int,
    postprocess: Optional[Postprocess],
    backend: str = "scalar",
) -> BatchResult:
    """Run every spec on the selected engine (no store lookups).

    The batch is one task list: each vector group (:func:`_partition`),
    largest first, then the scalar specs.  With ``workers > 1`` and at
    least two groups or specs, one process pool maps over it, the scalar
    specs cut into chunks; otherwise every task runs in this process,
    the scalar specs as one serial list.
    """
    start = time.perf_counter()
    submitted_at = time.time()
    items = list(enumerate(specs))
    groups, scalar_items = _partition(items, backend)
    effective = min(workers, len(groups) + len(scalar_items))
    call = partial(_run_task, postprocess=postprocess, submitted_at=submitted_at)
    vector_tasks = [(True, members) for members in groups]
    outcomes = None
    degraded_reason: Optional[str] = None
    if effective > 1:
        # Specs branch from a shared prefix only within one chunk, so no
        # chunk waits for a prefix another chunk computes.
        size = _default_chunksize(len(scalar_items), effective)
        tasks = vector_tasks + [
            (False, scalar_items[i:i + size])
            for i in range(0, len(scalar_items), size)
        ]
        try:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=effective) as pool:
                outcomes = list(pool.map(call, tasks))
        except _POOL_INFRA_ERRORS as exc:
            # Pool unavailable or broken (sandboxed /dev/shm, fork
            # limits, unpicklable payloads, ...): degrade to the serial
            # path, which by construction produces identical results —
            # but say so, and record why.  Anything outside
            # _POOL_INFRA_ERRORS is a real bug and propagates rather
            # than silently discarding the pool's completed work.
            degraded_reason = f"{type(exc).__name__}: {exc}"
            warnings.warn(
                f"process pool unavailable or broken ({degraded_reason}); "
                f"re-running the {len(items)}-spec batch serially",
                RuntimeWarning,
                stacklevel=3,
            )
    parallel = outcomes is not None
    if not parallel:
        effective = 1
        tasks = vector_tasks + ([(False, scalar_items)] if scalar_items else [])
        outcomes = [call(task) for task in tasks]

    records: dict = {}
    for task_records, failure in outcomes:
        if failure is not None:
            warnings.warn(failure, RuntimeWarning, stacklevel=3)
        for record in task_records:
            records[record.index] = record
    return BatchResult(
        records=tuple(records[index] for index, _ in items),
        workers=effective,
        parallel=parallel,
        elapsed=time.perf_counter() - start,
        degraded_reason=degraded_reason,
    )


def _run_vector_group(
    members: Sequence[Tuple[int, RunSpec]],
    postprocess: Optional[Postprocess],
    submitted_at: Optional[float],
) -> Tuple[List[RunRecord], Optional[str]]:
    """Execute one homogeneous group on the vectorized engine.

    Runs wherever its task runs: in a pool worker or in the calling
    process.  Returns the group's records (submission indices
    preserved) and ``None``, or — when the engine raised — the records
    of a scalar re-run of the group and the warning to raise in the
    calling process.  A vectorized group cannot attribute a mid-loop
    exception to a single run, while the scalar re-run captures errors
    per-record as usual (and, by the equivalence contract, produces the
    same payloads for the runs that succeed).
    """
    from repro.simulation.vectorized import run_group_vectorized

    queue_wait = (
        max(0.0, time.time() - submitted_at) if submitted_at is not None else 0.0
    )
    start = time.perf_counter()
    try:
        results = run_group_vectorized([spec for _, spec in members])
    except Exception as exc:
        failure = (
            f"vectorized group of {len(members)} runs failed "
            f"({type(exc).__name__}: {exc}); re-running the group on the "
            f"scalar engine"
        )
        return _run_serial(members, postprocess, submitted_at), failure
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
                queue_wait=queue_wait,
                backend_used="vectorized",
            )
        )
    return records, None


def _apply_postprocess(
    postprocess: Postprocess, spec: RunSpec, result: Any
) -> Tuple[Any, Optional[str]]:
    """Run a reducer parent-side with worker-equivalent error capture."""
    try:
        return postprocess(spec, result), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class _StoreWritingPostprocess:
    """Store writer wrapped around the user's reducer.

    A readwrite batch wraps its reducer in this on every path, so the
    run is stored where it was computed: inside the pool worker for a
    pooled scalar run or vector group, in the calling process for a
    serial batch.  The raw result is written first and only the reduced
    payload leaves a pool worker.

    Picklable as long as the reducer is: the store travels as its path
    plus geometry and reopens its files lazily in the worker (see
    :class:`~repro.store.runstore.RunStore`).  A store write failure
    fails the run (captured per-record like any other run error).
    """

    store: Any
    postprocess: Optional[Postprocess] = None

    def __call__(self, spec: RunSpec, result: Any) -> Any:
        if isinstance(result, SimulationResult) and spec._fingerprint is not None:
            from repro.simulation.spec import scenario_to_dict

            self.store.put(
                spec._fingerprint,
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


def run_many(
    specs: Sequence[RunSpec],
    *,
    workers: int = 1,
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
            postprocess=postprocess,
            cache=cache,
            backend=backend,
        )
        .raise_on_error()
        .payloads()
    )
