"""Job management for the simulation service: queueing, single-flight
coalescing, and pool execution off the event loop.

The manager sits between the HTTP handlers and the execution engine:

* :meth:`JobManager.submit` fingerprints an incoming run request
  (:func:`repro.store.fingerprint.run_fingerprint`), serves store hits
  immediately from the row's stored summary
  (:meth:`~repro.store.runstore.RunStore.summary`, no payload decode),
  and otherwise returns a :class:`Job` — creating one, or
  **coalescing** onto the identical run already in flight;
* each job executes through a bounded ``asyncio.Semaphore`` (at most
  ``workers`` simulations at once) on a ``ProcessPoolExecutor``, so
  the event loop keeps serving requests while simulations run in
  worker processes;
* whoever computes a run stores it: each job runs through
  :func:`~repro.simulation.batch.execute_batch` with its own
  :class:`~repro.store.cache.CacheBinding` (a fresh handle on the
  service's store), so the worker that simulates the run also writes
  it, and only the summary dict travels back to the event loop.  A
  finished ``readwrite`` job is a future cache hit.

Single-flight is the load-shedding contract of the service: any number
of concurrent identical requests cause exactly **one** engine
execution.  The table is keyed on the run fingerprint and only ever
touched from the event loop (``submit`` contains no ``await`` between
lookup and registration), so there is no window in which two identical
requests can both miss.  A failed in-flight run fails every coalesced
waiter with it; the fingerprint is then retired from the table, so the
*next* request retries fresh instead of inheriting the failure.

Pool degradation mirrors :mod:`repro.simulation.batch`: if the process
pool cannot be created or breaks on a pool-infrastructure error, the
manager warns once, records the cause, and falls back to running
simulations on a thread (still off the event loop) — results are
identical, only isolation and parallelism degrade.
"""

from __future__ import annotations

import asyncio
import copy
import functools
import itertools
import time
import warnings
from collections import OrderedDict
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable, Dict, Optional

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError
from repro.simulation.batch import (
    RunRecord,
    RunSpec,
    _POOL_INFRA_ERRORS,
    execute_batch,
)
from repro.simulation.knobs import resolve_backend, validate_workers
from repro.simulation.spec import scenario_from_dict
from repro.store.cache import CACHE_MODES, CacheBinding
from repro.store.runstore import RunStore

__all__ = ["Job", "JobManager", "Submission", "compute_record"]

#: Lifecycle states a job moves through (in order; ``failed`` replaces
#: ``done`` when the run raised).
JOB_STATUSES = ("queued", "running", "done", "failed")

#: Default number of completed jobs kept for ``GET /v1/jobs/{id}``
#: polling before the oldest are evicted (in-flight jobs are never
#: evicted).  Override per manager with ``max_retained_jobs=``.
MAX_RETAINED_JOBS = 4096

#: An async runner substituted for the default pool execution —
#: injection point for tests (counting stubs, fault injection).  Like
#: ``compute_record(job.spec, job.backend, job.cache)``, it returns the
#: summary dict as payload and stores the run when ``job.cache`` writes.
Runner = Callable[["Job"], Awaitable[RunRecord]]


def _summary(spec: RunSpec, result: Any) -> dict:
    """Reduce a run to the summary dict the service replies with."""
    return result.summary().as_dict()


def compute_record(
    spec: RunSpec, backend: str, cache: Optional[CacheBinding]
) -> RunRecord:
    """Execute one run; the record's payload is its summary dict.

    Module-level so it pickles into pool workers.  Delegates to
    :func:`repro.simulation.batch.execute_batch` (workers=1) with
    ``cache`` as its binding — which it closes when the run ends — so
    a ``readwrite`` run is stored right here, next to the engine, and
    error capture, ``backend_used`` provenance and elapsed accounting
    match every other execution path in the library.
    """
    return execute_batch(
        [spec], workers=1, backend=backend, cache=cache, postprocess=_summary
    ).records[0]


@dataclass
class Job:
    """One queued-or-executing run and its observable lifecycle.

    It carries the parsed spec and its own store binding, so the thread
    or pool worker that runs it also stores it.
    """

    job_id: str
    fingerprint: str
    spec: RunSpec
    backend: str
    #: The job's own store handle (``None`` for ``cache="off"``).
    cache: Optional[CacheBinding]
    status: str = "queued"
    #: Late identical requests folded onto this execution.
    coalesced: int = 0
    error: Optional[str] = None
    backend_used: Optional[str] = None
    degraded_reason: Optional[str] = None
    elapsed: Optional[float] = None
    summary: Optional[dict] = None
    created_at: float = field(default_factory=time.time)
    done: "asyncio.Event" = field(default_factory=asyncio.Event)

    def as_dict(self) -> dict:
        """The job rendered for ``GET /v1/jobs/{id}``."""
        payload = {
            "job_id": self.job_id,
            "status": self.status,
            "fingerprint": self.fingerprint,
            "coalesced": self.coalesced,
            "backend": self.backend,
            "backend_used": self.backend_used,
            "degraded_reason": self.degraded_reason,
            "elapsed": self.elapsed,
            "error": self.error,
        }
        if self.summary is not None:
            payload["result"] = self.summary
        return payload


@dataclass(frozen=True)
class Submission:
    """Outcome of :meth:`JobManager.submit`.

    Exactly one of the three shapes:

    * cache hit — ``summary`` is the stored run's summary dict
      (:meth:`~repro.store.runstore.RunStore.summary`, the
      ``ResultSummary.as_dict()`` form), ``job`` is ``None``;
    * new job — ``job`` is set, ``coalesced`` is ``False``;
    * coalesced — ``job`` is the already-in-flight job, ``coalesced``
      is ``True``.
    """

    fingerprint: str
    job: Optional[Job] = None
    summary: Optional[dict] = None
    coalesced: bool = False

    @property
    def cache_hit(self) -> bool:
        return self.summary is not None


class JobManager:
    """Single-flight execution of run requests over a bounded pool.

    Create (and use) the manager from inside a running event loop —
    the asyncio primitives it owns bind to that loop.  ``executor``
    picks where simulations run: ``"process"`` (default; worker
    processes via :class:`ProcessPoolExecutor`) or ``"thread"``
    (in-process threads — no isolation, but no pool startup cost;
    what tests and benches use).  ``runner`` overrides execution
    entirely with an async callable ``(job) -> RunRecord``.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        workers: int = 2,
        backend: Optional[str] = None,
        executor: str = "process",
        runner: Optional[Runner] = None,
        max_retained_jobs: int = MAX_RETAINED_JOBS,
    ) -> None:
        if executor not in ("process", "thread"):
            raise ConfigurationError(
                f"executor must be 'process' or 'thread', got {executor!r}"
            )
        if not isinstance(max_retained_jobs, int) or max_retained_jobs < 1:
            raise ConfigurationError(
                f"max_retained_jobs must be a positive int, got "
                f"{max_retained_jobs!r}"
            )
        self.store = store
        self.max_retained_jobs = max_retained_jobs
        self.workers = validate_workers(workers)
        self.backend = resolve_backend(backend)
        self._executor_kind = executor
        self._runner = runner
        self._pool: Optional[Executor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._jobs: "OrderedDict[str, Job]" = OrderedDict()
        self._inflight: Dict[str, Job] = {}
        self._tasks: set = set()
        self._ids = itertools.count(1)
        #: Engine executions actually dispatched (the number single-
        #: flight and caching exist to minimize).
        self.executed_runs = 0
        #: Completed job records dropped by bounded retention.
        self.evicted_jobs = 0
        #: Why process-pool execution degraded to threads (``None``
        #: while the pool is healthy or ``executor="thread"``).
        self.degraded_reason: Optional[str] = None

    # -- submission (event-loop side, no awaits) -----------------------

    def submit(
        self,
        spec_dict: dict,
        *,
        attack_enabled: bool = True,
        defended: bool = True,
        backend: Optional[str] = None,
        cache: str = "readwrite",
    ) -> Submission:
        """Route one run request: store hit, coalesce, or enqueue.

        Runs synchronously on the event loop — the store lookup and
        the single-flight registration happen with no ``await`` in
        between, which is what makes the table race-free.  ``cache``
        accepts the library-wide modes: ``"readwrite"`` (default —
        serve hits, store results), ``"readonly"`` (serve hits, don't
        store), ``"off"`` (always execute, bypass the single-flight
        table too, never store).  ``attack_enabled`` and ``defended``
        must be genuine booleans.  Raises
        :class:`~repro.exceptions.ConfigurationError` for an invalid
        spec or knob.
        """
        if cache not in CACHE_MODES:
            raise ConfigurationError(
                f"cache must be one of {', '.join(CACHE_MODES)}; got {cache!r}"
            )
        for name, value in (("attack_enabled", attack_enabled), ("defended", defended)):
            if not isinstance(value, bool):
                raise ConfigurationError(f"{name} must be a boolean, got {value!r}")
        scenario = scenario_from_dict(spec_dict)
        spec = RunSpec(
            scenario,
            attack_enabled=attack_enabled,
            defended=defended,
            tag=scenario.name,
        )
        fingerprint = spec._fingerprint
        assert fingerprint is not None  # declarative specs always fingerprint
        resolved_backend = resolve_backend(
            backend if backend is not None else self.backend
        )

        if cache != "off":
            hit = self.store.summary(fingerprint)
            if hit is not None:
                _telemetry.incr("service.cache_hit")
                return Submission(fingerprint=fingerprint, summary=hit)
            inflight = self._inflight.get(fingerprint)
            if inflight is not None:
                inflight.coalesced += 1
                _telemetry.incr("service.coalesced")
                return Submission(
                    fingerprint=fingerprint, job=inflight, coalesced=True
                )

        job = Job(
            job_id=f"job-{next(self._ids):06d}",
            fingerprint=fingerprint,
            spec=spec,
            backend=resolved_backend,
            # A fresh handle per job: sqlite connections cannot leave
            # the thread that opened them.
            cache=None if cache == "off" else CacheBinding(
                copy.copy(self.store), mode=cache, owns_store=True
            ),
        )
        self._jobs[job.job_id] = job
        if cache != "off":
            self._inflight[fingerprint] = job
        self._trim_history()
        task = asyncio.ensure_future(self._run_job(job))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return Submission(fingerprint=fingerprint, job=job)

    def get_job(self, job_id: str) -> Optional[Job]:
        """Look a job up by id (``None`` when unknown or evicted)."""
        return self._jobs.get(job_id)

    def job_counts(self) -> Dict[str, int]:
        """Retained jobs per lifecycle state (for ``/healthz``)."""
        counts = {status: 0 for status in JOB_STATUSES}
        for job in self._jobs.values():
            counts[job.status] += 1
        return counts

    def _trim_history(self) -> None:
        while len(self._jobs) > self.max_retained_jobs:
            for job_id, job in self._jobs.items():
                if job.done.is_set():
                    del self._jobs[job_id]
                    self.evicted_jobs += 1
                    _telemetry.incr("service.evicted")
                    break
            else:  # everything is in flight; never evict live jobs
                break

    # -- execution (worker side) ---------------------------------------

    async def _run_job(self, job: Job) -> None:
        try:
            if self._semaphore is None:
                self._semaphore = asyncio.Semaphore(self.workers)
            async with self._semaphore:
                job.status = "running"
                self.executed_runs += 1
                _telemetry.incr("service.executed")
                with _telemetry.span(
                    "service.execute",
                    fingerprint=job.fingerprint[:12],
                    backend=job.backend,
                ):
                    record = await self._execute(job)
            job.elapsed = record.elapsed
            job.backend_used = record.backend_used
            if record.error is not None:
                job.status = "failed"
                job.error = record.error
                _telemetry.incr("service.failed")
            else:
                job.summary = record.payload
                job.status = "done"
        except asyncio.CancelledError:
            job.status = "failed"
            job.error = "CancelledError: service shut down before the run finished"
            raise
        except Exception as exc:  # surfaced to pollers, never crashes the loop
            job.status = "failed"
            job.error = f"{type(exc).__name__}: {exc}"
            _telemetry.incr("service.failed")
        finally:
            if self._inflight.get(job.fingerprint) is job:
                del self._inflight[job.fingerprint]
            job.done.set()

    async def _execute(self, job: Job) -> RunRecord:
        if self._runner is not None:
            return await self._runner(job)
        loop = asyncio.get_running_loop()
        call = functools.partial(compute_record, job.spec, job.backend, job.cache)
        pool = self._ensure_pool()
        if pool is not None:
            try:
                return await loop.run_in_executor(pool, call)
            except _POOL_INFRA_ERRORS as exc:
                self._degrade(exc)
        job.degraded_reason = self.degraded_reason
        # Thread mode (chosen or degraded-to): the default executor
        # still keeps the simulation off the event loop.
        return await loop.run_in_executor(None, call)

    def _ensure_pool(self) -> Optional[Executor]:
        if self._executor_kind != "process" or self.degraded_reason is not None:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except _POOL_INFRA_ERRORS as exc:
                self._degrade(exc)
                return None
        return self._pool

    def _degrade(self, exc: BaseException) -> None:
        """Record a broken pool and warn once; later jobs use threads."""
        self.degraded_reason = f"{type(exc).__name__}: {exc}"
        _telemetry.incr("service.degraded")
        warnings.warn(
            f"service process pool unavailable or broken "
            f"({self.degraded_reason}); executing runs on threads instead",
            RuntimeWarning,
            stacklevel=2,
        )
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    # -- lifecycle -----------------------------------------------------

    async def close(self) -> None:
        """Cancel outstanding jobs and release the pool."""
        tasks = [task for task in self._tasks if not task.done()]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
