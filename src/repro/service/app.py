"""The simulation service: routes, request handling, and the ``serve``
entry point.

Endpoint contract (see ``docs/service_api.md`` for the full schema):

``POST /v1/runs``
    Submit a declarative scenario spec (``spec_version=2`` dict; v1
    bodies are still read), flat or wrapped under ``"scenario"``, plus
    ``attack_enabled`` / ``defended`` / ``backend`` / ``cache`` knobs.
    A store hit answers ``200`` with the row's stored summary
    immediately (the payload is not decoded); a
    miss enqueues and answers ``202`` with a job id — identical
    concurrent requests coalesce onto one execution.  ``?wait=1`` (or
    ``"wait": true`` in the body) blocks until the run finishes and
    answers like a hit.
``GET /v1/jobs/{id}``
    Job status (``queued`` / ``running`` / ``done`` / ``failed``) with
    ``backend_used`` / ``degraded_reason`` provenance.
``GET /v1/runs/{fingerprint}``
    The stored result: name and summary always, read from the row's
    stored summary; the full bit-exact trace payload (decoded from the
    row) with ``?trace=1``.  A segment that is not 64 lowercase hex
    digits is a ``400``.
``GET /v1/store/stats``
    The run store's :meth:`~repro.store.runstore.StoreStats.as_dict`
    — the same serialization ``repro cache stats --json`` prints.
``GET /healthz``
    Liveness plus job-table counts.

Every request runs inside a ``service.request`` telemetry span
(method, route, status) and bumps the ``service.requests`` counter;
submissions additionally count ``service.cache_hit`` /
``service.coalesced`` / ``service.executed`` (see
:mod:`repro.service.jobs`).  All responses are JSON; errors carry an
``"error"`` message and the appropriate 4xx/5xx status.
"""

from __future__ import annotations

import asyncio
import re
import signal
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError
from repro.service.http import HTTPError, Request, read_request, write_json
from repro.service.jobs import Job, JobManager
from repro.simulation.io import result_to_dict
from repro.store.runstore import RunStore

__all__ = ["ServiceApp", "serve", "serve_async"]

#: Request-body keys that are execution knobs, not scenario fields —
#: stripped before the remainder is treated as a flat spec dict.
_KNOB_KEYS = ("scenario", "spec", "attack_enabled", "defended", "backend",
              "cache", "wait")

Reply = Tuple[int, Any]

#: A run fingerprint: a lowercase SHA-256 hex digest.
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


def _split_request(body: Any) -> Tuple[dict, Dict[str, Any]]:
    """Split a ``POST /v1/runs`` body into (spec dict, knobs).

    Accepts the wrapped form (``{"scenario": {...}, "backend": ...}``)
    and the flat form (the spec dict itself with knob keys mixed in).
    """
    if not isinstance(body, dict):
        raise HTTPError(400, "request body must be a JSON object")
    if "workers" in body:  # a flat spec would carry it along, ignored
        raise HTTPError(400, "'workers' is not a request knob (the pool "
                        "size is set by `repro serve --workers`)")
    knobs = {key: body[key] for key in _KNOB_KEYS if key in body}
    spec = knobs.pop("scenario", knobs.pop("spec", None))
    if spec is None:
        spec = {k: v for k, v in body.items() if k not in _KNOB_KEYS}
    if not isinstance(spec, dict) or not spec:
        raise HTTPError(
            400,
            "no scenario spec in request body (pass the spec_version=2 "
            "dict flat, or under a 'scenario' key)",
        )
    return spec, knobs


class ServiceApp:
    """The HTTP application: a :class:`JobManager` behind JSON routes.

    Construct from inside a running event loop (the job manager owns
    asyncio primitives).  The app does not own ``store`` — the caller
    (usually :func:`serve_async`) closes it.
    """

    def __init__(
        self,
        store: RunStore,
        *,
        workers: int = 2,
        backend: Optional[str] = None,
        executor: str = "process",
        runner: Optional[Any] = None,
        max_retained_jobs: Optional[int] = None,
    ) -> None:
        self.store = store
        kwargs = (
            {} if max_retained_jobs is None
            else {"max_retained_jobs": max_retained_jobs}
        )
        self.jobs = JobManager(
            store, workers=workers, backend=backend,
            executor=executor, runner=runner, **kwargs,
        )
        self.started_at = time.time()
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and start serving; returns the ``asyncio`` server."""
        self._server = await asyncio.start_server(self._on_client, host, port)
        return self._server

    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        """Stop accepting connections and cancel outstanding jobs."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.jobs.close()

    # -- connection handling -------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        status, payload = 500, {"error": "internal error"}
        route = "?"
        try:
            try:
                request = await read_request(reader)
                if request is None:  # client connected and went away
                    return
                route = f"{request.method} {request.path}"
                with _telemetry.span("service.request", route=route) as span:
                    status, payload = await self.handle(request)
                    span.set(status=status)
            except HTTPError as exc:
                status, payload = exc.status, {"error": exc.message}
            except ConfigurationError as exc:
                status, payload = 400, {"error": str(exc)}
            except Exception as exc:  # keep the loop alive, report 500
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }
                _telemetry.incr("service.errors")
            _telemetry.incr("service.requests")
            await write_json(writer, status, payload)
        except (ConnectionError, OSError):  # client vanished mid-reply
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    # -- routing -------------------------------------------------------

    async def handle(self, request: Request) -> Reply:
        """Route one parsed request to its handler."""
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return self._healthz()
        if path == "/v1/runs":
            if method != "POST":
                return 405, {"error": "use POST to submit a run"}
            return await self._post_run(request)
        if path == "/v1/store/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self.store.stats().as_dict()
        if path.startswith("/v1/jobs/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            return self._get_job(path[len("/v1/jobs/"):])
        if path.startswith("/v1/runs/"):
            if method != "GET":
                return 405, {"error": "use GET"}
            return self._get_run(path[len("/v1/runs/"):], request.flag("trace"))
        return 404, {"error": f"no route for {method} {path}"}

    # -- handlers ------------------------------------------------------

    def _healthz(self) -> Reply:
        return 200, {
            "status": "ok",
            "uptime_s": round(time.time() - self.started_at, 3),
            "store": str(self.store.path),
            "jobs": self.jobs.job_counts(),
            "executed_runs": self.jobs.executed_runs,
            "evicted_jobs": self.jobs.evicted_jobs,
            "max_retained_jobs": self.jobs.max_retained_jobs,
            "degraded_reason": self.jobs.degraded_reason,
        }

    async def _post_run(self, request: Request) -> Reply:
        spec, knobs = _split_request(request.json())
        wait = knobs.get("wait", False)
        if not isinstance(wait, bool):
            raise HTTPError(400, f"wait must be a boolean, got {wait!r}")
        submission = self.jobs.submit(
            spec,
            attack_enabled=knobs.get("attack_enabled", True),
            defended=knobs.get("defended", True),
            backend=knobs.get("backend"),
            cache=knobs.get("cache", "readwrite"),
        )
        if submission.cache_hit:
            return 200, {
                "status": "done",
                "cache_hit": True,
                "fingerprint": submission.fingerprint,
                "result": submission.summary,
                "links": {"result": f"/v1/runs/{submission.fingerprint}"},
            }
        job = submission.job
        if request.flag("wait") or wait:
            await job.done.wait()
            status = 200 if job.status == "done" else 500
            payload = job.as_dict()
            payload["cache_hit"] = False
            payload["links"] = {"result": f"/v1/runs/{job.fingerprint}"}
            return status, payload
        return 202, {
            "status": job.status,
            "cache_hit": False,
            "coalesced": submission.coalesced,
            "job_id": job.job_id,
            "fingerprint": job.fingerprint,
            "links": {
                "job": f"/v1/jobs/{job.job_id}",
                "result": f"/v1/runs/{job.fingerprint}",
            },
        }

    def _get_job(self, job_id: str) -> Reply:
        job = self.jobs.get_job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}
        return 200, job.as_dict()

    def _get_run(self, fingerprint: str, with_trace: bool) -> Reply:
        if not _FINGERPRINT.fullmatch(fingerprint):
            return 400, {
                "error": f"malformed run fingerprint {fingerprint!r} "
                "(expected 64 lowercase hex digits)"
            }
        if with_trace:
            result = self.store.get(fingerprint)
            summary = None if result is None else result.summary()
        else:
            summary = self.store.summary(fingerprint)
        if summary is None:
            return 404, {"error": f"no stored run {fingerprint!r}"}
        payload: Dict[str, Any] = {
            "fingerprint": fingerprint,
            "name": summary.name,
            "summary": summary.as_dict(),
        }
        if with_trace:
            payload["payload"] = result_to_dict(result)
        return 200, payload


# ----------------------------------------------------------------------
# blocking entry point (the CLI's `repro serve`)
# ----------------------------------------------------------------------


async def serve_async(
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    store_path: Optional[str] = None,
    store_shards: Optional[int] = None,
    workers: int = 2,
    backend: Optional[str] = None,
    executor: str = "process",
    max_retained_jobs: Optional[int] = None,
    out=None,
    err=None,
) -> int:
    """Run the service until SIGINT/SIGTERM (or cancellation).

    Prints the base URL as the first line on ``out`` (machine-readable
    — scripts parse it to find an ephemeral ``--port 0`` binding) and
    human diagnostics on ``err``.  The store opens as
    ``RunStore(store_path, shards=store_shards)``: an existing store
    directory is autodetected from its manifest, and ``store_shards``
    creates an N-file directory store; ``GET /v1/store/stats`` then
    includes the per-file breakdown.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    store = RunStore(store_path, shards=store_shards)
    app = ServiceApp(
        store,
        workers=workers,
        backend=backend,
        executor=executor,
        max_retained_jobs=max_retained_jobs,
    )
    server = await app.start(host, port)
    bound = server.sockets[0].getsockname()
    print(f"http://{bound[0]}:{bound[1]}", file=out, flush=True)
    print(
        f"repro.service listening on {bound[0]}:{bound[1]} "
        f"(store {store.path}, workers {app.jobs.workers}, "
        f"backend {app.jobs.backend}); Ctrl-C to stop",
        file=err,
        flush=True,
    )
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    registered = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
            registered.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-unix loops: rely on KeyboardInterrupt in serve()
    try:
        await stop.wait()
    finally:
        for sig in registered:
            loop.remove_signal_handler(sig)
        await app.close()
        store.close()
        print("repro.service stopped", file=err, flush=True)
    return 0


def serve(
    host: str = "127.0.0.1",
    port: int = 8077,
    *,
    store_path: Optional[str] = None,
    store_shards: Optional[int] = None,
    workers: int = 2,
    backend: Optional[str] = None,
    executor: str = "process",
    max_retained_jobs: Optional[int] = None,
    out=None,
    err=None,
) -> int:
    """Blocking wrapper around :func:`serve_async`; returns exit code."""
    try:
        return asyncio.run(
            serve_async(
                host,
                port,
                store_path=store_path,
                store_shards=store_shards,
                workers=workers,
                backend=backend,
                executor=executor,
                max_retained_jobs=max_retained_jobs,
                out=out,
                err=err,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - unix uses the handler
        return 0
