"""Async simulation service: serve runs, not scripts.

:mod:`repro.service` puts a long-running asyncio HTTP/JSON server in
front of the library's execution stack, turning one-shot scripts into
a deployable system shaped for heavy, redundant request streams —
stateless frontends over the shared content-addressed
:class:`~repro.store.RunStore`:

* ``POST /v1/runs`` takes the same declarative ``spec_version=2``
  scenario dicts the CLI's ``run-custom`` reads (v1 dicts are still
  accepted), fingerprints them
  (:mod:`repro.store.fingerprint`), and serves store hits without
  executing anything;
* misses enqueue onto a bounded process pool off the event loop, with
  **single-flight coalescing**: any number of concurrent identical
  requests cause exactly one engine execution
  (:mod:`repro.service.jobs`);
* jobs, results, store stats and liveness are queryable
  (``/v1/jobs/{id}``, ``/v1/runs/{fingerprint}``, ``/v1/store/stats``,
  ``/healthz``), and every endpoint is traced through
  :mod:`repro.telemetry` (``service.request`` spans,
  ``service.cache_hit`` / ``service.coalesced`` / ``service.executed``
  counters).

Start it from the CLI::

    python -m repro serve --port 8077 --workers 4 --store runs.sqlite

or embed it in an asyncio program via :class:`ServiceApp` /
:func:`serve_async`.  The HTTP layer is stdlib-only
(:mod:`repro.service.http`), including an async JSON client
(:func:`fetch_json`) used by the tests and the throughput bench.
"""

from repro.service.app import ServiceApp, serve, serve_async
from repro.service.http import HTTPError, Request, fetch_json
from repro.service.jobs import Job, JobManager, Submission, compute_record

__all__ = [
    "ServiceApp",
    "serve",
    "serve_async",
    "HTTPError",
    "Request",
    "fetch_json",
    "Job",
    "JobManager",
    "Submission",
    "compute_record",
]
