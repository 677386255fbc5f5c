"""The async simulation service (repro.service).

Covers the subsystem's load-bearing contracts:

* single-flight coalescing — N concurrent identical submissions cause
  exactly one engine execution (asserted via an injected counting
  runner *and* the telemetry counters);
* failure races — late arrivals coalesced onto a failing in-flight run
  see the failure, and the next request retries fresh;
* cache hits replay bit-identically through the HTTP surface;
* whoever computes a run stores it — the job's thread or pool worker
  writes the row, never the event loop, and the rows equal the ones
  ``execute_batch`` writes;
* the endpoint contract (statuses, payload shapes, 4xx behavior);
* `repro cache stats --json` and `GET /v1/store/stats` share one
  serialization.
"""

import asyncio
import io
import json
import multiprocessing
import os
import sqlite3
import threading

import pytest

import repro
from repro import telemetry
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.service import ServiceApp, fetch_json, serve_async
from repro.service import jobs as jobs_module
from repro.service.jobs import JobManager, compute_record
from repro.simulation.batch import RunRecord, RunSpec, execute_batch
from repro.simulation.io import result_to_dict
from repro.simulation.spec import scenario_from_dict, scenario_to_dict
from repro.store import RunStore

#: Short horizon keeps the attack window empty — fast, clean runs.
FAST = repro.fig2_scenario("dos", horizon=20.0)
SPEC = scenario_to_dict(FAST)

#: Generous bound on every await in this file; tests finish in
#: milliseconds unless something deadlocks.
TIMEOUT = 30.0


def run_async(coro):
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT * 2))


def make_store(path, shards):
    """A one-file store (``shards=None``) or an N-file directory store."""
    if shards is None:
        return RunStore(path.with_suffix(".sqlite"))
    return RunStore(path, shards=shards)


def stored_rows(store):
    """Every stored row minus ``created_at`` (the one wall-clock column)."""
    return sorted(
        ({k: v for k, v in row.items() if k != "created_at"}
         for row in store.iter_rows()),
        key=lambda row: row["fingerprint"],
    )


def record_calls(monkeypatch, *names):
    """Wrap ``RunStore`` methods; returns the ``(name, pid, thread)`` log."""
    calls = []
    for name in names:
        original = getattr(RunStore, name)

        def recorded(self, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, os.getpid(), threading.get_ident()))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(RunStore, name, recorded)
    return calls


def _exit_in_pool_worker(spec, backend, cache):
    """``compute_record`` stand-in that kills any pool worker running it
    (a real process death); on a thread of the service it computes."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return compute_record(spec, backend, cache)


class StubRunner:
    """Injected runner: counts executions, optionally blocks or fails.

    ``gate`` (when set) holds every execution until the test releases
    it, so a burst of submissions provably overlaps one in-flight run.
    """

    def __init__(self, *, gated: bool = False, fail: bool = False):
        self.calls = 0
        self.fail = fail
        self.gated = gated
        self.gate: "asyncio.Event" = None

    async def __call__(self, job) -> RunRecord:
        self.calls += 1
        if self.gated:
            if self.gate is None:
                self.gate = asyncio.Event()
            await asyncio.wait_for(self.gate.wait(), TIMEOUT)
        if self.fail:
            raise RuntimeError("injected engine failure")
        # The executor both runs and (under a writing binding) stores.
        return compute_record(job.spec, job.backend, job.cache)

    def release(self):
        if self.gate is None:
            self.gate = asyncio.Event()
        self.gate.set()


async def start_app(tmp_path, store=None, **kwargs) -> ServiceApp:
    kwargs.setdefault("executor", "thread")
    if store is None:
        store = RunStore(tmp_path / "service.sqlite")
    app = ServiceApp(store, **kwargs)
    await app.start("127.0.0.1", 0)
    return app


async def stop_app(app: ServiceApp):
    await app.close()
    app.store.close()


async def poll_job(port, job_id, *, until=("done", "failed")):
    deadline = asyncio.get_running_loop().time() + TIMEOUT
    while True:
        status, payload = await fetch_json(
            "127.0.0.1", port, "GET", f"/v1/jobs/{job_id}"
        )
        assert status == 200
        if payload["status"] in until:
            return payload
        assert asyncio.get_running_loop().time() < deadline, payload
        await asyncio.sleep(0.01)


class TestEndToEnd:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                status, health = await fetch_json(
                    "127.0.0.1", port, "GET", "/healthz"
                )
                assert status == 200 and health["status"] == "ok"

                # Cold POST: 202 + a job that completes.
                status, queued = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", SPEC
                )
                assert status == 202
                assert queued["cache_hit"] is False
                assert queued["coalesced"] is False
                job = await poll_job(port, queued["job_id"])
                assert job["status"] == "done"
                assert job["backend_used"] == "scalar"
                assert job["result"]["collided"] is False

                # Warm POST: immediate 200 with the summary.
                status, hit = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", SPEC
                )
                assert status == 200
                assert hit["cache_hit"] is True
                assert hit["fingerprint"] == queued["fingerprint"]
                assert hit["result"] == job["result"]

                # The stored run is fetchable by fingerprint.
                status, stored = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{hit['fingerprint']}"
                )
                assert status == 200
                assert stored["summary"] == job["result"]
                return app.jobs.executed_runs
            finally:
                await stop_app(app)

        with telemetry.session() as tele:
            executed = run_async(scenario())
        assert executed == 1
        assert tele.counters["service.cache_hit"] == 1
        assert tele.counters["service.executed"] == 1
        assert tele.counters.get("service.coalesced", 0) == 0
        assert tele.counters["service.requests"] >= 4

    def test_wait_flag_blocks_until_done(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                status, payload = await fetch_json(
                    "127.0.0.1", app.port, "POST", "/v1/runs?wait=1", SPEC
                )
                assert status == 200
                assert payload["status"] == "done"
                assert payload["cache_hit"] is False
                assert payload["result"]["duration_s"] == 20.0
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_cache_hit_replays_bit_identically(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                _, first = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", {**SPEC, "wait": True}
                )
                status, stored = await fetch_json(
                    "127.0.0.1",
                    port,
                    "GET",
                    f"/v1/runs/{first['fingerprint']}?trace=1",
                )
                assert status == 200
                return stored["payload"]
            finally:
                await stop_app(app)

        replayed = run_async(scenario())
        direct = result_to_dict(repro.run(FAST))
        # Equality on the full dict (JSON floats round-trip exactly) is
        # the bit-identical contract through the HTTP surface.
        assert replayed == direct


class TestSummaryReads:
    """Hits and plain ``GET /v1/runs/{fp}`` answer from the row's stored
    summary; only ``?trace=1`` decodes the payload."""

    def test_hits_never_decode_the_payload(self, tmp_path, monkeypatch):
        import repro.store.runstore as runstore_module

        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                status, miss = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                )
                assert status == 200 and miss["cache_hit"] is False
                fingerprint = miss["fingerprint"]

                def no_decode(*args):
                    raise RuntimeError("payload decoded")

                monkeypatch.setattr(runstore_module, "_decode_payload", no_decode)
                status, hit = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", SPEC
                )
                assert status == 200 and hit["cache_hit"] is True
                assert hit["result"] == miss["result"]
                status, stored = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{fingerprint}"
                )
                assert status == 200
                assert stored == {
                    "fingerprint": fingerprint,
                    "name": miss["result"]["name"],
                    "summary": miss["result"],
                }
                # ?trace=1 is the one read that decodes.
                status, failed = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{fingerprint}?trace=1"
                )
                assert status == 500 and "payload decoded" in failed["error"]

                monkeypatch.undo()
                status, traced = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{fingerprint}?trace=1"
                )
                assert status == 200
                assert traced["summary"] == miss["result"]
                return traced["payload"]
            finally:
                await stop_app(app)

        assert run_async(scenario()) == result_to_dict(repro.run(FAST))

    def test_corrupt_row_trace_is_500_naming_the_run(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                _, miss = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                )
                fingerprint = miss["fingerprint"]
                with sqlite3.connect(tmp_path / "service.sqlite") as conn:
                    conn.execute(
                        "UPDATE runs SET payload = substr(payload, 1, 64) "
                        "WHERE fingerprint = ?",
                        (fingerprint,),
                    )
                status, failed = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{fingerprint}?trace=1"
                )
                assert status == 500
                assert failed["error"].startswith("StoreCorruptionError")
                assert fingerprint in failed["error"]
                assert "service.sqlite" in failed["error"]
                # A summary-only read trusts the row (claim boundary).
                status, stored = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{fingerprint}"
                )
                assert status == 200 and stored["summary"] == miss["result"]
            finally:
                await stop_app(app)

        run_async(scenario())

    @pytest.mark.parametrize("shards", [None, 3])
    def test_malformed_fingerprint_is_400(self, tmp_path, shards):
        store = make_store(tmp_path / "service", shards)

        async def scenario():
            app = await start_app(tmp_path, store=store)
            try:
                port = app.port
                await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                )
                for segment in ("zz", "not-a-fingerprint", "A" * 64, "0" * 63):
                    for suffix in ("", "?trace=1"):
                        status, payload = await fetch_json(
                            "127.0.0.1", port, "GET", f"/v1/runs/{segment}{suffix}"
                        )
                        assert status == 400, (segment, payload)
                        assert "malformed run fingerprint" in payload["error"]
                for suffix in ("", "?trace=1"):
                    status, payload = await fetch_json(
                        "127.0.0.1", port, "GET", f"/v1/runs/{'0' * 64}{suffix}"
                    )
                    assert status == 404 and "no stored run" in payload["error"]
            finally:
                await stop_app(app)

        with telemetry.session() as tele:
            run_async(scenario())
        assert "service.errors" not in tele.counters


class TestSingleFlight:
    N = 8

    def test_concurrent_identical_posts_execute_once(self, tmp_path):
        runner = StubRunner(gated=True)

        async def scenario():
            app = await start_app(tmp_path, runner=runner)
            try:
                port = app.port
                posts = [
                    fetch_json("127.0.0.1", port, "POST", "/v1/runs", SPEC)
                    for _ in range(self.N)
                ]
                replies = await asyncio.gather(*posts)
                # All coalesced onto one job while the run is gated.
                job_ids = {payload["job_id"] for _, payload in replies}
                assert len(job_ids) == 1
                statuses = sorted(status for status, _ in replies)
                assert statuses == [202] * self.N
                coalesced = [
                    payload for _, payload in replies if payload["coalesced"]
                ]
                assert len(coalesced) == self.N - 1
                runner.release()
                job = await poll_job(port, job_ids.pop())
                assert job["status"] == "done"
                assert job["coalesced"] == self.N - 1
                return app.jobs.executed_runs
            finally:
                await stop_app(app)

        with telemetry.session() as tele:
            executed = run_async(scenario())
        assert runner.calls == 1
        assert executed == 1
        assert tele.counters["service.executed"] == 1
        assert tele.counters["service.coalesced"] == self.N - 1
        assert tele.counters.get("service.cache_hit", 0) == 0

    def test_distinct_specs_do_not_coalesce(self, tmp_path):
        runner = StubRunner()

        async def scenario():
            app = await start_app(tmp_path, runner=runner)
            try:
                port = app.port
                posts = [
                    fetch_json(
                        "127.0.0.1",
                        port,
                        "POST",
                        "/v1/runs",
                        {**SPEC, "sensor_seed": seed, "wait": True},
                    )
                    for seed in range(3)
                ]
                replies = await asyncio.gather(*posts)
                assert {p["fingerprint"] for _, p in replies} == {
                    p["fingerprint"] for _, p in replies
                }
                assert len({p["job_id"] for _, p in replies}) == 3
            finally:
                await stop_app(app)

        run_async(scenario())
        assert runner.calls == 3

    def test_failing_run_fails_waiters_then_retries_fresh(self, tmp_path):
        runner = StubRunner(gated=True, fail=True)

        async def scenario():
            app = await start_app(tmp_path, runner=runner)
            try:
                port = app.port
                # A burst coalesces onto the (doomed) in-flight run;
                # waiters see the failure.
                posts = [
                    fetch_json(
                        "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                    )
                    for _ in range(4)
                ]
                gathered = asyncio.gather(*posts)
                while runner.calls == 0:  # the first POST reached the runner
                    await asyncio.sleep(0.01)
                runner.release()
                replies = await gathered
                for status, payload in replies:
                    assert status == 500
                    assert payload["status"] == "failed"
                    assert "injected engine failure" in payload["error"]
                assert runner.calls == 1
                first_job = {p["job_id"] for _, p in replies}

                # The fingerprint left the single-flight table with the
                # failure: the next request executes fresh.
                runner.fail = False
                status, retried = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                )
                assert status == 200
                assert retried["status"] == "done"
                assert retried["job_id"] not in first_job
                assert runner.calls == 2
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_cache_off_bypasses_store_and_single_flight(self, tmp_path):
        runner = StubRunner()

        async def scenario():
            app = await start_app(tmp_path, runner=runner)
            try:
                port = app.port
                body = {**SPEC, "cache": "off", "wait": True}
                _, first = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", body
                )
                _, second = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", body
                )
                assert first["status"] == second["status"] == "done"
                assert first["job_id"] != second["job_id"]
                # Nothing stored: the fingerprint is not fetchable.
                status, _ = await fetch_json(
                    "127.0.0.1", port, "GET", f"/v1/runs/{first['fingerprint']}"
                )
                assert status == 404
            finally:
                await stop_app(app)

        run_async(scenario())
        assert runner.calls == 2


class TestEndpointContract:
    def test_bad_json_and_bad_spec_are_400(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                status, payload = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", {"wait": True}
                )
                assert status == 400 and "scenario spec" in payload["error"]
                status, payload = await fetch_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/runs",
                    {**SPEC, "spec_version": 99},
                )
                assert status == 400 and "spec_version" in payload["error"]
                status, payload = await fetch_json(
                    "127.0.0.1",
                    port,
                    "POST",
                    "/v1/runs",
                    {**SPEC, "cache": "sometimes"},
                )
                assert status == 400 and "cache" in payload["error"]
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_non_boolean_knobs_are_400(self, tmp_path):
        """Regression: ``{"attack_enabled": "false"}`` was coerced with
        ``bool()`` and served the attacked run."""

        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                for key, value in (
                    ("attack_enabled", "false"),
                    ("attack_enabled", 0),
                    ("defended", "true"),
                    ("wait", "yes"),
                    ("wait", 1),
                ):
                    for body in ({**SPEC, key: value}, {"scenario": SPEC, key: value}):
                        status, payload = await fetch_json(
                            "127.0.0.1", port, "POST", "/v1/runs", body
                        )
                        assert status == 400, (body, payload)
                        assert key in payload["error"]
                        assert "boolean" in payload["error"]
                assert app.jobs.executed_runs == 0

                # Genuine booleans and the ?wait=1 query form still work.
                status, undefended = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1",
                    {**SPEC, "defended": False},
                )
                assert status == 200 and undefended["status"] == "done"
                status, attacked = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs",
                    {**SPEC, "defended": True, "attack_enabled": True, "wait": True},
                )
                assert status == 200 and attacked["status"] == "done"
                assert attacked["fingerprint"] != undefended["fingerprint"]
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_workers_is_not_a_request_knob(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                for body in ({**SPEC, "workers": 64}, {"scenario": SPEC, "workers": 64}):
                    status, payload = await fetch_json(
                        "127.0.0.1", app.port, "POST", "/v1/runs", body
                    )
                    assert status == 400, payload
                    assert "workers" in payload["error"]
                assert app.jobs.executed_runs == 0
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_invalid_sensor_seed_is_400(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                for seed in (-1, True):
                    status, payload = await fetch_json(
                        "127.0.0.1",
                        app.port,
                        "POST",
                        "/v1/runs",
                        {**SPEC, "sensor_seed": seed, "wait": True},
                    )
                    assert status == 400
                    assert "sensor_seed" in payload["error"]
                assert app.jobs.executed_runs == 0
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_unknown_resources_are_404(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                for path in (
                    "/v1/jobs/job-999999",
                    "/v1/runs/" + "0" * 64,
                    "/nope",
                ):
                    status, payload = await fetch_json(
                        "127.0.0.1", port, "GET", path
                    )
                    assert status == 404 and "error" in payload
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_wrong_method_is_405(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                status, _ = await fetch_json(
                    "127.0.0.1", app.port, "GET", "/v1/runs"
                )
                assert status == 405
                status, _ = await fetch_json(
                    "127.0.0.1", app.port, "POST", "/healthz", {}
                )
                assert status == 405
            finally:
                await stop_app(app)

        run_async(scenario())

    def test_wrapped_scenario_body(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path)
            try:
                status, payload = await fetch_json(
                    "127.0.0.1",
                    app.port,
                    "POST",
                    "/v1/runs",
                    {"scenario": SPEC, "wait": True, "backend": "scalar"},
                )
                assert status == 200 and payload["status"] == "done"
            finally:
                await stop_app(app)

        run_async(scenario())


class TestProcessPool:
    def test_first_misses_answer_through_forked_workers(self, tmp_path):
        """Regression: the pool forks lazily on the first miss, while
        that request's connection is open.  The worker inherited the
        socket, so the server's close sent no FIN and an EOF-reading
        client waited forever.  Responses now half-close."""

        async def scenario():
            app = await start_app(tmp_path, workers=1, executor="process")
            try:
                statuses = []
                for horizon in (11.0, 12.0, 11.0):  # miss, miss, hit
                    spec = scenario_to_dict(FAST.with_overrides(horizon=horizon))
                    status, payload = await fetch_json(
                        "127.0.0.1", app.port, "POST", "/v1/runs?wait=1",
                        spec, timeout=10.0,
                    )
                    statuses.append((status, payload["cache_hit"]))
                return statuses
            finally:
                await stop_app(app)

        assert run_async(scenario()) == [(200, False), (200, False), (200, True)]

    def test_worker_death_completes_on_the_thread_fallback(
        self, tmp_path, monkeypatch
    ):
        """A pool worker dying mid-run degrades the manager to threads:
        the job completes there, that thread stores the run, and
        ``/healthz`` reports why."""
        monkeypatch.setattr(jobs_module, "compute_record", _exit_in_pool_worker)
        writes = record_calls(monkeypatch, "put")

        async def scenario():
            app = await start_app(tmp_path, workers=1, executor="process")
            try:
                status, reply = await fetch_json(
                    "127.0.0.1", app.port, "POST", "/v1/runs?wait=1", SPEC,
                    timeout=TIMEOUT,
                )
                assert status == 200, reply
                _, health = await fetch_json(
                    "127.0.0.1", app.port, "GET", "/healthz"
                )
                return reply, health, threading.get_ident()
            finally:
                await stop_app(app)

        with pytest.warns(RuntimeWarning, match="executing runs on threads"):
            reply, health, loop_thread = run_async(scenario())
        assert reply["status"] == "done"
        assert reply["degraded_reason"].startswith("BrokenProcessPool")
        assert health["degraded_reason"] == reply["degraded_reason"]
        [(_, pid, thread)] = writes
        assert pid == os.getpid() and thread != loop_thread
        with RunStore(tmp_path / "service.sqlite") as store:
            assert store.summary(reply["fingerprint"]) == reply["result"]


#: Distinct miss bodies: toggles and seed all reach the stored row.
BODIES = (
    SPEC,
    {**SPEC, "attack_enabled": False},
    {**SPEC, "defended": False, "sensor_seed": 7},
)


class TestWhoeverComputesStores:
    """Each job runs through ``execute_batch``'s cache binding: the
    thread or pool worker that computes a run writes it, and only the
    summary dict returns to the event loop."""

    async def post_misses(self, app):
        replies = []
        for body in BODIES:
            status, reply = await fetch_json(
                "127.0.0.1", app.port, "POST", "/v1/runs?wait=1", body,
                timeout=TIMEOUT,
            )
            assert status == 200 and reply["cache_hit"] is False, reply
            replies.append(reply)
        return replies

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("shards", [None, 3])
    def test_rows_equal_execute_batch_rows(self, tmp_path, executor, shards):
        store = make_store(tmp_path / "service", shards)

        async def scenario():
            app = await start_app(
                tmp_path, store=store, executor=executor, workers=1
            )
            try:
                return await self.post_misses(app)
            finally:
                await stop_app(app)

        replies = run_async(scenario())
        specs = [
            RunSpec(
                scenario_from_dict(body),
                attack_enabled=body.get("attack_enabled", True),
                defended=body.get("defended", True),
            )
            for body in BODIES
        ]
        with make_store(tmp_path / "library", shards) as library:
            execute_batch(specs, cache=library, backend="scalar")
            expected = stored_rows(library)
        with make_store(tmp_path / "service", shards) as served:
            assert stored_rows(served) == expected
            # A miss answers with exactly the summary the row stores.
            for reply in replies:
                assert reply["result"] == served.summary(reply["fingerprint"])
        assert [reply["fingerprint"] for reply in replies] == [
            spec._fingerprint for spec in specs
        ]

    def test_the_loop_thread_never_writes(self, tmp_path, monkeypatch):
        writes = record_calls(monkeypatch, "put")

        async def scenario():
            app = await start_app(tmp_path)
            try:
                await self.post_misses(app)
                return threading.get_ident()
            finally:
                await stop_app(app)

        loop_thread = run_async(scenario())
        assert len(writes) == len(BODIES)
        assert all(thread != loop_thread for _, _, thread in writes)

    def test_readonly_writes_nothing_and_off_touches_nothing(
        self, tmp_path, monkeypatch
    ):
        calls = record_calls(monkeypatch, "get", "summary", "put")

        async def scenario():
            app = await start_app(tmp_path)
            try:
                port = app.port
                status, readonly = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1",
                    {**SPEC, "cache": "readonly"},
                )
                assert status == 200 and readonly["status"] == "done"
                assert "put" not in {name for name, _, _ in calls}
                calls.clear()
                status, off = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1",
                    {**SPEC, "cache": "off"},
                )
                assert status == 200 and off["status"] == "done"
                assert calls == []
                assert off["result"] == readonly["result"]
                return len(app.store)
            finally:
                await stop_app(app)

        assert run_async(scenario()) == 0

    def test_injected_runner_stores_through_the_binding(self, tmp_path):
        """The stub runner only counts and delegates: a hit after its
        miss proves the executor wrote the run."""
        runner = StubRunner()

        async def scenario():
            app = await start_app(tmp_path, runner=runner)
            try:
                port = app.port
                _, miss = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs?wait=1", SPEC
                )
                status, hit = await fetch_json(
                    "127.0.0.1", port, "POST", "/v1/runs", SPEC
                )
                assert status == 200 and hit["cache_hit"] is True
                assert hit["result"] == miss["result"]
            finally:
                await stop_app(app)

        run_async(scenario())
        assert runner.calls == 1


class TestDirectoryStore:
    def test_serve_autodetects_store_directory(self, tmp_path):
        """Regression: ``serve --store DIR`` without ``--store-shards``
        opened the directory as one SQLite file and failed every read."""
        path = tmp_path / "shards"
        with RunStore(path, shards=3) as store:
            execute_batch([RunSpec(FAST)], cache=store)

        async def scenario():
            out = io.StringIO()
            server = asyncio.ensure_future(
                serve_async(
                    "127.0.0.1", 0, store_path=str(path), executor="thread",
                    out=out, err=io.StringIO(),
                )
            )
            try:
                while not out.getvalue():
                    assert not server.done(), server.result()
                    await asyncio.sleep(0.01)
                port = int(out.getvalue().strip().rsplit(":", 1)[1])
                _, hit = await fetch_json("127.0.0.1", port, "POST", "/v1/runs", SPEC)
                _, stats = await fetch_json(
                    "127.0.0.1", port, "GET", "/v1/store/stats"
                )
                return hit, stats
            finally:
                server.cancel()
                await asyncio.gather(server, return_exceptions=True)

        hit, stats = run_async(scenario())
        assert hit["cache_hit"] is True
        assert stats["shard_count"] == 3
        assert stats["entries"] == 1


class TestStoreStatsSerialization:
    def test_service_stats_match_cli_json(self, tmp_path):
        store_path = tmp_path / "service.sqlite"

        async def scenario():
            store = RunStore(store_path)
            app = ServiceApp(store, executor="thread")
            await app.start("127.0.0.1", 0)
            try:
                await fetch_json(
                    "127.0.0.1", app.port, "POST", "/v1/runs?wait=1", SPEC
                )
                status, stats = await fetch_json(
                    "127.0.0.1", app.port, "GET", "/v1/store/stats"
                )
                assert status == 200
                return stats
            finally:
                await app.close()
                store.close()

        service_stats = run_async(scenario())
        out = io.StringIO()
        assert (
            main(["cache", "stats", "--json", "--store", str(store_path)], out=out)
            == 0
        )
        cli_stats = json.loads(out.getvalue())
        # db_bytes legitimately differs: the service reads while the
        # WAL is open, the CLI after checkpoint-on-close. Everything
        # else must match field-for-field (shared as_dict() path).
        assert cli_stats.keys() == service_stats.keys()
        cli_stats.pop("db_bytes"), service_stats.pop("db_bytes")
        assert cli_stats == service_stats
        assert service_stats["entries"] == 1
        assert service_stats["by_scenario"] == {"fig2-dos/dos/defended": 1}

    def test_cli_json_on_missing_store(self, tmp_path):
        out = io.StringIO()
        code = main(
            ["cache", "stats", "--json", "--store", str(tmp_path / "none.sqlite")],
            out=out,
        )
        assert code == 0
        stats = json.loads(out.getvalue())
        assert stats["entries"] == 0
        assert stats["by_scenario"] == {}


class TestJobManager:
    def test_rejects_bad_executor(self, tmp_path):
        with pytest.raises(ConfigurationError, match="executor"):
            JobManager(RunStore(tmp_path / "s.sqlite"), executor="fibers")

    def test_rejects_bad_cache_mode(self, tmp_path):
        async def scenario():
            manager = JobManager(
                RunStore(tmp_path / "s.sqlite"), executor="thread"
            )
            with pytest.raises(ConfigurationError, match="cache"):
                manager.submit(SPEC, cache="sometimes")
            await manager.close()

        run_async(scenario())

    def test_rejects_non_boolean_toggles(self, tmp_path):
        async def scenario():
            manager = JobManager(
                RunStore(tmp_path / "s.sqlite"), executor="thread"
            )
            for knob in ("attack_enabled", "defended"):
                with pytest.raises(ConfigurationError, match=knob):
                    manager.submit(SPEC, **{knob: "false"})
            assert manager.executed_runs == 0
            await manager.close()

        run_async(scenario())

    def test_serve_parser_accepts_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "3", "--backend", "auto"]
        )
        assert args.command == "serve"
        assert args.port == 0
        assert args.workers == 3
        assert args.backend == "auto"
        assert args.max_jobs is None  # default: library MAX_RETAINED_JOBS


class TestBoundedRetention:
    """Regression: the jobs table grew without bound per process (the
    module cap existed but was not configurable and eviction was
    silent).  Retention is now a constructor/CLI knob with telemetry."""

    def distinct_spec(self, horizon):
        scenario = repro.fig2_scenario("dos", horizon=float(horizon))
        return scenario_to_dict(scenario)

    def test_rejects_bad_limit(self, tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        try:
            for bad in (0, -1, "many"):
                with pytest.raises(ConfigurationError, match="max_retained"):
                    JobManager(store, max_retained_jobs=bad)
        finally:
            store.close()

    def test_completed_jobs_evicted_beyond_limit(self, tmp_path):
        runner = StubRunner()

        async def scenario():
            app = await start_app(
                tmp_path, runner=runner, max_retained_jobs=2
            )
            try:
                submitted = []
                for horizon in (11, 12, 13, 14):
                    submission = app.jobs.submit(self.distinct_spec(horizon))
                    job = submission.job
                    assert job is not None
                    await asyncio.wait_for(job.done.wait(), TIMEOUT)
                    submitted.append(job.job_id)
                # One more submission triggers the trim of the oldest
                # completed records down to the limit.
                last = app.jobs.submit(self.distinct_spec(15)).job
                await asyncio.wait_for(last.done.wait(), TIMEOUT)
                evicted = [
                    job_id
                    for job_id in submitted
                    if app.jobs.get_job(job_id) is None
                ]
                return app.jobs, evicted, last.job_id
            finally:
                await stop_app(app)

        with telemetry.session() as tele:
            jobs, evicted, last_id = run_async(scenario())
        assert len(jobs._jobs) == 2
        assert jobs.get_job(last_id) is not None  # newest survives
        # 5 submissions through a 2-slot table: the 3 oldest completed
        # records are gone, and the counter/telemetry agree.
        assert len(evicted) == 3
        assert jobs.evicted_jobs == 3
        assert tele.counters["service.evicted"] == 3

    def test_inflight_jobs_never_evicted(self, tmp_path):
        runner = StubRunner(gated=True)

        async def scenario():
            app = await start_app(
                tmp_path, runner=runner, max_retained_jobs=1
            )
            try:
                jobs = [
                    app.jobs.submit(
                        self.distinct_spec(h), cache="off"
                    ).job
                    for h in (11, 12, 13)
                ]
                # All three are in flight and over the limit, but live
                # jobs must not be dropped.
                assert all(
                    app.jobs.get_job(job.job_id) is not None for job in jobs
                )
                assert app.jobs.evicted_jobs == 0
                runner.release()
                for job in jobs:
                    await asyncio.wait_for(job.done.wait(), TIMEOUT)
                return True
            finally:
                await stop_app(app)

        assert run_async(scenario())

    def test_healthz_reports_retention(self, tmp_path):
        async def scenario():
            app = await start_app(tmp_path, max_retained_jobs=7)
            try:
                status, health = await fetch_json(
                    "127.0.0.1", app.port, "GET", "/healthz"
                )
                assert status == 200
                return health
            finally:
                await stop_app(app)

        health = run_async(scenario())
        assert health["max_retained_jobs"] == 7
        assert health["evicted_jobs"] == 0

    def test_serve_parser_accepts_max_jobs(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--max-jobs", "64"])
        assert args.max_jobs == 64
