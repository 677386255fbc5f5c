#!/usr/bin/env python
"""End-to-end smoke test of ``repro serve`` as a real subprocess.

Exercises the deployment surface CI cares about, with no test
harness in the loop:

1. start ``python -m repro serve --port 0`` against a temporary store
   and read the bound base URL from its first stdout line;
2. ``GET /healthz`` answers ok;
3. ``POST /v1/runs`` with a small fig2a spec returns 202 and the job
   polls through to ``done``;
4. re-POSTing the identical spec returns 200 with ``cache_hit`` true,
   the same fingerprint and the polled job's ``result``; ``GET
   /v1/runs/{fp}`` returns that summary, and ``?trace=1`` a payload
   with the run's name;
5. ``GET /v1/store/stats`` counts the stored run;
6. SIGINT shuts the server down cleanly (exit code 0).

Exits non-zero with a diagnostic on any failure.  Uses only the
standard library on the client side (urllib) so it doubles as an
integration check that the service speaks plain HTTP/JSON.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
sys.path.insert(0, SRC)

from repro import fig2_scenario  # noqa: E402
from repro.simulation.spec import scenario_to_dict  # noqa: E402

POLL_DEADLINE_S = 60.0


def request(method, url, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, method=method)
    if data is not None:
        req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def fail(message, server=None):
    print(f"SMOKE FAIL: {message}", file=sys.stderr)
    if server is not None:
        server.kill()
        server.wait()
    return 1


def main():
    spec = scenario_to_dict(fig2_scenario("dos", horizon=60.0))
    with tempfile.TemporaryDirectory() as tmp:
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--workers",
                "2",
                "--store",
                os.path.join(tmp, "smoke.sqlite"),
            ],
            stdout=subprocess.PIPE,
            text=True,
            env={
                **os.environ,
                "PYTHONUNBUFFERED": "1",
                "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
            },
        )
        base = server.stdout.readline().strip()
        if not base.startswith("http://"):
            return fail(f"expected base URL on stdout, got {base!r}", server)
        print(f"serving at {base}")

        status, health = request("GET", base + "/healthz")
        if status != 200 or health.get("status") != "ok":
            return fail(f"healthz: {status} {health}", server)

        status, queued = request("POST", base + "/v1/runs", spec)
        if status != 202 or queued.get("cache_hit") is not False:
            return fail(f"cold POST: {status} {queued}", server)
        job_url = base + f"/v1/jobs/{queued['job_id']}"

        deadline = time.monotonic() + POLL_DEADLINE_S
        while True:
            status, job = request("GET", job_url)
            if status != 200:
                return fail(f"job poll: {status} {job}", server)
            if job["status"] in ("done", "failed"):
                break
            if time.monotonic() > deadline:
                return fail(f"job never finished: {job}", server)
            time.sleep(0.1)
        if job["status"] != "done":
            return fail(f"job failed: {job}", server)
        print(f"job {queued['job_id']} done (backend={job['backend_used']})")

        status, hit = request("POST", base + "/v1/runs", spec)
        if status != 200 or hit.get("cache_hit") is not True:
            return fail(f"warm POST was not a cache hit: {status} {hit}", server)
        if hit["fingerprint"] != queued["fingerprint"]:
            return fail("fingerprint changed between identical POSTs", server)
        if hit["result"] != job["result"]:
            return fail(f"hit result {hit['result']} != job result {job['result']}", server)
        run_url = base + f"/v1/runs/{hit['fingerprint']}"
        status, stored = request("GET", run_url)
        if status != 200 or stored.get("summary") != job["result"]:
            return fail(f"stored run: {status} {stored}", server)
        status, traced = request("GET", run_url + "?trace=1")
        if status != 200 or traced.get("payload", {}).get("name") != job["result"]["name"]:
            return fail(f"stored trace: {status} {str(traced)[:300]}", server)
        print(f"cache hit on {hit['fingerprint'][:12]}...")

        status, stats = request("GET", base + "/v1/store/stats")
        if status != 200 or stats.get("entries") != 1:
            return fail(f"store stats: {status} {stats}", server)

        server.send_signal(signal.SIGINT)
        code = server.wait(timeout=30)
        if code != 0:
            return fail(f"server exited {code} on SIGINT")
        print("service smoke: OK")
        return 0


if __name__ == "__main__":
    sys.exit(main())
