"""Extension bench — sustained throughput of the simulation service.

Runs :class:`repro.service.ServiceApp` in-process on an ephemeral port
against a fresh temporary store and drives it with the package's own
async JSON client (:func:`repro.service.fetch_json`):

* **warm-up** — POSTs 10 unique short-horizon specs to completion,
  populating the store;
* **mixed phase** — 200 blocking requests at a 90% hit ratio: 180
  spread over the 10 warm specs plus 20 over 5 *cold* specs, each cold
  spec POSTed 4x concurrently so single-flight coalescing is load-
  bearing, not incidental;
* **hit phase** — 100 requests over the warm specs only, measuring the
  pure replay path.

Asserts the service tentpole contract:

* coalescing holds the executed-run count at the number of **unique**
  specs (15) across 300+ requests;
* the pure hit path sustains at least ``HIT_RPS_FLOOR`` req/s (each
  request is a full HTTP round-trip plus a SQLite fingerprint lookup —
  no engine execution);
* telemetry counters account for every request
  (hits + misses = requests on ``/v1/runs``).

The measured req/s numbers are written to ``BENCH_service.json`` at
the repo root (committed, like ``BENCH_sweep.json``) under a host
header, so throughput is tracked across revisions.
"""

import asyncio
import json
import time
from pathlib import Path

from conftest import emit, host_header
from repro import fig2_scenario, telemetry
from repro.analysis import render_table
from repro.service import ServiceApp, fetch_json
from repro.simulation.spec import scenario_to_dict
from repro.store import RunStore

#: Floor on the pure cache-hit path. Locally this path sustains
#: hundreds of req/s; the floor only guards against the hit path
#: accidentally acquiring an engine execution or a pool hop.
HIT_RPS_FLOOR = 20.0

WARM_SPECS = 10
COLD_SPECS = 5
COLD_DUPLICATES = 4
MIXED_HITS = 180
HIT_PHASE_REQUESTS = 100

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"


def _spec(seed: int) -> dict:
    scenario = fig2_scenario("dos", horizon=20.0)
    body = scenario_to_dict(scenario)
    body["sensor_seed"] = seed
    body["name"] = f"svc-bench-{seed}"
    return body


async def _post(port, body):
    status, payload = await fetch_json(
        "127.0.0.1", port, "POST", "/v1/runs?wait=1", body
    )
    assert status == 200, payload
    assert payload["status"] == "done", payload
    return payload


async def _drive(store_path):
    store = RunStore(store_path)
    # Thread executor: the workload is 0.007 s runs, where process-pool
    # startup would dominate and measure the OS, not the service.
    app = ServiceApp(store, workers=4, executor="thread")
    await app.start("127.0.0.1", 0)
    port = app.port
    try:
        warm = [_spec(seed) for seed in range(WARM_SPECS)]
        cold = [_spec(1000 + seed) for seed in range(COLD_SPECS)]

        for body in warm:
            await _post(port, body)
        assert app.jobs.executed_runs == WARM_SPECS

        # Mixed phase: 90% hits + coalescing bursts on the cold specs.
        start = time.perf_counter()
        requests = [
            _post(port, warm[i % WARM_SPECS]) for i in range(MIXED_HITS)
        ]
        for body in cold:
            requests.extend(_post(port, body) for _ in range(COLD_DUPLICATES))
        replies = await asyncio.gather(*requests)
        mixed_elapsed = time.perf_counter() - start
        mixed_requests = len(replies)

        # Pure hit phase.
        start = time.perf_counter()
        await asyncio.gather(
            *(
                _post(port, warm[i % WARM_SPECS])
                for i in range(HIT_PHASE_REQUESTS)
            )
        )
        hit_elapsed = time.perf_counter() - start

        return {
            "executed_runs": app.jobs.executed_runs,
            "store_entries": store.stats().entries,
            "mixed_requests": mixed_requests,
            "mixed_elapsed_s": mixed_elapsed,
            "hit_requests": HIT_PHASE_REQUESTS,
            "hit_elapsed_s": hit_elapsed,
        }
    finally:
        await app.close()
        store.close()


def bench_service_throughput(benchmark, tmp_path_factory):
    store_path = tmp_path_factory.mktemp("service") / "service.sqlite"

    def sweep():
        with telemetry.session() as tele:
            measured = asyncio.run(_drive(store_path))
        measured["counters"] = dict(tele.counters)
        return measured

    m = benchmark.pedantic(sweep, rounds=1, iterations=1)
    counters = m["counters"]
    unique = WARM_SPECS + COLD_SPECS

    # Coalescing + the store hold executed runs at the unique-spec
    # count no matter how many requests arrived.
    assert m["executed_runs"] == unique, m
    assert m["store_entries"] == unique
    assert counters["service.executed"] == unique
    total_posts = (
        WARM_SPECS + m["mixed_requests"] + m["hit_requests"]
    )
    hits = counters["service.cache_hit"]
    coalesced = counters.get("service.coalesced", 0)
    assert hits + coalesced + unique == total_posts, counters

    mixed_rps = m["mixed_requests"] / m["mixed_elapsed_s"]
    hit_rps = m["hit_requests"] / m["hit_elapsed_s"]
    assert hit_rps >= HIT_RPS_FLOOR, (
        f"pure hit path sustained {hit_rps:.0f} req/s, "
        f"floor is {HIT_RPS_FLOOR:.0f}"
    )

    record = {
        "host": host_header("bench_service_throughput", smoke=False),
        "workload": (
            f"{m['mixed_requests']} mixed requests at 90% hit ratio + "
            f"{m['hit_requests']} pure hits over {unique} unique specs"
        ),
        "mixed_rps": round(mixed_rps, 1),
        "hit_rps": round(hit_rps, 1),
        "executed_runs": m["executed_runs"],
        "unique_specs": unique,
        "coalesced": coalesced,
        "cache_hits": hits,
        "hit_rps_floor": HIT_RPS_FLOOR,
    }
    RESULTS_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        "service_throughput",
        render_table(
            [
                {
                    "phase": "mixed (90% hit ratio)",
                    "requests": m["mixed_requests"],
                    "req_per_s": round(mixed_rps, 1),
                    "executed": "-",
                },
                {
                    "phase": "pure hits",
                    "requests": m["hit_requests"],
                    "req_per_s": round(hit_rps, 1),
                    "executed": "-",
                },
                {
                    "phase": f"total (floor {HIT_RPS_FLOOR:.0f} rps on hits)",
                    "requests": total_posts,
                    "req_per_s": "-",
                    "executed": m["executed_runs"],
                },
            ],
            title=(
                "Service throughput: single-flight held "
                f"{total_posts} requests to {m['executed_runs']} engine "
                f"executions ({unique} unique specs)"
            ),
        ),
    )
