"""Vector groups on the worker pool (repro.simulation.batch).

With ``workers > 1`` a batch's vector groups run as pool tasks next to
its scalar chunks.  Results, engine provenance and stored rows must not
depend on where a group ran; the worker that computed a group stores
it; a dying worker degrades the batch to the serial path; and a
vectorized-engine failure inside a worker falls back to the scalar
engine there while the caller still sees the warning.
"""

import multiprocessing
import os

import pytest

import repro.simulation.vectorized
from repro import fig2_scenario, telemetry
from repro.simulation import RunSpec, execute_batch
from repro.simulation.io import result_to_dict
from repro.store import RunStore

FAST = fig2_scenario("dos", horizon=20.0)


def _specs(blocked=False):
    """Two vector groups of three (defended / undefended), plus, with
    ``blocked``, one IDM spec that only the scalar engine runs."""
    specs = [
        RunSpec(FAST.with_overrides(sensor_seed=seed), defended=defended,
                tag=f"{defended}-{seed}")
        for defended in (True, False)
        for seed in range(3)
    ]
    if blocked:
        specs.insert(2, RunSpec(FAST.with_overrides(follower_policy="idm"),
                                tag="idm"))
    return specs


def _exit_in_child(spec, result):
    """Reducer that kills any pool worker running it; the identity in
    the calling process."""
    if multiprocessing.parent_process() is not None:
        os._exit(3)
    return result


def _store(tmp_path, name, shards):
    path = tmp_path / (f"{name}.sqlite" if shards is None else name)
    return RunStore(path) if shards is None else RunStore(path, shards=shards)


def _rows(store):
    """Stored rows without their write time."""
    return [
        {k: v for k, v in row.items() if k != "created_at"}
        for row in store.iter_rows()
    ]


@pytest.mark.parametrize("shards", [None, 3])
@pytest.mark.parametrize("backend", ["vectorized", "auto"])
def test_pooled_groups_equal_serial(tmp_path, backend, shards):
    specs = _specs(blocked=backend == "auto")
    batches, rows = {}, {}
    for workers in (1, 2):
        with _store(tmp_path, f"w{workers}", shards) as store:
            batches[workers] = execute_batch(
                specs, workers=workers, cache=store, backend=backend
            )
            rows[workers] = _rows(store)
    serial, pooled = batches[1], batches[2]
    assert pooled.parallel and not serial.parallel
    assert {r.worker_pid for r in pooled.records}.isdisjoint({os.getpid()})
    assert [r.backend_used for r in pooled.records] == [
        r.backend_used for r in serial.records
    ]
    assert "vectorized" in {r.backend_used for r in pooled.records}
    assert [result_to_dict(p) for p in pooled.payloads()] == [
        result_to_dict(p) for p in serial.payloads()
    ]
    assert len(rows[2]) == len(specs)
    assert rows[2] == rows[1]


def test_worker_writes_count_vector_groups(tmp_path):
    specs = _specs()
    with RunStore(tmp_path / "one.sqlite") as store, telemetry.session() as tele:
        batch = execute_batch(specs, workers=2, cache=store, backend="vectorized")
        assert len(store) == len(specs)
    assert batch.parallel
    assert all(r.backend_used == "vectorized" for r in batch.records)
    assert tele.counters["store.worker_writes"] == len(specs)
    assert "store.writes" not in tele.counters


@pytest.mark.parametrize("shards", [None, 3])
def test_worker_death_in_group_degrades_and_stores_each_run_once(
    tmp_path, shards
):
    """A worker dying inside a vector group breaks the pool: the batch
    re-runs serially, warns, and stores every run exactly once."""
    specs = _specs()
    with _store(tmp_path, "store", shards) as store:
        with pytest.warns(RuntimeWarning, match="re-running the 6-spec batch"):
            batch = execute_batch(
                specs, workers=2, cache=store, backend="vectorized",
                postprocess=_exit_in_child,
            )
        assert not batch.parallel and batch.workers == 1
        assert batch.degraded_reason.startswith("BrokenProcessPool")
        assert all(record.ok for record in batch.records)
        assert store.fingerprints() == sorted(s._fingerprint for s in specs)
        assert len(list(store.iter_rows())) == len(specs)
    serial = execute_batch(specs, workers=1, backend="vectorized")
    assert [result_to_dict(p) for p in batch.payloads()] == [
        result_to_dict(p) for p in serial.payloads()
    ]


def test_engine_failure_in_worker_falls_back_to_scalar(monkeypatch):
    """The worker re-runs a failed group on the scalar engine; the
    warning is raised again in the calling process."""

    def broken_group(specs):
        raise FloatingPointError("lock-step loop diverged")

    monkeypatch.setattr(
        repro.simulation.vectorized, "run_group_vectorized", broken_group
    )
    specs = _specs()
    with pytest.warns(RuntimeWarning, match="vectorized group of 3 runs failed"):
        batch = execute_batch(specs, workers=2, backend="vectorized")
    assert batch.parallel and batch.degraded_reason is None
    assert all(r.backend_used == "scalar" for r in batch.records)
    assert os.getpid() not in {r.worker_pid for r in batch.records}
    scalar = execute_batch(specs, workers=1, backend="scalar")
    assert [result_to_dict(p) for p in batch.payloads()] == [
        result_to_dict(p) for p in scalar.payloads()
    ]
