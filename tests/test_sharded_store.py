"""Directory run stores (``RunStore(path, shards=N)``): routing,
geometry, merge between layouts, and safe concurrent multi-process
writers.  The API contract every layout shares is in test_store.py."""

import hashlib
import io
import json
import os
import pickle
from concurrent.futures import ProcessPoolExecutor

import pytest

import repro
import repro.store.sharded
from repro import fig2_scenario, telemetry
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation import RunSpec, execute_batch
from repro.store import (
    MANIFEST_NAME,
    SHARD_LAYOUT,
    CacheBinding,
    RunStore,
    default_sharded_store_path,
    merge_stores,
    shard_index,
)
from repro.store.runstore import MAX_SHARDS

FAST = fig2_scenario("dos", horizon=20.0)


def _fp(i: int) -> str:
    """A realistic synthetic fingerprint (uniform leading bits)."""
    return hashlib.sha256(f"run-{i}".encode()).hexdigest()


@pytest.fixture(scope="module")
def result():
    return repro.run(FAST)


class TestShardIndex:
    def test_matches_prefix_modulo(self):
        fp = _fp(0)
        for n in (1, 2, 8, 64):
            assert shard_index(fp, n) == int(fp[:8], 16) % n

    def test_in_range_and_deterministic(self):
        for i in range(50):
            for n in (1, 3, 8):
                index = shard_index(_fp(i), n)
                assert 0 <= index < n
                assert index == shard_index(_fp(i), n)

    def test_spreads_evenly(self):
        counts = [0] * 8
        for i in range(2000):
            counts[shard_index(_fp(i), 8)] += 1
        # SHA-256 prefixes are uniform; 2000 draws over 8 bins should
        # land well inside +-40% of the 250-per-bin expectation.
        assert min(counts) > 150
        assert max(counts) < 350


class TestShardedRunStore:
    def test_put_touches_only_owner_shard(self, tmp_path, result):
        path = tmp_path / "shards"
        with RunStore(path, shards=4) as store:
            store.put(_fp(0), result)
        owner = shard_index(_fp(0), 4)
        files = sorted(p.name for p in path.iterdir())
        assert files == sorted([MANIFEST_NAME, f"shard-{owner:04d}.sqlite"])

    def test_fingerprints_sorted_across_shards(self, tmp_path, result):
        keys = [_fp(i) for i in range(12)]
        with RunStore(tmp_path / "shards", shards=4) as store:
            for key in keys:
                store.put(key, result)
            assert len(store) == 12
            assert store.fingerprints() == sorted(keys)
            assert all(key in store for key in keys)

    def test_stats_per_shard_breakdown(self, tmp_path, result):
        with RunStore(tmp_path / "shards", shards=2) as store:
            for i in range(6):
                store.put(_fp(i), result)
            stats = store.stats()
        assert stats.entries == 6
        assert stats.shard_count == 2
        assert [s.shard for s in stats.shards] == [
            "shard-0000.sqlite",
            "shard-0001.sqlite",
        ]
        assert sum(s.entries for s in stats.shards) == 6
        assert dict(stats.by_scenario) == {result.name: 6}
        as_dict = stats.as_dict()
        assert as_dict["shard_count"] == 2
        assert len(as_dict["shards"]) == 2
        # Unsharded stats don't carry the breakdown, only the count.
        flat = RunStore(tmp_path / "flat.sqlite").stats().as_dict()
        assert flat["shard_count"] == 1
        assert "shards" not in flat

    def test_stats_counts_missing_shards_as_empty(self, tmp_path, result):
        with RunStore(tmp_path / "shards", shards=8) as store:
            store.put(_fp(0), result)
            stats = store.stats()
        assert len(stats.shards) == 8
        assert sum(s.entries for s in stats.shards) == 1

    def test_evict_routes_and_clear(self, tmp_path, result):
        keys = [_fp(i) for i in range(5)]
        with RunStore(tmp_path / "shards", shards=4) as store:
            for key in keys:
                store.put(key, result)
            assert store.evict([keys[0]]) == 1
            assert store.evict([]) == 0
            assert store.evict([keys[0]]) == 0  # already gone
            assert len(store) == 4
            assert store.clear() == 4
            assert len(store) == 0

    def test_export_inventory(self, tmp_path, result):
        keys = [_fp(i) for i in range(4)]
        with RunStore(tmp_path / "shards", shards=2) as store:
            for key in keys:
                store.put(key, result, sensor_seed=7)
            out = store.export(tmp_path / "inv.json")
        data = json.loads(out.read_text())
        assert data["layout"] == SHARD_LAYOUT
        assert data["shards"] == 2
        exported = [entry["fingerprint"] for entry in data["entries"]]
        assert exported == sorted(keys)
        assert all("payload" not in entry for entry in data["entries"])
        assert data["entries"][0]["sensor_seed"] == 7

    def test_default_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert (
            default_sharded_store_path()
            == tmp_path / "cachedir" / "runstore-shards"
        )

    def test_sharded_name_is_the_run_store_class(self):
        assert repro.store.sharded.ShardedRunStore is RunStore


class TestManifest:
    def test_written_on_first_put(self, tmp_path, result):
        path = tmp_path / "shards"
        with RunStore(path, shards=3) as store:
            store.put(_fp(0), result)
        manifest = json.loads((path / MANIFEST_NAME).read_text())
        assert manifest == {"layout": SHARD_LAYOUT, "shards": 3}

    def test_reopen_autodetects_geometry(self, tmp_path, result):
        path = tmp_path / "shards"
        with RunStore(path, shards=3) as store:
            store.put(_fp(0), result)
        with RunStore(path) as reopened:
            assert reopened.shards == 3
            assert reopened.get(_fp(0)) is not None

    def test_reopen_with_wrong_geometry_refused(self, tmp_path, result):
        path = tmp_path / "shards"
        with RunStore(path, shards=3) as store:
            store.put(_fp(0), result)
        with pytest.raises(ConfigurationError, match="laid out as 3 shards"):
            RunStore(path, shards=4)

    def test_shard_files_without_manifest_refused(self, tmp_path):
        path = tmp_path / "shards"
        path.mkdir()
        (path / "shard-0000.sqlite").touch()
        with pytest.raises(ConfigurationError, match="no shards.json"):
            RunStore(path)

    def test_unreadable_manifest_refused(self, tmp_path):
        path = tmp_path / "shards"
        path.mkdir()
        (path / MANIFEST_NAME).write_text("not json")
        with pytest.raises(ConfigurationError, match="unreadable"):
            RunStore(path)

    def test_unknown_layout_refused(self, tmp_path):
        path = tmp_path / "shards"
        path.mkdir()
        (path / MANIFEST_NAME).write_text(
            json.dumps({"layout": "range-v9", "shards": 2})
        )
        with pytest.raises(ConfigurationError, match="unknown shard layout"):
            RunStore(path)

    @pytest.mark.parametrize("bad", [0, -1, MAX_SHARDS + 1, True, "8", 2.0])
    def test_invalid_shard_counts(self, tmp_path, bad):
        with pytest.raises(ConfigurationError):
            RunStore(tmp_path / "shards", shards=bad)

    def test_default_shard_count(self, tmp_path):
        # A fresh path is a directory store only with an explicit
        # shards=; without it, it is a one-file store.
        assert RunStore(tmp_path / "shards", shards=8).shards == 8
        assert RunStore(tmp_path / "flat.sqlite").shards == 1

    def test_single_file_refuses_shards(self, tmp_path, result):
        path = tmp_path / "flat.sqlite"
        with RunStore(path) as store:
            store.put(_fp(0), result)
        with pytest.raises(ConfigurationError, match="single file"):
            RunStore(path, shards=2)

    def test_bare_directory_needs_shards(self, tmp_path):
        path = tmp_path / "empty"
        path.mkdir()
        with pytest.raises(ConfigurationError, match="shards="):
            RunStore(path)
        assert RunStore(path, shards=2).shards == 2

    def test_prepare_idempotent(self, tmp_path):
        path = tmp_path / "shards"
        store = RunStore(path, shards=2)
        store.prepare()
        before = (path / MANIFEST_NAME).read_text()
        store.prepare()
        assert (path / MANIFEST_NAME).read_text() == before


class TestPickle:
    """A store pickles as its path plus geometry: the copy opens its
    own connections lazily and addresses the same files."""

    @staticmethod
    def _round_trip(store):
        copy = pickle.loads(pickle.dumps(store))
        # sqlite3 connections do not pickle, so reaching here already
        # means none crossed; the copy starts with none open.
        assert all(file._conn is None for file in copy._files)
        assert copy.path == store.path
        assert copy.shards == store.shards
        return copy

    @pytest.mark.parametrize("layout", ["file", "fresh directory", "directory"])
    def test_round_trip(self, tmp_path, result, layout):
        if layout == "file":
            store = RunStore(tmp_path / "runs.sqlite")
        else:
            store = RunStore(tmp_path / "shards", shards=3)
            if layout == "directory":
                store.prepare()
        with store:
            fresh = self._round_trip(store)  # no connection open yet
            with fresh:
                assert fresh.put(_fp(0), result)
            assert _fp(0) in store  # landed in the parent's file

            store.put(_fp(1), result)  # the parent's connections are open
            assert any(file._conn is not None for file in store._files)
            with self._round_trip(store) as copy:
                assert copy.get(_fp(1)) is not None  # reads the parent's rows
                assert copy.put(_fp(2), result)
                assert copy.fingerprints() == sorted(_fp(i) for i in range(3))
            assert store.fingerprints() == sorted(_fp(i) for i in range(3))
            assert store.stats().shard_count == store.shards


class TestMerge:
    def _rows(self, store):
        return {
            row["fingerprint"]: (row["payload"], row["created_at"])
            for row in store.iter_rows()
        }

    def test_sharded_to_single_is_byte_preserving(self, tmp_path, result):
        with RunStore(tmp_path / "shards", shards=4) as source:
            for i in range(6):
                source.put(_fp(i), result)
            with RunStore(tmp_path / "flat.sqlite") as dest:
                assert merge_stores(source, dest) == 6
                assert self._rows(dest) == self._rows(source)

    def test_single_to_sharded_reshard(self, tmp_path, result):
        with RunStore(tmp_path / "flat.sqlite") as source:
            for i in range(6):
                source.put(_fp(i), result)
            with RunStore(tmp_path / "shards", shards=3) as dest:
                assert merge_stores(source, dest) == 6
                assert self._rows(dest) == self._rows(source)
                loaded = dest.get(_fp(0))
        for name in result.traces:
            assert loaded.traces[name].values == result.traces[name].values

    def test_sharded_to_sharded_changes_geometry(self, tmp_path, result):
        with RunStore(tmp_path / "a", shards=4) as source:
            for i in range(6):
                source.put(_fp(i), result)
            with RunStore(tmp_path / "b", shards=2) as dest:
                assert merge_stores(source, dest) == 6
                assert dest.shards == 2
                assert self._rows(dest) == self._rows(source)

    def test_merge_skips_existing(self, tmp_path, result):
        with RunStore(tmp_path / "shards", shards=2) as source:
            for i in range(3):
                source.put(_fp(i), result)
            with RunStore(tmp_path / "flat.sqlite") as dest:
                assert merge_stores(source, dest) == 3
                assert merge_stores(source, dest) == 0
                assert len(dest) == 3


# ----------------------------------------------------------------------
# multi-process writers (module-level workers: must be picklable)
# ----------------------------------------------------------------------


def _write_runs(path, shards, start, count):
    """Worker: open the store and write `count` runs."""
    result = repro.run(FAST)
    with RunStore(path, shards=shards) as store:
        written = sum(
            bool(store.put(_fp(start + i), result)) for i in range(count)
        )
    return os.getpid(), written


class TestMultiProcessWriters:
    def test_disjoint_writers_lose_nothing(self, tmp_path):
        path = str(tmp_path / "shards")
        RunStore(path, shards=4).prepare()
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_write_runs, path, 4, worker * 100, 8)
                for worker in range(4)
            ]
            outcomes = [f.result() for f in futures]
        assert sum(written for _, written in outcomes) == 32
        with RunStore(path) as store:
            assert len(store) == 32
            expected = sorted(
                _fp(worker * 100 + i) for worker in range(4) for i in range(8)
            )
            assert store.fingerprints() == expected

    def test_one_file_writers_lose_nothing(self, tmp_path):
        """Writers of one WAL file queue on its lock; nothing is lost."""
        path = str(tmp_path / "runs.sqlite")
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_write_runs, path, None, worker * 100, 4)
                for worker in range(4)
            ]
            outcomes = [f.result() for f in futures]
        assert sum(written for _, written in outcomes) == 16
        with RunStore(path) as store:
            assert store.shards == 1
            assert store.fingerprints() == sorted(
                _fp(worker * 100 + i) for worker in range(4) for i in range(4)
            )

    def test_overlapping_writers_single_winner(self, tmp_path):
        """Every worker races on the same fingerprints (and on manifest
        creation): exactly one insert wins per key, none are lost."""
        path = str(tmp_path / "shards")
        with ProcessPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(_write_runs, path, 4, 0, 8) for _ in range(4)
            ]
            outcomes = [f.result() for f in futures]
        assert sum(written for _, written in outcomes) == 8
        with RunStore(path) as store:
            assert len(store) == 8
            assert store.shards == 4


class TestBatchWorkerWrites:
    def _specs(self, n):
        return [
            RunSpec(FAST.with_overrides(sensor_seed=seed)) for seed in range(n)
        ]

    def test_whoever_computes_a_run_stores_it(self, tmp_path):
        """Pool workers write their own results whatever the file
        count; a serial batch writes inline from the calling process."""
        specs = self._specs(2)
        for store in (
            RunStore(tmp_path / "one.sqlite"),
            RunStore(tmp_path / "three", shards=3),
        ):
            with store, telemetry.session() as tele:
                batch = execute_batch(specs, workers=2, cache=store, backend="scalar")
                assert len(store) == 2
            assert batch.parallel
            assert tele.counters["store.worker_writes"] == 2
            assert "store.writes" not in tele.counters

        with RunStore(tmp_path / "serial.sqlite") as store:
            with telemetry.session() as tele:
                execute_batch(specs, workers=1, cache=store, backend="scalar")
            assert len(store) == 2
        assert tele.counters["store.writes"] == 2
        assert "store.worker_writes" not in tele.counters

    def test_cold_then_warm_through_pool(self, tmp_path):
        specs = self._specs(4)
        plain = execute_batch(specs)
        for store in (
            RunStore(tmp_path / "one.sqlite"),
            RunStore(tmp_path / "shards", shards=4),
        ):
            with store:
                with telemetry.session() as tele:
                    cold = execute_batch(specs, workers=2, cache=store)
                assert cold.cache_hits == 0
                assert len(store) == 4
                if cold.parallel:
                    # The pool workers wrote the store directly.
                    assert tele.counters["store.worker_writes"] == 4

                warm = execute_batch(specs, workers=1, cache=store)
                assert warm.cache_hits == 4
                assert all(r.cached for r in warm.records)

            for a, b in zip(warm.records, plain.records):
                for name in b.payload.traces:
                    assert (
                        a.payload.traces[name].values
                        == b.payload.traces[name].values
                    )
                    assert (
                        a.payload.traces[name].times
                        == b.payload.traces[name].times
                    )
                assert a.payload.detection_events == b.payload.detection_events

    def test_readonly_sharded_binding_never_writes(self, tmp_path):
        specs = self._specs(2)
        with RunStore(tmp_path / "shards", shards=2) as store:
            readonly = CacheBinding(store, "readonly")
            miss = execute_batch(specs, workers=2, cache=readonly)
            assert miss.cache_hits == 0
            assert len(store) == 0


class TestShardedCLI:
    def _populated(self, tmp_path, result, n=3, shards=2):
        path = tmp_path / "shards"
        with RunStore(path, shards=shards) as store:
            for i in range(n):
                store.put(_fp(i), result)
            expected = store.stats().as_dict()
        return path, expected

    @staticmethod
    def _without_db_bytes(stats):
        """db_bytes moves with WAL checkpoints; compare the rest."""
        stats = dict(stats, shards=[dict(s) for s in stats["shards"]])
        stats.pop("db_bytes")
        for shard in stats["shards"]:
            shard.pop("db_bytes")
        return stats

    def test_stats_json_matches_store(self, tmp_path, result):
        path, expected = self._populated(tmp_path, result)
        out = io.StringIO()
        code = main(
            ["cache", "stats", "--store", str(path), "--json"], out=out
        )
        assert code == 0
        stats = json.loads(out.getvalue())
        assert self._without_db_bytes(stats) == self._without_db_bytes(expected)
        assert stats["shard_count"] == 2
        assert len(stats["shards"]) == 2

    def test_stats_table_has_shard_rows(self, tmp_path, result):
        path, _ = self._populated(tmp_path, result)
        out = io.StringIO()
        assert main(["cache", "stats", "--store", str(path)], out=out) == 0
        assert "shard-0000.sqlite" in out.getvalue()

    def test_merge_to_single_file(self, tmp_path, result):
        path, _ = self._populated(tmp_path, result)
        dest = tmp_path / "flat.sqlite"
        out = io.StringIO()
        code = main(
            ["cache", "merge", str(path), "--store", str(dest)], out=out
        )
        assert code == 0
        assert "merged 3 runs" in out.getvalue()
        with RunStore(dest) as merged:
            assert len(merged) == 3

    def test_merge_to_new_sharded_store(self, tmp_path, result):
        path, _ = self._populated(tmp_path, result)
        dest = tmp_path / "reshard"
        out = io.StringIO()
        code = main(
            [
                "cache", "merge", str(path),
                "--store", str(dest), "--shards", "4",
            ],
            out=out,
        )
        assert code == 0
        with RunStore(dest) as merged:
            assert merged.shards == 4
            assert len(merged) == 3

    def test_merge_file_into_existing_directory(self, tmp_path, result):
        """Without --shards the destination directory is autodetected
        from its manifest, and the rows arrive byte-identical."""
        flat = tmp_path / "flat.sqlite"
        with RunStore(flat) as store:
            for i in range(4):
                store.put(_fp(i), result)
        path = tmp_path / "shards"
        RunStore(path, shards=3).prepare()
        out = io.StringIO()
        code = main(["cache", "merge", str(flat), "--store", str(path)], out=out)
        assert code == 0
        assert "merged 4 runs" in out.getvalue()
        with RunStore(flat) as source, RunStore(path) as merged:
            assert merged.shards == 3
            assert sorted(merged.iter_rows(), key=lambda r: r["fingerprint"]) == list(
                source.iter_rows()
            )

    def test_bare_directory_reported_not_raised(self, tmp_path):
        path = tmp_path / "empty"
        path.mkdir()
        err = io.StringIO()
        code = main(["cache", "stats", "--store", str(path)], out=io.StringIO(), err=err)
        assert code == 2
        assert MANIFEST_NAME in err.getvalue()

    def test_export_sharded(self, tmp_path, result):
        path, _ = self._populated(tmp_path, result)
        dest = tmp_path / "inv.json"
        out = io.StringIO()
        code = main(
            ["cache", "export", "--store", str(path), str(dest)], out=out
        )
        assert code == 0
        assert json.loads(dest.read_text())["shards"] == 2

    def test_run_custom_store_shards_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.simulation import save_scenario

        spec_path = tmp_path / "spec.json"
        save_scenario(FAST, spec_path)
        out = io.StringIO()
        code = main(
            ["run-custom", str(spec_path), "--store-shards", "2"], out=out
        )
        assert code == 0
        with RunStore(tmp_path / "runstore-shards") as store:
            assert store.shards == 2
            assert len(store) == 3  # baseline / attacked / defended
