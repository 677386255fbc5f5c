"""Content-addressed run store (repro.store) and cache-aware execution."""

import dataclasses
import hashlib
import io
import json
import pickle
import sqlite3
import struct
import zlib

import numpy as np
import pytest

import repro
from repro import fig2_scenario, telemetry
from repro.cli import main
from repro.exceptions import ConfigurationError, ReproError
from repro.simulation import (
    PlatoonScenario,
    RunSpec,
    execute_batch,
    result_to_dict,
    run_monte_carlo,
)
from repro.simulation.results import TRACE_NAMES
from repro.simulation.sweep import SweepCell, run_sweep
from repro.store import (
    CACHE_MODES,
    CacheBinding,
    RunStore,
    STORE_SCHEMA_VERSION,
    StoreCorruptionError,
    canonical_json,
    default_store_path,
    fingerprint_payload,
    merge_stores,
    resolve_cache,
    run_fingerprint,
    shard_index,
)
from repro.types import TimeSeries
from repro.vehicle import ConstantAccelerationProfile

#: Short horizon keeps the attack window empty — fast, clean runs.
FAST = fig2_scenario("dos", horizon=20.0)


def _spec(**overrides):
    return RunSpec(FAST.with_overrides(**overrides)) if overrides else RunSpec(FAST)


@pytest.fixture(scope="module")
def headline_runs():
    """Paper-horizon runs whose summaries differ in kind, keyed by
    fingerprints that route to three different files of a 3-file store."""
    paper = fig2_scenario("dos")
    runs = {
        "a" * 64: repro.run(paper, defended=False),
        "b" * 64: repro.run(paper, attack_enabled=False),
        "c" * 64: repro.run(paper),
    }
    collided, quiet, defended = (run.summary() for run in runs.values())
    assert collided.collided
    assert quiet.first_detection_time is None
    assert defended.first_detection_time == 182.0 and not defended.collided
    return runs


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_unwraps_numpy_scalars(self):
        text = canonical_json({"x": np.float64(1.5), "n": np.int64(3)})
        assert text == '{"n":3,"x":1.5}'

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_deterministic(self):
        payload = fingerprint_payload(_spec())
        assert canonical_json(payload) == canonical_json(payload)


class TestFingerprint:
    def test_is_hex_sha256(self):
        digest = run_fingerprint(_spec())
        assert isinstance(digest, str)
        assert len(digest) == 64
        int(digest, 16)  # all hex

    def test_deterministic_and_tag_excluded(self):
        a = RunSpec(FAST, tag="first")
        b = RunSpec(FAST, tag="second")
        assert run_fingerprint(a) == run_fingerprint(b)

    @pytest.mark.parametrize(
        "other",
        [
            RunSpec(FAST, attack_enabled=False),
            RunSpec(FAST, defended=False),
            RunSpec(FAST.with_overrides(sensor_seed=999)),
            RunSpec(FAST.with_overrides(horizon=21.0)),
            RunSpec(
                FAST.with_overrides(
                    leader_profile=ConstantAccelerationProfile(-0.2)
                )
            ),
        ],
    )
    def test_sensitive_to_simulation_inputs(self, other):
        assert run_fingerprint(RunSpec(FAST)) != run_fingerprint(other)

    def test_payload_carries_schema_salt(self):
        payload = fingerprint_payload(_spec())
        assert payload["schema"] == STORE_SCHEMA_VERSION

    def test_platoon_is_uncacheable(self):
        platoon = PlatoonScenario(
            leader_profile=FAST.leader_profile, n_followers=2, horizon=20.0
        )
        spec = RunSpec(platoon)
        assert fingerprint_payload(spec) is None
        assert run_fingerprint(spec) is None


class TestRunStore:
    """The store API on a one-file store.

    The subclasses below rerun every test on the directory layouts, so
    each geometry answers the same API contract.
    """

    #: ``None``: one ``.sqlite`` file; ``N``: a directory of N files.
    shards = None

    def open(self, path):
        """A store at ``path`` (a file stem) in this class's geometry."""
        if self.shards is None:
            return RunStore(path.with_suffix(".sqlite"))
        return RunStore(path, shards=self.shards)

    def test_put_get_bit_identical(self, tmp_path):
        result = repro.run(FAST, defended=True)
        with self.open(tmp_path / "s") as store:
            store.put("a" * 64, result, sensor_seed=FAST.sensor_seed)
            loaded = store.get("a" * 64)
        assert loaded.name == result.name
        assert loaded.attack_name == result.attack_name
        assert loaded.defended == result.defended
        assert loaded.collision_time == result.collision_time
        assert loaded.detection_events == result.detection_events
        assert set(loaded.traces) == set(result.traces)
        for name in result.traces:
            assert loaded.traces[name].times == result.traces[name].times
            assert loaded.traces[name].values == result.traces[name].values

    def test_miss_returns_none(self, tmp_path):
        with self.open(tmp_path / "s") as store:
            store.put("a" * 64, repro.run(FAST))
            assert store.get("b" * 64) is None

    def test_reads_do_not_create_file(self, tmp_path):
        with self.open(tmp_path / "nope" / "s") as store:
            assert store.get("a" * 64) is None
            assert store.summary("a" * 64) is None
            assert "a" * 64 not in store
            assert len(store) == 0
            assert store.fingerprints() == []
            assert store.stats().entries == 0
            assert store.evict() == 0
            assert store.clear() == 0
        assert not (tmp_path / "nope").exists()

    def test_summary_reads_the_stored_summary(self, tmp_path, headline_runs):
        """The summary column equals the summary of the decoded payload,
        in this geometry and after a merge into the other one."""
        dest = (
            RunStore(tmp_path / "merged.sqlite") if self.shards
            else RunStore(tmp_path / "merged", shards=3)
        )
        with self.open(tmp_path / "s") as store, dest:
            for key, result in headline_runs.items():
                store.put(key, result)
            assert merge_stores(store, dest) == len(headline_runs)
            for copy in (store, dest):
                for key, result in headline_runs.items():
                    expected = result.summary()
                    assert copy.summary(key) == expected
                    assert copy.get(key).summary() == expected

    def test_summary_counts_hits_and_misses_like_get(self, tmp_path):
        with self.open(tmp_path / "s") as store:
            store.put("a" * 64, repro.run(FAST))
            counters = {}
            for read in (store.get, store.summary):
                with telemetry.session() as tele:
                    assert read("b" * 64) is None
                    assert read("a" * 64) is not None
                counters[read.__name__] = tele.counters
        for name in ("get", "summary"):
            assert counters[name]["store.hits"] == 1
            assert counters[name]["store.misses"] == 1
        assert counters["get"]["store.hit_bytes"] > 0
        assert "store.hit_bytes" not in counters["summary"]  # no payload read

    def test_contains_len_fingerprints(self, tmp_path):
        result = repro.run(FAST)
        with self.open(tmp_path / "s") as store:
            store.put("b" * 64, result)
            store.put("a" * 64, result)
            store.put("c" * 64, result)
            assert "a" * 64 in store
            assert "d" * 64 not in store
            assert len(store) == 3
            assert store.fingerprints() == ["a" * 64, "b" * 64, "c" * 64]

    def test_stats_and_scenario_counts(self, tmp_path):
        result = repro.run(FAST)
        with self.open(tmp_path / "s") as store:
            store.put("a" * 64, result)
            store.put("b" * 64, result)
            stats = store.stats()
            assert stats.entries == 2
            assert stats.payload_bytes > 0
            assert stats.db_bytes > 0
            assert stats.shard_count == store.shards
            assert dict(stats.by_scenario) == {result.name: 2}
            assert store.scenario_counts() == {result.name: 2}
            rows = stats.as_rows()
            assert rows[0]["scope"] == "total"
            assert rows[0]["runs"] == 2

    def test_evict_and_clear(self, tmp_path):
        result = repro.run(FAST)
        with self.open(tmp_path / "s") as store:
            for key in ("a" * 64, "b" * 64, "c" * 64):
                store.put(key, result)
            assert store.evict(["a" * 64]) == 1
            assert store.evict(["a" * 64]) == 0  # already gone
            assert store.evict([]) == 0
            assert len(store) == 2
            assert store.clear() == 2
            assert len(store) == 0

    def test_double_put_writes_once_and_preserves_original(self, tmp_path):
        """Regression: ``put`` used INSERT OR REPLACE, so a concurrent
        second writer deleted-and-rewrote the row, churning WAL pages and
        resetting ``created_at``.  Rows are immutable now."""
        result = repro.run(FAST, defended=True)
        other = repro.run(FAST, defended=False)
        with self.open(tmp_path / "s") as store:
            assert store.put("a" * 64, result) is True
            (created,) = [row["created_at"] for row in store.iter_rows()]
            # Second put is a no-op, even with a different payload.
            assert store.put("a" * 64, other) is False
            assert len(store) == 1
            assert [row["created_at"] for row in store.iter_rows()] == [created]

            # Replay still serves the first write, bit-identical.
            loaded = store.get("a" * 64)
        assert loaded.defended == result.defended
        for name in result.traces:
            assert loaded.traces[name].values == result.traces[name].values

    def test_export_inventory(self, tmp_path):
        result = repro.run(FAST)
        with self.open(tmp_path / "s") as store:
            store.put("b" * 64, result)
            store.put(
                "a" * 64,
                result,
                spec_dict={"name": FAST.name},
                sensor_seed=7,
                horizon=20.0,
            )
            out = store.export(tmp_path / "inventory.json")
        data = json.loads(out.read_text())
        assert [e["fingerprint"] for e in data["entries"]] == ["a" * 64, "b" * 64]
        entry = data["entries"][0]
        assert entry["schema_version"] == STORE_SCHEMA_VERSION
        assert entry["sensor_seed"] == 7
        assert entry["spec"] == {"name": FAST.name}
        assert "min_gap_m" in entry["summary"] or entry["summary"]
        assert "payload" not in entry

    def test_default_store_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert default_store_path() == tmp_path / "cachedir" / "runstore.sqlite"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_path() == tmp_path / "xdg" / "repro" / "runstore.sqlite"


class TestRunStoreOneFileDirectory(TestRunStore):
    shards = 1


class TestRunStoreThreeFileDirectory(TestRunStore):
    # "a"*64, "b"*64 and "c"*64 route to three different files.
    shards = 3


def _damage(path, fingerprint, how):
    """Overwrite one stored row's payload (or codec) in file ``path``."""
    with sqlite3.connect(path) as conn:
        blob, codec = conn.execute(
            "SELECT payload, payload_codec FROM runs WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()
        payload, codec = {
            "truncated": (blob[: len(blob) // 2], codec),
            "garbage": (b"\x00 not a run payload", codec),
            "short_header": (b"\x01", codec),
            "bad_header_json": (struct.pack("<I", 5) + b"{nope", codec),
            "short_arrays": (blob[:-8], codec),
            "unknown_codec": (blob, "lz4-f64-v9"),
        }[how]
        conn.execute(
            "UPDATE runs SET payload = ?, payload_codec = ? WHERE fingerprint = ?",
            (payload, codec, fingerprint),
        )


DAMAGE = (
    "truncated", "garbage", "short_header", "bad_header_json",
    "short_arrays", "unknown_codec",
)


class TestCorruptRows:
    """A row whose payload cannot be decoded fails loudly, naming the
    run and the file, on every path that decodes it."""

    @staticmethod
    def _store(tmp_path, shards):
        if shards is None:
            return RunStore(tmp_path / "s.sqlite")
        return RunStore(tmp_path / "s", shards=shards)

    @staticmethod
    def _file(tmp_path, shards, fingerprint):
        """The database file that holds ``fingerprint``."""
        if shards is None:
            return tmp_path / "s.sqlite"
        return tmp_path / "s" / f"shard-{shard_index(fingerprint, shards):04d}.sqlite"

    @pytest.mark.parametrize("shards", [None, 3])
    @pytest.mark.parametrize("how", DAMAGE)
    def test_get_names_run_and_file(self, tmp_path, shards, how):
        key = run_fingerprint(RunSpec(FAST))
        with self._store(tmp_path, shards) as store:
            execute_batch([RunSpec(FAST)], cache=store)
            path = self._file(tmp_path, shards, key)
            _damage(path, key, how)
            with pytest.raises(StoreCorruptionError) as info:
                store.get(key)
            # Claim boundary: a summary-only read trusts the row.
            assert store.summary(key) == repro.run(FAST).summary()
        assert key in str(info.value)
        assert str(path) in str(info.value)
        assert isinstance(info.value, ReproError)

    @pytest.mark.parametrize("shards", [None, 3])
    def test_replays_fail_loudly(self, tmp_path, shards):
        spec = RunSpec(FAST)
        key = run_fingerprint(spec)
        with self._store(tmp_path, shards) as store:
            execute_batch([spec], cache=store)
            _damage(self._file(tmp_path, shards, key), key, "truncated")
            with pytest.raises(StoreCorruptionError, match=key):
                repro.run(FAST, cache=store)
            with pytest.raises(StoreCorruptionError, match=key):
                execute_batch([spec], cache=store)


def _database_files(store):
    return [store.path] if store.path.is_file() else sorted(store.path.glob("*.sqlite"))


def _damage_summaries(store, how):
    """Overwrite the ``summary_json`` of every row in every file of ``store``."""
    for path in _database_files(store):
        with sqlite3.connect(path) as conn:
            rows = conn.execute("SELECT fingerprint, summary_json FROM runs").fetchall()
            for fingerprint, text in rows:
                fields = json.loads(text)
                if how == "missing_key":
                    del fields["min_gap"]
                elif how == "extra_key":
                    fields["min_gap_m"] = fields["min_gap"]
                damaged = {"bad_json": "{nope", "not_an_object": "[1, 2]"}.get(
                    how, json.dumps(fields)
                )
                conn.execute(
                    "UPDATE runs SET summary_json = ? WHERE fingerprint = ?",
                    (damaged, fingerprint),
                )


SUMMARY_DAMAGE = ("bad_json", "not_an_object", "missing_key", "extra_key")


class TestCorruptSummaries:
    """A row whose summary is not exactly a ``ResultSummary`` fails
    loudly on every read of it, naming the run and the file."""

    @pytest.mark.parametrize("shards", [None, 3])
    @pytest.mark.parametrize("how", SUMMARY_DAMAGE)
    def test_summary_names_run_and_file(self, tmp_path, shards, how):
        key = run_fingerprint(RunSpec(FAST))
        with TestCorruptRows._store(tmp_path, shards) as store:
            execute_batch([RunSpec(FAST)], cache=store)
            _damage_summaries(store, how)
            with pytest.raises(StoreCorruptionError) as info:
                store.summary(key)
            with pytest.raises(StoreCorruptionError, match=key):
                store.export(tmp_path / "inventory.json")
            # A full replay reads the payload, not the summary.
            assert result_to_dict(store.get(key)) == result_to_dict(repro.run(FAST))
        assert key in str(info.value)
        assert str(TestCorruptRows._file(tmp_path, shards, key)) in str(info.value)
        assert isinstance(info.value, ReproError)

    @pytest.mark.parametrize("shards", [None, 3])
    @pytest.mark.parametrize("how", SUMMARY_DAMAGE)
    def test_summary_replays_fail_loudly(self, tmp_path, shards, how):
        sweep = dict(metric="min_gap", schedule="fixed", min_runs=2, max_runs=2)
        cells = [SweepCell("fast", FAST)]
        with TestCorruptRows._store(tmp_path, shards) as store:
            run_sweep(cells, cache=store, **sweep)
            run_monte_carlo(FAST, [FAST.sensor_seed], cache=store)
            _damage_summaries(store, how)
            with pytest.raises(StoreCorruptionError, match="stored summary of run"):
                run_sweep(cells, cache=store, **sweep)
            with pytest.raises(StoreCorruptionError, match=run_fingerprint(RunSpec(FAST))):
                run_monte_carlo(FAST, [FAST.sensor_seed], cache=store)


class TestOlderSchemaRows:
    """Rows of another ``STORE_SCHEMA_VERSION`` can never be served, so
    no read sees them; only eviction (``repro cache clear``) removes them."""

    @pytest.mark.parametrize("shards", [None, 3])
    def test_invisible_until_cleared(self, tmp_path, shards):
        with RunStore(tmp_path / "source.sqlite") as source:
            execute_batch([RunSpec(FAST)], cache=source)
            [row] = source.iter_rows()
        old = {**row, "fingerprint": "a" * 64, "schema_version": STORE_SCHEMA_VERSION - 1}
        spec = RunSpec(FAST, defended=False)
        key = spec._fingerprint
        with TestCorruptRows._store(tmp_path, shards) as store:
            assert store.put_row(old)
            execute_batch([spec], cache=store)
            assert store.get(old["fingerprint"]) is None
            assert store.summary(old["fingerprint"]) is None
            assert old["fingerprint"] not in store
            assert len(store) == 1
            assert store.fingerprints() == [key]
            assert [row["fingerprint"] for row in store.iter_rows()] == [key]
            stats = store.stats()
            assert stats.entries == 1
            assert dict(stats.by_scenario) == {store.summary(key).name: 1}
            inventory = json.loads(store.export(tmp_path / "inventory.json").read_text())
            assert [entry["fingerprint"] for entry in inventory["entries"]] == [key]
            with RunStore(tmp_path / "merged.sqlite") as merged:
                assert merge_stores(store, merged) == 1
                assert merged.fingerprints() == [key]
            out = io.StringIO()
            assert main(["cache", "stats", "--store", str(store.path), "--json"], out=out) == 0
            assert json.loads(out.getvalue())["entries"] == 1
            assert store.clear() == 2  # the old row is reclaimed too
            raw_rows = 0
            for path in _database_files(store):
                with sqlite3.connect(path) as conn:
                    raw_rows += conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            assert raw_rows == 0


def _payload(path, fingerprint):
    with sqlite3.connect(path) as conn:
        return conn.execute(
            "SELECT payload, payload_codec FROM runs WHERE fingerprint = ?",
            (fingerprint,),
        ).fetchone()


def _parent_format_blob(result):
    """``result`` in the retired ``zlib-f64-v1`` layout: a per-trace
    layout header and one time grid per trace, all zlib-compressed."""
    meta = result_to_dict(result)
    traces = meta.pop("traces")
    layout = [{"name": name, "n": len(data["times"])} for name, data in traces.items()]
    arrays = [
        np.asarray(data[key], dtype="<f8").tobytes()
        for data in traces.values()
        for key in ("times", "values")
    ]
    header = json.dumps({"meta": meta, "layout": layout}).encode("utf-8")
    return zlib.compress(struct.pack("<I", len(header)) + header + b"".join(arrays), 6)


class TestPayloadCodec:
    """A stored run is one header plus one ``float64`` block: the time
    grid, then one row per trace in ``TRACE_NAMES`` order."""

    @staticmethod
    def _stored(tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        result = execute_batch([RunSpec(FAST)], cache=store).records[0].payload
        return store, run_fingerprint(RunSpec(FAST)), result

    def test_layout_is_one_grid_plus_one_row_per_trace(self, tmp_path):
        store, key, result = self._stored(tmp_path)
        store.close()
        blob, codec = _payload(store.path, key)
        assert codec == "f64-grid-v2"
        (header_len,) = struct.unpack_from("<I", blob, 0)
        header = json.loads(blob[4 : 4 + header_len])
        steps = len(result.times)
        assert header["steps"] == steps
        assert "traces" not in header["meta"]
        block = np.frombuffer(blob, dtype="<f8", offset=4 + header_len)
        block = block.reshape(1 + len(TRACE_NAMES), steps)
        assert block[0].tolist() == result.series("true_distance").times
        for row, name in zip(block[1:], TRACE_NAMES):
            assert row.tolist() == result.traces[name].values

    def test_replay_gives_every_trace_its_own_time_list(self, tmp_path):
        store, key, result = self._stored(tmp_path)
        with store:
            replay = store.get(key)
        assert result_to_dict(replay) == result_to_dict(result)
        grids = [series.times for series in replay.traces.values()]
        assert len({id(times) for times in grids}) == len(TRACE_NAMES)

    @pytest.mark.parametrize(
        "how", ["one_row_short", "bytes_appended", "header_not_an_object"]
    )
    def test_payload_must_match_its_header(self, tmp_path, how):
        store, key, result = self._stored(tmp_path)
        with store:
            blob, _ = _payload(store.path, key)
            damaged = {
                "one_row_short": blob[: -8 * len(result.times)],
                "bytes_appended": blob + bytes(8),
                "header_not_an_object": struct.pack("<I", 2) + b"[]",
            }[how]
            with sqlite3.connect(store.path) as conn:
                conn.execute(
                    "UPDATE runs SET payload = ? WHERE fingerprint = ?", (damaged, key)
                )
            with pytest.raises(StoreCorruptionError, match=key):
                store.get(key)

    @pytest.mark.parametrize("how", ["missing", "extra", "reordered", "two_grids"])
    def test_put_refuses_a_result_off_the_trace_layout(self, tmp_path, how):
        result = repro.run(FAST)
        traces = dict(result.traces)
        if how == "missing":
            del traces["brake_pressure"]
        elif how == "extra":
            traces["lateral_offset"] = TimeSeries(
                "lateral_offset", list(result.times), [0.0] * len(result.times)
            )
        elif how == "reordered":
            traces = dict(reversed(list(traces.items())))
        else:
            series = traces["brake_pressure"]
            traces["brake_pressure"] = TimeSeries(
                series.name, [t + 0.5 for t in series.times], list(series.values)
            )
        foreign = dataclasses.replace(result, traces=traces)
        key = run_fingerprint(RunSpec(FAST))
        with RunStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValueError, match="TRACE_NAMES"):
                store.put(key, foreign)
            assert key not in store
            assert len(store) == 0

    def test_parent_format_row_is_never_served(self, tmp_path):
        spec = RunSpec(FAST)
        key = run_fingerprint(spec)
        result = repro.run(FAST)
        old_key = hashlib.sha256(
            canonical_json({**fingerprint_payload(spec), "schema": 2}).encode("utf-8")
        ).hexdigest()
        payload = _parent_format_blob(result)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put_row(
                {
                    "fingerprint": old_key,
                    "schema_version": 2,
                    "name": result.name,
                    "attack_enabled": 1,
                    "defended": 1,
                    "sensor_seed": FAST.sensor_seed,
                    "horizon": FAST.horizon,
                    "spec_json": "{}",
                    "summary_json": json.dumps(result.summary().as_dict()),
                    "payload": payload,
                    "payload_codec": "zlib-f64-v1",
                    "payload_bytes": len(payload),
                    "created_at": 0.0,
                }
            )
            batch = execute_batch([spec], cache=store)
            assert batch.cache_hits == 0
            assert key != old_key
            assert store.fingerprints() == [key]
            assert result_to_dict(store.get(key)) == result_to_dict(result)
            # An older schema's row is invisible to every read.
            assert store.get(old_key) is None
            assert store.summary(old_key) is None
            assert old_key not in store


class TestCacheBinding:
    def test_resolve_off(self):
        assert resolve_cache(None) is None
        assert resolve_cache("off") is None

    def test_resolve_store_instance(self, tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        binding = resolve_cache(store)
        assert binding.store is store
        assert binding.mode == "readwrite"
        assert not binding.owns_store

    def test_resolve_mode_strings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for mode in ("readonly", "readwrite"):
            binding = resolve_cache(mode)
            assert binding.mode == mode
            assert binding.owns_store
            binding.store.close()

    def test_resolve_passthrough_binding(self, tmp_path):
        binding = CacheBinding(RunStore(tmp_path / "s.sqlite"), "readonly")
        assert resolve_cache(binding) is binding
        assert not binding.writes

    @pytest.mark.parametrize("bad", ["readwritee", "on", 1, object()])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_cache(bad)

    def test_binding_rejects_bad_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CacheBinding(RunStore(tmp_path / "s.sqlite"), "off")

    def test_modes_constant(self):
        assert CACHE_MODES == ("off", "readonly", "readwrite")


class TestCacheAwareExecution:
    def test_cold_then_warm_batch(self, tmp_path):
        specs = [RunSpec(FAST, defended=True), RunSpec(FAST, defended=False)]
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = execute_batch(specs, cache=store)
            assert cold.cache_hits == 0
            assert all(not r.cached for r in cold.records)
            assert len(store) == 2

            warm = execute_batch(specs, cache=store)
            assert warm.cache_hits == 2
            assert all(r.cached for r in warm.records)

        plain = execute_batch(specs)
        for a, b in zip(warm.records, plain.records):
            for name in a.payload.traces:
                assert a.payload.traces[name].values == b.payload.traces[name].values
            assert a.payload.detection_events == b.payload.detection_events

    def test_readonly_serves_but_never_writes(self, tmp_path):
        specs = [RunSpec(FAST)]
        with RunStore(tmp_path / "s.sqlite") as store:
            readonly = CacheBinding(store, "readonly")
            miss = execute_batch(specs, cache=readonly)
            assert miss.cache_hits == 0
            assert len(store) == 0  # miss was not written back

            execute_batch(specs, cache=store)  # populate
            hit = execute_batch(specs, cache=readonly)
            assert hit.cache_hits == 1

    def test_spec_hashed_once_for_lookup_and_write(self, tmp_path, monkeypatch):
        import repro.store.fingerprint as fingerprint_module

        calls = []

        def counting(spec):
            calls.append(spec)
            return run_fingerprint(spec)

        monkeypatch.setattr(fingerprint_module, "run_fingerprint", counting)
        spec = RunSpec(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            execute_batch([spec], cache=store)
            assert len(store) == 1
        assert calls == [spec]
        # The key travels with a pickled spec (what a pool worker gets).
        assert pickle.loads(pickle.dumps(spec))._fingerprint == run_fingerprint(spec)
        assert calls == [spec]

    def test_postprocess_applied_to_cached_runs(self, tmp_path):
        specs = [RunSpec(FAST, tag="t")]
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = execute_batch(specs, cache=store, postprocess=_tag_and_gap)
            warm = execute_batch(specs, cache=store, postprocess=_tag_and_gap)
        assert warm.cache_hits == 1
        assert cold.payloads() == warm.payloads()
        assert warm.payloads()[0][0] == "t"

    def test_monte_carlo_warm_equals_cold_equals_off(self, tmp_path):
        seeds = [0, 1, 2]
        off = run_monte_carlo(FAST, seeds)
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = run_monte_carlo(FAST, seeds, cache=store)
            warm = run_monte_carlo(FAST, seeds, cache=store)
            assert len(store) == len(seeds)
        assert cold.outcomes == off.outcomes
        assert warm.outcomes == off.outcomes

    def test_facade_run_single_cached(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            off = repro.run(FAST, mode="single")
            cold = repro.run(FAST, mode="single", cache=store)
            warm = repro.run(FAST, mode="single", cache=store)
            assert len(store) == 1
        for result in (cold, warm):
            assert result.detection_events == off.detection_events
            for name in off.traces:
                assert result.traces[name].values == off.traces[name].values

    def test_facade_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            repro.run(FAST, mode="single", cache="sometimes")

    def test_figure_triple_cached(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            off = repro.run(FAST, mode="figure")
            repro.run(FAST, cache=store, mode="figure")
            warm = repro.run(FAST, cache=store, mode="figure")
            assert len(store) == 3
        assert warm.defended.detection_events == off.defended.detection_events
        assert (
            warm.attacked.traces["measured_distance"].values
            == off.attacked.traces["measured_distance"].values
        )


def _tag_and_gap(spec, result):
    """Module-level reducer (must be picklable for workers)."""
    return (spec.tag, round(result.min_gap(), 6))


class TestCacheCLI:
    def _populated(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        with RunStore(store_path) as store:
            store.put("a" * 64, repro.run(FAST))
        return store_path

    def test_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = io.StringIO()
        assert main(["cache", "path"], out=out) == 0
        assert str(tmp_path / "runstore.sqlite") in out.getvalue()

    def test_stats(self, tmp_path):
        store_path = self._populated(tmp_path)
        out = io.StringIO()
        assert main(["cache", "stats", "--store", str(store_path)], out=out) == 0
        text = out.getvalue()
        assert "run store at" in text
        assert "total" in text

    def test_clear(self, tmp_path):
        store_path = self._populated(tmp_path)
        out = io.StringIO()
        assert main(["cache", "clear", "--store", str(store_path)], out=out) == 0
        assert "evicted 1 cached runs" in out.getvalue()
        with RunStore(store_path) as store:
            assert len(store) == 0

    def test_export(self, tmp_path):
        store_path = self._populated(tmp_path)
        dest = tmp_path / "inv.json"
        out = io.StringIO()
        code = main(
            ["cache", "export", "--store", str(store_path), str(dest)], out=out
        )
        assert code == 0
        assert json.loads(dest.read_text())["entries"][0]["fingerprint"] == "a" * 64

    def test_run_with_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec_path = tmp_path / "spec.json"
        from repro.simulation import save_scenario

        save_scenario(FAST, spec_path)
        out = io.StringIO()
        assert main(["run-custom", str(spec_path), "--cache"], out=out) == 0
        with RunStore() as store:
            assert len(store) == 3  # baseline / attacked / defended

    def test_cache_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2a", "--cache", "--no-cache"], out=io.StringIO())
