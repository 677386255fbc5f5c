"""Content-addressed run store (repro.store) and cache-aware execution."""

import io
import json

import numpy as np
import pytest

import repro
from repro import fig2_scenario
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation import (
    PlatoonScenario,
    RunSpec,
    execute_batch,
    run_monte_carlo,
)
from repro.store import (
    CACHE_MODES,
    CacheBinding,
    RunStore,
    STORE_SCHEMA_VERSION,
    canonical_json,
    default_store_path,
    fingerprint_payload,
    resolve_cache,
    run_fingerprint,
)
from repro.vehicle import ConstantAccelerationProfile

#: Short horizon keeps the attack window empty — fast, clean runs.
FAST = fig2_scenario("dos", horizon=20.0)


def _spec(**overrides):
    return RunSpec(FAST.with_overrides(**overrides)) if overrides else RunSpec(FAST)


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
            assert "a" * 64 not in store
            assert len(store) == 0
            assert store.fingerprints() == []
            assert store.stats().entries == 0
            assert store.evict() == 0
            assert store.clear() == 0
        assert not (tmp_path / "nope").exists()

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
