"""Parallel batch-execution engine (repro.simulation.batch)."""

import pytest

import repro
from repro import fig2_scenario
from repro.exceptions import ConfigurationError, SimulationError
from repro.simulation import (
    BatchResult,
    PlatoonScenario,
    RunSpec,
    derive_seeds,
    execute_batch,
    run_many,
    run_monte_carlo,
)
from repro.simulation.batch import _default_chunksize
from repro.vehicle import ConstantAccelerationProfile

#: Short horizon keeps the attack window empty — fast, clean runs.
FAST = fig2_scenario("dos", horizon=20.0)


def _min_gap(spec, result):
    """Worker-side reducer used by the postprocess tests."""
    return (spec.tag, round(result.min_gap(), 6))


def _explode(spec, result):
    raise RuntimeError("boom")


class TestExecuteBatch:
    def test_empty_batch(self):
        batch = execute_batch([])
        assert batch.records == ()
        assert not batch.parallel
        assert batch.payloads() == []

    def test_serial_records(self):
        specs = [
            RunSpec(FAST, attack_enabled=False, defended=False, tag="a"),
            RunSpec(FAST, attack_enabled=False, defended=True, tag="b"),
        ]
        batch = execute_batch(specs, workers=1)
        assert isinstance(batch, BatchResult)
        assert not batch.parallel and batch.workers == 1
        assert [r.tag for r in batch.records] == ["a", "b"]
        assert [r.index for r in batch.records] == [0, 1]
        assert all(r.ok and r.elapsed >= 0.0 for r in batch.records)

    def test_parallel_matches_serial(self):
        specs = [
            RunSpec(FAST.with_overrides(sensor_seed=seed), tag=str(seed))
            for seed in range(4)
        ]
        serial = execute_batch(specs, workers=1, postprocess=_min_gap)
        parallel = execute_batch(specs, workers=4, postprocess=_min_gap)
        assert serial.payloads() == parallel.payloads()

    def test_platoon_specs_dispatch(self):
        scenario = PlatoonScenario(
            leader_profile=ConstantAccelerationProfile(-0.05),
            n_followers=2,
            horizon=20.0,
        )
        (result,) = run_many([RunSpec(scenario, attack_enabled=False)])
        assert result.n_followers == 2

    @pytest.mark.parametrize("workers", [True, False])
    def test_workers_must_not_be_boolean(self, workers):
        with pytest.raises(ConfigurationError, match="workers must be an integer"):
            execute_batch([RunSpec(FAST)], workers=workers)

    def test_workers_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="workers must be"):
            execute_batch([RunSpec(FAST)], workers=0)

    def test_error_captured_per_record(self):
        batch = execute_batch(
            [RunSpec(FAST, tag="bad")], workers=1, postprocess=_explode
        )
        (record,) = batch.records
        assert not record.ok
        assert record.payload is None
        assert "RuntimeError: boom" in record.error

    def test_raise_on_error(self):
        batch = execute_batch([RunSpec(FAST, tag="bad")], postprocess=_explode)
        with pytest.raises(SimulationError, match="bad"):
            batch.raise_on_error()
        with pytest.raises(SimulationError):
            run_many([RunSpec(FAST)], postprocess=_explode)

    def test_pool_failure_degrades_to_serial(self, monkeypatch):
        import concurrent.futures

        class BrokenPool:
            def __init__(self, *args, **kwargs):
                raise OSError("no pool in this sandbox")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", BrokenPool
        )
        # backend="scalar" pinned: under REPRO_BACKEND=auto these
        # identical specs would vectorize and never reach the pool.
        specs = [RunSpec(FAST, tag=str(i)) for i in range(2)]
        with pytest.warns(RuntimeWarning, match="re-running the 2-spec batch"):
            batch = execute_batch(
                specs, workers=4, postprocess=_min_gap, backend="scalar"
            )
        assert not batch.parallel and batch.workers == 1
        assert batch.degraded_reason is not None
        assert "OSError" in batch.degraded_reason
        assert "no pool in this sandbox" in batch.degraded_reason
        assert batch.payloads() == execute_batch(
            specs, workers=1, postprocess=_min_gap
        ).payloads()

    def test_healthy_batch_has_no_degraded_reason(self):
        batch = execute_batch([RunSpec(FAST)], workers=1)
        assert batch.degraded_reason is None

    def test_non_infra_pool_error_propagates(self, monkeypatch):
        """Regression: only pool-infrastructure failures may degrade.

        A programming error escaping the pool used to be swallowed by the
        bare ``except Exception`` and silently retried serially.
        """
        import concurrent.futures

        class SabotagedPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, *args, **kwargs):
                raise ValueError("logic bug, not an infra failure")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", SabotagedPool
        )
        specs = [RunSpec(FAST, tag=str(i)) for i in range(2)]
        with pytest.raises(ValueError, match="logic bug"):
            execute_batch(specs, workers=4, backend="scalar")

    def test_default_chunksize(self):
        assert _default_chunksize(3, 4) == 1
        assert _default_chunksize(64, 4) == 4


class TestMonteCarloParallel:
    def test_workers4_bitwise_identical_to_serial(self):
        """The issue's determinism contract: same SeedOutcome tuples."""
        scenario = fig2_scenario("dos")
        serial = run_monte_carlo(scenario, range(6), workers=1)
        parallel = run_monte_carlo(scenario, range(6), workers=4)
        assert serial.outcomes == parallel.outcomes
        assert serial.attacked == parallel.attacked

    def test_figure_triple_parallel_identical(self):
        scenario = fig2_scenario("delay")
        serial = repro.run(scenario, mode="figure", workers=1)
        parallel = repro.run(scenario, mode="figure", workers=3)
        assert serial.detection_time() == parallel.detection_time()
        assert serial.defended.min_gap() == parallel.defended.min_gap()
        assert serial.attacked.collided == parallel.attacked.collided


class TestDeriveSeeds:
    def test_deterministic(self):
        assert derive_seeds(2017, 8) == derive_seeds(2017, 8)

    def test_distinct_and_sized(self):
        seeds = derive_seeds(0, 32)
        assert len(seeds) == 32
        assert len(set(seeds)) == 32
        assert all(isinstance(seed, int) and seed >= 0 for seed in seeds)

    def test_prefix_stability(self):
        assert derive_seeds(7, 4) == derive_seeds(7, 8)[:4]

    def test_zero_count_is_empty(self):
        assert derive_seeds(1, 0) == ()

    def test_rejects_negative_count(self):
        with pytest.raises(ConfigurationError, match="n must be >= 0"):
            derive_seeds(1, -1)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(ConfigurationError, match="base_seed must be >= 0"):
            derive_seeds(-3, 4)

    @pytest.mark.parametrize("bad", [2.5, "2017", None, 3.0])
    def test_rejects_non_integer_base_seed(self, bad):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            derive_seeds(bad, 4)

    @pytest.mark.parametrize("bad", [True, False])
    def test_rejects_boolean_arguments(self, bad):
        with pytest.raises(ConfigurationError, match="base_seed must be an integer"):
            derive_seeds(bad, 4)
        with pytest.raises(ConfigurationError, match="n must be an integer"):
            derive_seeds(2017, bad)

    @pytest.mark.parametrize("bad", [1.5, "8", 4.0])
    def test_rejects_non_integer_count(self, bad):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            derive_seeds(2017, bad)
