"""Wiring of the defense strategies through spec, facade, CLI, backends.

The strategy knob travels a long path — DefenseConfig -> declarative
spec (version 2) -> store fingerprint -> facade run() -> CLI -> the
vectorized-backend blocker -> the defense-comparison table.  These
tests pin each hop, including determinism of the comparison across
backend selection and cache replay.
"""

import io
from dataclasses import replace

import pytest

import repro
from repro import telemetry
from repro.analysis.defense_comparison import compare_defenses, defense_variants
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation.batch import RunSpec, execute_batch
from repro.simulation.io import result_from_dict, result_to_dict
from repro.simulation.scenario import DEFENSE_STRATEGIES
from repro.simulation.spec import (
    READABLE_SPEC_VERSIONS,
    SPEC_VERSION,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.simulation.vectorized import vectorization_blocker
from repro.store import RunStore

#: Short-horizon scenario: no attack window, fast runs.
FAST = repro.fig2_scenario("dos", horizon=30.0)


def strategy_scenario(strategy, scenario=FAST):
    return scenario.with_overrides(
        defense=replace(scenario.defense, strategy=strategy)
    )


class TestSpecRoundTrip:
    def test_version_bumped_and_stamped(self):
        assert SPEC_VERSION == 2
        assert scenario_to_dict(FAST)["spec_version"] == 2

    def test_defense_fields_round_trip(self):
        scenario = FAST.with_overrides(
            defense=replace(
                FAST.defense,
                strategy="combined",
                secure_window=6,
                secure_sparsity=0,
                secure_residual_threshold=0.5,
                filter_headway=1.0,
                filter_minimum_gap=4.0,
                filter_gamma=0.25,
                filter_leader_accel_bound=3.0,
            )
        )
        restored = scenario_from_dict(scenario_to_dict(scenario))
        # Profile objects don't define __eq__; dict form is canonical.
        assert scenario_to_dict(restored) == scenario_to_dict(scenario)
        assert restored.defense == scenario.defense
        assert restored.defense.strategy == "combined"
        assert restored.defense.filter_gamma == 0.25

    def test_version_1_specs_still_read(self):
        spec = scenario_to_dict(FAST)
        spec["spec_version"] = 1
        # A v1 writer never emitted the strategy knobs.
        for key in list(spec["defense"]):
            if key.startswith(("secure_", "filter_")) or key == "strategy":
                del spec["defense"][key]
        restored = scenario_from_dict(spec)
        assert restored.defense.strategy == "rls"

    def test_unknown_version_rejected(self):
        spec = scenario_to_dict(FAST)
        spec["spec_version"] = max(READABLE_SPEC_VERSIONS) + 1
        with pytest.raises(ConfigurationError, match="spec_version"):
            scenario_from_dict(spec)

    def test_strategy_changes_fingerprint(self):
        # The strategy must fold into the store fingerprint or cached
        # rls runs would replay as secure-reconstruction runs.
        from repro.store.fingerprint import run_fingerprint

        plain = run_fingerprint(RunSpec(FAST, defended=True))
        secure = run_fingerprint(
            RunSpec(strategy_scenario("secure_reconstruction"), defended=True)
        )
        assert plain is not None and secure is not None
        assert plain != secure


class TestFacadeKnob:
    def test_defense_override_applies(self):
        result = repro.run(FAST, defense="safety_filter")
        baseline = repro.run(FAST)
        # Attack-free short horizon: the filter is transparent, so the
        # runs agree — the knob's effect is visible via the spec.
        assert result.min_gap() == pytest.approx(baseline.min_gap())

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ConfigurationError, match="defense must be one of"):
            repro.run(FAST, defense="firewall")

    def test_platoon_rejected(self):
        from repro.simulation.platoon import PlatoonScenario
        from repro.vehicle import ConstantAccelerationProfile

        scenario = PlatoonScenario(
            leader_profile=ConstantAccelerationProfile(-0.05),
            n_followers=2,
            horizon=10.0,
        )
        with pytest.raises(ConfigurationError, match="platoon"):
            repro.run(scenario, defense="safety_filter")

    def test_all_strategies_run(self):
        for strategy in DEFENSE_STRATEGIES:
            result = repro.run(FAST, defense=strategy)
            assert not result.collided, strategy


class TestCLI:
    def run_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        code = main(argv, out=out, err=err)
        return code, out.getvalue(), err.getvalue()

    def test_run_accepts_defense_flag(self):
        code, text, _ = self.run_cli(
            ["run", "fig2a", "--defense", "safety_filter", "--no-plot"]
        )
        assert code == 0
        assert "fig2a" in text

    def test_run_rejects_unknown_defense(self):
        with pytest.raises(SystemExit):
            self.run_cli(["run", "fig2a", "--defense", "firewall"])

    def test_serve_accepts_max_jobs_flag(self):
        # Parse-level check only (the service tests exercise runtime
        # behavior): an invalid value is rejected by argparse.
        with pytest.raises(SystemExit):
            self.run_cli(["serve", "--max-jobs", "0"])


class TestVectorizedBlocker:
    def test_stateful_strategies_block(self):
        for strategy in ("secure_reconstruction", "combined"):
            spec = RunSpec(strategy_scenario(strategy), defended=True)
            reason = vectorization_blocker(spec)
            assert reason is not None and strategy in reason

    def test_stateless_strategies_not_blocked(self):
        # The CBF clamp is a pure per-step function of the lock-step
        # state, so "safety_filter" vectorizes like "rls".
        for strategy in ("rls", "safety_filter"):
            spec = RunSpec(strategy_scenario(strategy), defended=True)
            reason = vectorization_blocker(spec)
            assert reason is None or "strategy" not in reason

    def test_undefended_never_blocked_by_strategy(self):
        spec = RunSpec(
            strategy_scenario("secure_reconstruction"), defended=False
        )
        reason = vectorization_blocker(spec)
        assert reason is None or "strategy" not in reason


class TestDefenseStats:
    """Subset-search counters flow estimator -> result -> io -> store."""

    def test_populated_for_secure_reconstruction(self):
        result = repro.run(strategy_scenario("secure_reconstruction"))
        stats = result.defense_stats
        assert stats is not None
        assert stats["windows_solved"] > 0
        assert stats["subsets_searched"] > stats["subsets_pruned"] >= 0
        assert stats["geometry_hits"] > 0  # incremental mode by default

    def test_none_without_reconstruction(self):
        assert repro.run(FAST).defense_stats is None
        assert (
            repro.run(strategy_scenario("safety_filter")).defense_stats is None
        )

    def test_round_trips_through_io(self):
        result = repro.run(strategy_scenario("combined"))
        restored = result_from_dict(result_to_dict(result))
        assert restored.defense_stats == result.defense_stats

    def test_round_trips_through_store(self, tmp_path):
        spec = RunSpec(strategy_scenario("secure_reconstruction"), defended=True)
        with RunStore(tmp_path / "runs.sqlite") as store:
            cold = execute_batch([spec], cache=store)
            warm = execute_batch([spec], cache=store)
        assert warm.records[0].cached
        assert cold.records[0].payload.defense_stats is not None
        assert (
            warm.records[0].payload.defense_stats
            == cold.records[0].payload.defense_stats
        )

    def test_comparison_rows_surface_subset_counts(self):
        rows = {row["defense"]: row for row in compare_defenses(FAST)}
        for label in ("secure_reconstruction", "combined"):
            assert rows[label]["subsets_searched"] > 0
            assert rows[label]["subsets_pruned"] >= 0
        for label in ("undefended", "rls", "safety_filter"):
            assert rows[label]["subsets_searched"] is None
            assert rows[label]["subsets_pruned"] is None


class TestComparisonDeterminism:
    def test_variant_labels_stable(self):
        labels = [label for label, _, _ in defense_variants(FAST)]
        assert labels == [
            "undefended",
            "rls",
            "dead_reckoning",
            "secure_reconstruction",
            "safety_filter",
            "safety_filter (detection off)",
            "combined",
        ]

    def test_backend_selection_invariant(self):
        # backend="auto" may vectorize the eligible variants (undefended,
        # rls); the table must not change.
        scalar = compare_defenses(FAST, backend="scalar")
        auto = compare_defenses(FAST, backend="auto")
        assert scalar == auto

    def test_vectorized_demand_downgraded(self):
        # A hard vectorized demand could never run the stateful
        # variants; compare_defenses downgrades it to auto.
        rows = compare_defenses(FAST, backend="vectorized")
        assert rows == compare_defenses(FAST, backend="auto")

    def test_variants_fan_out_as_one_batch(self, monkeypatch):
        from repro.simulation import batch as batch_module

        serial = compare_defenses(FAST, workers=1)
        batches = []
        execute = batch_module.execute_batch

        def spy(*args, **kwargs):
            batches.append(execute(*args, **kwargs))
            return batches[-1]

        monkeypatch.setattr(batch_module, "execute_batch", spy)
        with telemetry.session() as tele:
            pooled = compare_defenses(FAST, workers=2)
        assert pooled == serial
        assert tele.counters["batch.batches"] == 1
        assert tele.counters["batch.runs"] == len(defense_variants(FAST))
        (batch,) = batches
        assert batch.parallel and batch.workers == 2

    def test_cache_replay_identical(self, tmp_path):
        store = RunStore(tmp_path / "runs.sqlite")
        try:
            cold = compare_defenses(FAST, cache=store)
            warm = compare_defenses(FAST, cache=store)
            assert cold == warm == compare_defenses(FAST, cache="off")
        finally:
            store.close()
