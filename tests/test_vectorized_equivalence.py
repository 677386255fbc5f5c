"""Scalar vs vectorized engine equivalence (repro.simulation.vectorized).

The vectorized engine's contract is *bit-identical* reproduction of the
scalar engine — ``==`` on every trace sample, never ``allclose``.  These
tests enforce it property-style: a seeded RNG draws random scenario
configurations (attack kind, horizon, noise, dropout, estimator,
defense tuning, seeds) and every drawn group must round-trip through
``backend="vectorized"`` with payloads equal to ``backend="scalar"``.

Also covered: the ``backend="auto"`` grouping/degradation policy, the
strict-mode blockers, the ``workers=`` / ``backend=`` knob validation
shared across layers, the :envvar:`REPRO_BACKEND` default, and cache
interaction (``RunRecord.backend_used`` provenance).
"""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import fig2_scenario
from repro.attacks import (
    AttackWindow,
    DelayInjectionAttack,
    DoSJammingAttack,
    PhantomTargetAttack,
)
from repro.exceptions import ConfigurationError
from repro.radar.link_budget import JammerParameters
from repro.simulation import (
    PlatoonScenario,
    RunSpec,
    execute_batch,
    run_many,
    vectorization_blocker,
)
from repro.simulation.io import result_to_dict
from repro.simulation.knobs import BACKEND_ENV_VAR
from repro.store import RunStore
from repro.vehicle import ConstantAccelerationProfile

FAST = fig2_scenario("dos", horizon=20.0)

#: Attack window inside the short property-test horizons (the paper's
#: k = 182 s window would never fire in a 20-40 s run).
_WINDOW = AttackWindow(8.0, 16.0)


def _attack_for(kind, rng):
    if kind == "none":
        return None
    if kind == "dos":
        return DoSJammingAttack(_WINDOW, jammer=JammerParameters())
    if kind == "delay":
        return DelayInjectionAttack(
            _WINDOW,
            distance_offset=float(round(rng.uniform(3.0, 8.0), 3)),
            velocity_offset=float(round(rng.uniform(-1.0, 1.0), 3)),
            ramp_time=float(rng.choice([0.0, 4.0])),
        )
    return PhantomTargetAttack(
        _WINDOW,
        phantom_distance=float(round(rng.uniform(8.0, 15.0), 3)),
        phantom_velocity=float(round(rng.uniform(-6.0, -2.0), 3)),
    )


def _random_group(rng):
    """One random homogeneous spec group (a seed sweep, 3 runs)."""
    kind = str(rng.choice(["none", "dos", "delay", "phantom"]))
    defended = bool(rng.choice([True, False]))
    scenario = fig2_scenario("dos").with_overrides(
        name=f"prop-{kind}",
        horizon=float(rng.choice([20.0, 30.0, 40.0])),
        attack=_attack_for(kind, rng),
        dropout_rate=float(rng.choice([0.0, 0.0, 0.1])),
        distance_noise_std=float(round(rng.uniform(0.05, 0.4), 3)),
        velocity_noise_std=float(round(rng.uniform(0.05, 0.3), 3)),
        defense=fig2_scenario("dos").defense.__class__(
            forgetting=float(round(rng.uniform(0.9, 0.99), 3)),
            margin_gain=float(round(rng.uniform(1.0, 3.0), 3)),
            estimator_kind=str(rng.choice(["dead_reckoning", "per_channel"])),
        ),
    )
    seeds = rng.integers(0, 2**31, size=3)
    return [
        RunSpec(
            scenario.with_overrides(sensor_seed=int(seed)),
            attack_enabled=kind != "none",
            defended=defended,
            tag=str(i),
        )
        for i, seed in enumerate(seeds)
    ]


#: Drawn once at import — the parametrize ids stay stable run to run.
_RNG = np.random.default_rng(20170604)
RANDOM_GROUPS = [_random_group(_RNG) for _ in range(10)]


def _rollback_gate_group():
    """Dead-reckoning rollback whose replay straddles the 3 m gate floor.

    The snapshot at the clean k = 10 challenge is restored at k = 20;
    the quarantined 3.2 m spoofs from k = 14 on reach the replay with
    innovations on both sides of ``max(3, 5·σ·max(1, span))``'s floor
    (about 2.9 to 3.4 m with these seeds), so a gate off by half a
    metre re-accepts different samples than the scalar engine.
    """
    scenario = fig2_scenario("dos").with_overrides(
        name="rollback-gate",
        horizon=30.0,
        challenge_times=(10.0, 20.0, 26.0),
        distance_noise_std=0.1,
        attack=DelayInjectionAttack(
            AttackWindow(14.0, 30.0),
            distance_offset=3.2,
            velocity_offset=0.0,
            ramp_time=0.0,
        ),
    )
    assert scenario.defense.estimator_kind == "dead_reckoning"
    assert scenario.defense.rollback_on_detection
    return [
        RunSpec(scenario.with_overrides(sensor_seed=seed), defended=True, tag=str(seed))
        for seed in range(4)
    ]


EQUIVALENCE_GROUPS = RANDOM_GROUPS + [_rollback_gate_group()]


def _payload_dicts(batch):
    batch.raise_on_error()
    return [result_to_dict(record.payload) for record in batch.records]


class TestBitIdenticalEquivalence:
    @pytest.mark.parametrize(
        "group",
        EQUIVALENCE_GROUPS,
        ids=[f"{g[0].scenario.name}-{i}" for i, g in enumerate(EQUIVALENCE_GROUPS)],
    )
    def test_random_groups_match_scalar_exactly(self, group):
        assert vectorization_blocker(group[0]) is None
        scalar = execute_batch(group, backend="scalar")
        vector = execute_batch(group, backend="vectorized")
        assert _payload_dicts(scalar) == _payload_dicts(vector)
        assert all(r.backend_used == "scalar" for r in scalar.records)
        assert all(r.backend_used == "vectorized" for r in vector.records)

    def test_signal_fidelity_group_matches(self):
        # Full synthesis + root-MUSIC chain; short horizon keeps it fast.
        scenario = fig2_scenario("dos", horizon=10.0).with_overrides(
            fidelity="signal", attack=DoSJammingAttack(AttackWindow(4.0, 8.0))
        )
        group = [
            RunSpec(scenario.with_overrides(sensor_seed=seed), defended=True)
            for seed in (1, 2)
        ]
        scalar = execute_batch(group, backend="scalar")
        vector = execute_batch(group, backend="vectorized")
        assert _payload_dicts(scalar) == _payload_dicts(vector)

    def test_paper_panel_sweep_matches(self):
        # The canonical vectorizable batch: a fig2a defended seed sweep.
        summary_scalar = repro.run(
            fig2_scenario("dos"), mode="monte_carlo", seeds=4, backend="scalar"
        )
        summary_vector = repro.run(
            fig2_scenario("dos"), mode="monte_carlo", seeds=4, backend="vectorized"
        )
        assert summary_scalar.outcomes == summary_vector.outcomes

    def test_facade_single_run_matches(self):
        scalar = repro.run(FAST, backend="scalar")
        vector = repro.run(FAST, backend="vectorized")
        assert result_to_dict(scalar) == result_to_dict(vector)


class TestSafetyFilterVectorizes:
    """The CBF clamp is a stateless per-step function of the lock-step
    state, so ``strategy="safety_filter"`` vectorizes (PR 10 re-audit of
    the blocker) — bit-identically, like every other vectorized path."""

    @staticmethod
    def _group(scenario):
        return [
            RunSpec(
                scenario.with_overrides(sensor_seed=s), defended=True, tag=str(s)
            )
            for s in (1, 2)
        ]

    @staticmethod
    def _filtered(scenario, **overrides):
        return scenario.with_overrides(
            defense=replace(scenario.defense, strategy="safety_filter"),
            **overrides,
        )

    @pytest.mark.parametrize("attack", ["dos", "delay"])
    def test_full_panel_matches_scalar(self, attack):
        # Full-horizon fig2 panels: the filter actively clamps through
        # the attack window, certified track and all.
        group = self._group(self._filtered(fig2_scenario(attack)))
        assert vectorization_blocker(group[0]) is None
        scalar = execute_batch(group, backend="scalar")
        vector = execute_batch(group, backend="vectorized")
        assert _payload_dicts(scalar) == _payload_dicts(vector)
        assert all(r.backend_used == "vectorized" for r in vector.records)

    def test_detection_off_matches_scalar(self):
        # Challenge schedule emptied: detection never fires and the
        # clamp alone carries the run — the actuation-layer guarantee,
        # now also lock-step.
        group = self._group(
            self._filtered(fig2_scenario("dos"), challenge_times=())
        )
        scalar = execute_batch(group, backend="scalar")
        vector = execute_batch(group, backend="vectorized")
        assert _payload_dicts(scalar) == _payload_dicts(vector)
        # Equivalence covers the whole trace either way; the defense
        # claim itself (collision-free DoS at the paper configuration)
        # is asserted by bench_defense_comparison.
        for record in vector.records:
            assert not record.payload.detection_times

    def test_stateful_strategies_still_blocked(self):
        for strategy in ("secure_reconstruction", "combined"):
            scenario = FAST.with_overrides(
                defense=replace(FAST.defense, strategy=strategy)
            )
            spec = RunSpec(scenario, defended=True)
            assert strategy in (vectorization_blocker(spec) or "")


class TestAutoBackend:
    def test_homogeneous_group_vectorizes(self):
        specs = [
            RunSpec(FAST.with_overrides(sensor_seed=s), tag=str(s))
            for s in range(3)
        ]
        batch = execute_batch(specs, backend="auto")
        assert [r.backend_used for r in batch.records] == ["vectorized"] * 3
        assert _payload_dicts(batch) == _payload_dicts(
            execute_batch(specs, backend="scalar")
        )

    def test_heterogeneous_batch_degrades_to_scalar(self):
        # Pairwise different scenarios — every group is a singleton, so
        # nothing vectorizes and nothing raises.
        specs = [
            RunSpec(FAST.with_overrides(horizon=h), tag=str(h))
            for h in (20.0, 21.0, 22.0)
        ]
        batch = execute_batch(specs, backend="auto")
        batch.raise_on_error()
        assert [r.backend_used for r in batch.records] == ["scalar"] * 3

    def test_mixed_batch_splits_by_group(self):
        blocked = RunSpec(FAST.with_overrides(horizon=25.0), tag="lone")
        triple = [
            RunSpec(FAST.with_overrides(sensor_seed=s), tag=f"t{s}")
            for s in range(3)
        ]
        batch = execute_batch(
            [triple[0], blocked, triple[1], triple[2]], backend="auto"
        )
        batch.raise_on_error()
        assert [r.backend_used for r in batch.records] == [
            "vectorized",
            "scalar",
            "vectorized",
            "vectorized",
        ]
        # Record order still matches spec order.
        assert [r.tag for r in batch.records] == ["t0", "lone", "t1", "t2"]

    def test_pair_stays_scalar(self):
        # Below the measured break-even a vectorized pair is slower than
        # two scalar runs; strict "vectorized" still runs it lock-step.
        pair = [
            RunSpec(FAST.with_overrides(sensor_seed=s), tag=str(s))
            for s in range(2)
        ]
        auto = execute_batch(pair, backend="auto")
        assert [r.backend_used for r in auto.records] == ["scalar"] * 2
        strict = execute_batch(pair, backend="vectorized")
        assert [r.backend_used for r in strict.records] == ["vectorized"] * 2
        assert _payload_dicts(auto) == _payload_dicts(strict)

    def test_blocked_specs_run_scalar_under_auto(self):
        idm = FAST.with_overrides(follower_policy="idm")
        specs = [
            RunSpec(idm.with_overrides(sensor_seed=s), attack_enabled=False)
            for s in range(2)
        ]
        batch = execute_batch(specs, backend="auto")
        batch.raise_on_error()
        assert [r.backend_used for r in batch.records] == ["scalar"] * 2

    def test_single_spec_stays_scalar(self):
        # A vector group of one has no lock-step win.
        batch = execute_batch([RunSpec(FAST)], backend="auto")
        assert batch.records[0].backend_used == "scalar"


class TestStrictVectorized:
    def test_platoon_spec_rejected_with_blocker(self):
        platoon = PlatoonScenario(
            leader_profile=ConstantAccelerationProfile(-0.05),
            n_followers=2,
            horizon=20.0,
        )
        with pytest.raises(
            ConfigurationError, match="PlatoonScenario is not vectorizable"
        ):
            execute_batch([RunSpec(platoon)], backend="vectorized")

    def test_idm_spec_rejected_naming_index_and_tag(self):
        specs = [
            RunSpec(FAST, tag="ok"),
            RunSpec(FAST.with_overrides(follower_policy="idm"), tag="idm-run"),
        ]
        with pytest.raises(ConfigurationError, match=r"spec 1.*idm-run.*idm"):
            execute_batch(specs, backend="vectorized")

    def test_adaptive_challenge_rejected(self):
        scenario = FAST.with_overrides(adaptive_challenge_period=5.0)
        with pytest.raises(ConfigurationError, match="adaptive challenge"):
            run_many([RunSpec(scenario)], backend="vectorized")

    def test_facade_platoon_rejected(self):
        platoon = PlatoonScenario(
            leader_profile=ConstantAccelerationProfile(-0.05),
            n_followers=2,
            horizon=20.0,
        )
        with pytest.raises(ConfigurationError, match="platoon"):
            repro.run(platoon, backend="vectorized")


class TestBackendKnob:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: execute_batch([RunSpec(FAST)], backend="turbo"),
            lambda: run_many([RunSpec(FAST)], backend="turbo"),
            lambda: repro.run(FAST, backend="turbo"),
        ],
        ids=["execute_batch", "run_many", "facade"],
    )
    def test_unknown_backend_rejected_everywhere(self, call):
        with pytest.raises(
            ConfigurationError, match="auto, scalar, vectorized.*'turbo'"
        ):
            call()

    def test_facade_validates_workers(self):
        with pytest.raises(ConfigurationError, match="workers must be"):
            repro.run(FAST, mode="figure", workers=0)
        with pytest.raises(ConfigurationError, match="workers must be"):
            repro.run(FAST, mode="figure", workers=2.5)

    def test_env_var_sets_default_backend(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        specs = [RunSpec(FAST.with_overrides(sensor_seed=s)) for s in range(2)]
        batch = execute_batch(specs)  # backend=None → env
        assert [r.backend_used for r in batch.records] == ["vectorized"] * 2

    def test_explicit_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "vectorized")
        specs = [RunSpec(FAST.with_overrides(sensor_seed=s)) for s in range(2)]
        batch = execute_batch(specs, backend="scalar")
        assert [r.backend_used for r in batch.records] == ["scalar"] * 2

    def test_bad_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "warp")
        with pytest.raises(ConfigurationError, match="'warp'"):
            execute_batch([RunSpec(FAST)])


class TestCacheInteraction:
    def test_backend_used_provenance_with_store(self, tmp_path):
        specs = [
            RunSpec(FAST.with_overrides(sensor_seed=s), tag=str(s))
            for s in range(2)
        ]
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = execute_batch(specs, cache=store, backend="vectorized")
            warm = execute_batch(specs, cache=store, backend="vectorized")
        assert [r.backend_used for r in cold.records] == ["vectorized"] * 2
        assert all(not r.cached for r in cold.records)
        # Replays never touch an engine: no backend provenance.
        assert [r.backend_used for r in warm.records] == [None, None]
        assert all(r.cached for r in warm.records)
        assert _payload_dicts(cold) == _payload_dicts(warm)

    def test_cached_scalar_and_vectorized_share_fingerprints(self, tmp_path):
        # Bit-identical results ⇒ a store warmed by one backend serves
        # the other verbatim.
        spec = RunSpec(FAST, tag="x")
        with RunStore(tmp_path / "s.sqlite") as store:
            execute_batch([spec], cache=store, backend="vectorized")
            replay = execute_batch([spec], cache=store, backend="scalar")
        assert replay.records[0].cached
