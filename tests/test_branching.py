"""Branched runs against fresh runs: the fourth bit-identity suite.

Runs that differ only in their attack are bit-identical until the first
attack starts, so ``execute_batch`` runs that prefix once and branches
the other runs from a snapshot of the engine state (see
:mod:`repro.simulation.batch`).  These tests pin that a branched run is
indistinguishable from the same spec run alone — ``==`` on
``result_to_dict`` and on the detection events, never ``allclose`` — on
every figure panel, defense strategy and fidelity, across worker counts
and cache states, and on the edge cases of the branch point.
"""

from dataclasses import replace

import pytest

import repro
from repro import telemetry
from repro.attacks import AttackSchedule, AttackWindow, DoSJammingAttack
from repro.simulation import RunSpec, execute_batch
from repro.simulation.batch import _default_chunksize
from repro.simulation.engine import CarFollowingSimulation
from repro.simulation.io import result_to_dict
from repro.simulation.scenario import PANELS, panel_scenario
from repro.store import RunStore

STRATEGIES = ("rls", "secure_reconstruction", "safety_filter", "combined")
FIDELITIES = ("equation", "signal")

_FRESH: dict = {}


def _scenario(panel, fidelity="equation", strategy="rls", **overrides):
    base = panel_scenario(panel)
    return base.with_overrides(
        fidelity=fidelity,
        defense=replace(base.defense, strategy=strategy),
        **overrides,
    )


def _fresh(spec):
    """The spec run alone, straight through the engine (memoized)."""
    key = (spec.scenario, spec.attack_enabled, spec.defended)
    if key not in _FRESH:
        _FRESH[key] = CarFollowingSimulation(
            spec.scenario,
            attack_enabled=spec.attack_enabled,
            defended=spec.defended,
        ).run()
    return _FRESH[key]


def _same(result, reference):
    return (
        result_to_dict(result) == result_to_dict(reference)
        and result.detection_events == reference.detection_events
    )


def _branched(specs, **kwargs):
    """Execute on the scalar engine; returns (payloads, counters)."""
    tele = telemetry.enable()
    try:
        batch = execute_batch(specs, backend="scalar", **kwargs)
    finally:
        telemetry.disable()
    batch.raise_on_error()
    return batch.payloads(), tele.summary().counters


def _assert_matches_fresh(specs, payloads):
    for spec, payload in zip(specs, payloads):
        assert _same(payload, _fresh(spec)), spec.tag


def _undefended_pairs(fidelity):
    return [
        RunSpec(_scenario(panel, fidelity), attack_enabled=attacked,
                defended=False, tag=f"{panel}/{attacked}")
        for panel in PANELS
        for attacked in (False, True)
    ]


def _defended_panels(fidelity, strategy, **overrides):
    return [
        RunSpec(_scenario(panel, fidelity, strategy, **overrides), tag=panel)
        for panel in PANELS
    ]


# ----------------------------------------------------------------------
# panels x strategies x fidelities
# ----------------------------------------------------------------------


@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_undefended_baseline_attacked_pairs(fidelity):
    # fig2a/fig2b (and fig3a/fig3b) scenarios differ only in the attack,
    # so their four undefended runs share one prefix up to 180 s.
    specs = _undefended_pairs(fidelity)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert counters["batch.branched_runs"] == 6
    assert counters["engine.shared_steps"] == 6 * 180


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("fidelity", FIDELITIES)
def test_defended_fig_a_b_pairs(fidelity, strategy):
    specs = _defended_panels(fidelity, strategy)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert counters["batch.branched_runs"] == 2


@pytest.mark.parametrize("panel", PANELS)
def test_figure_mode_matches_fresh_legs(panel):
    scenario = _scenario(panel)
    figure = repro.run(scenario, mode="figure", backend="scalar")
    legs = (figure.baseline, figure.attacked, figure.defended)
    toggles = ((False, False), (True, False), (True, True))
    for leg, (attacked, defended) in zip(legs, toggles):
        assert _same(leg, _fresh(RunSpec(scenario, attacked, defended)))


# ----------------------------------------------------------------------
# workers and the run store
# ----------------------------------------------------------------------


def test_two_workers_branch_within_chunks():
    # 16 specs on two workers cut into chunks of 2, one (baseline,
    # attacked) pair each, so every pooled chunk branches.
    specs = [
        RunSpec(_scenario(panel, sensor_seed=seed), attack_enabled=attacked,
                defended=False, tag=f"{panel}/{seed}/{attacked}")
        for seed in (2017, 2018)
        for panel in PANELS
        for attacked in (False, True)
    ]
    assert _default_chunksize(len(specs), 2) == 2
    serial, _ = _branched(specs)
    pooled = execute_batch(specs, workers=2, backend="scalar")
    assert pooled.parallel or pooled.degraded_reason is not None
    for payload, reference in zip(pooled.raise_on_error().payloads(), serial):
        assert _same(payload, reference)
    _assert_matches_fresh(specs, serial)


def test_partial_cache_hit(tmp_path):
    scenario = _scenario("fig2a")
    store = RunStore(tmp_path / "runs.sqlite")
    baseline = RunSpec(scenario, attack_enabled=False, defended=False)
    attacked = RunSpec(scenario, attack_enabled=True, defended=False)
    execute_batch([baseline], cache=store, backend="scalar")
    payloads, counters = _branched([baseline, attacked], cache=store)
    assert counters["batch.cache_hits"] == 1
    assert "batch.branched_runs" not in counters  # one miss: nothing to share
    _assert_matches_fresh([baseline, attacked], payloads)


def test_store_keeps_branched_runs_whole(tmp_path):
    specs = _undefended_pairs("equation")[:4]
    store = RunStore(tmp_path / "runs.sqlite")
    _, counters = _branched(specs, cache=store)
    assert counters["batch.branched_runs"] == 3
    for spec in specs:
        assert _same(store.get(spec._fingerprint), _fresh(spec))


# ----------------------------------------------------------------------
# the branch point
# ----------------------------------------------------------------------


def _pair(scenario, defended=False):
    return [
        RunSpec(scenario, attack_enabled=False, defended=defended, tag="base"),
        RunSpec(scenario, attack_enabled=True, defended=defended, tag="attack"),
    ]


def test_attack_start_past_the_horizon():
    # The 150 s run never reaches the 182 s onset: the branch resumes
    # after the last step and only relabels the result.
    specs = _pair(_scenario("fig2a", horizon=150.0))
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert payloads[1].attack_name == "dos" and payloads[0].attack_name == "none"
    assert counters["engine.shared_steps"] == 151


def test_attack_start_zero_has_no_prefix():
    attack = DoSJammingAttack(AttackWindow(0.0, 300.0))
    specs = _pair(_scenario("fig2a", attack=attack))
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert "batch.branched_runs" not in counters


def test_attack_schedule_branches_at_earliest_onset():
    schedule = AttackSchedule([
        DoSJammingAttack(AttackWindow(220.0, 260.0)),
        DoSJammingAttack(AttackWindow(112.0, 130.0)),
    ])
    specs = _pair(_scenario("fig2a", attack=schedule), defended=True)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert counters["engine.shared_steps"] == 112
    assert payloads[1].detection_times == [112.0, 222.0]


def test_adaptive_challenges():
    specs = _defended_panels("equation", "rls", adaptive_challenge_period=2.0)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert counters["batch.branched_runs"] == 2


@pytest.mark.parametrize("defended", (False, True))
def test_idm_follower(defended):
    specs = _pair(_scenario("fig3b", follower_policy="idm"), defended)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert counters["batch.branched_runs"] == 1


@pytest.mark.parametrize("defended", (False, True))
def test_collision_before_the_branch_point(defended):
    scenario = _scenario("fig2a", initial_distance=5.0, follower_initial_speed=40.0)
    specs = _pair(scenario, defended)
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert payloads[1].collision_time == 1.0
    assert counters["batch.branched_runs"] == 1


def test_trunk_failing_after_the_branch_point(monkeypatch):
    # The attacked trunk raises mid-attack; the snapshot it took at the
    # onset is attack-free, so the baseline still resumes from it.
    effect = DoSJammingAttack._effect

    def failing(self, time, *args):
        if time >= 200.0:
            raise RuntimeError("jammer failed")
        return effect(self, time, *args)

    monkeypatch.setattr(DoSJammingAttack, "_effect", failing)
    specs = _pair(_scenario("fig2a"))[::-1]
    tele = telemetry.enable()
    try:
        batch = execute_batch(specs, backend="scalar")
    finally:
        telemetry.disable()
    assert "jammer failed" in batch.records[0].error
    assert _same(batch.records[1].payload, _fresh(specs[1]))
    assert tele.summary().counters["batch.branched_runs"] == 1


def test_unknown_attack_start_runs_whole():
    class Custom(DoSJammingAttack):
        def effect_at(self, time, true_distance, true_relative_velocity=0.0):
            return super().effect_at(time, true_distance, true_relative_velocity)

    specs = _pair(_scenario("fig2a", attack=Custom(AttackWindow(182.0, 300.0))))
    payloads, counters = _branched(specs)
    _assert_matches_fresh(specs, payloads)
    assert "batch.branched_runs" not in counters


def test_snapshot_refuses_other_toggles():
    scenario = _scenario("fig2a")
    trunk = CarFollowingSimulation(scenario, defended=False, snapshot_at=182.0)
    trunk.run()
    with pytest.raises(ValueError, match="other defense toggles"):
        CarFollowingSimulation(
            scenario, defended=True, resume_from=trunk.branch_snapshot
        ).run()


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------


def test_figure_ledger_counts_one_branch():
    # Baseline and attacked share the 182 steps before the DoS onset
    # (t = 0..181); the defended run shares nothing with them.
    tele = telemetry.enable()
    try:
        repro.run(_scenario("fig2a"), mode="figure", backend="scalar")
    finally:
        telemetry.disable()
    summary = tele.summary()
    assert summary.counters["batch.branched_runs"] == 1
    assert summary.counters["engine.shared_steps"] == 182
    assert summary.counters["engine.steps"] == 3 * 301 - 182
    # The branch's stage spans cover its 119-step suffix only.
    steps = sorted(
        event["steps"]
        for event in tele.events
        if event["name"] == "engine.sense"
    )
    assert steps == [119, 301, 301]


def test_profile_shows_branching_counters():
    from io import StringIO

    from repro.cli import main

    out = StringIO()
    assert main(["run", "fig2a", "--no-plot", "--profile"], out=out) == 0
    text = out.getvalue()
    assert "batch.branched_runs" in text
    assert "engine.shared_steps" in text
