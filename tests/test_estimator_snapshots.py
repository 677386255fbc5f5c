"""Explicit estimator snapshots against the deep-copy reference.

The built-in estimators capture only their mutable per-run state at a
clean challenge and share what is immutable (basis objects, solver
geometry).  These tests pin that this is indistinguishable from the
generic ``copy.deepcopy`` snapshot: on whole runs (the delay panels roll
back at the k = 182 detection) and on the snapshot contract itself — a
snapshot may be restored more than once and is independent of whatever
happens to the estimator after it was taken or restored.
"""

import copy
from dataclasses import replace

import pytest

import repro
from repro.core.dead_reckoning import DeadReckoningEstimator
from repro.core.predictor import (
    ChannelPredictor,
    Forecaster,
    MeasurementEstimator,
    RadarChannelEstimator,
)
from repro.core.regressors import ARBasis
from repro.defense.estimator import SecureReconstructionEstimator
from repro.simulation.io import result_to_dict
from repro.types import RadarMeasurement

PANELS = {
    "fig2a": repro.fig2_scenario("dos"),
    "fig2b": repro.fig2_scenario("delay"),
    "fig3a": repro.fig3_scenario("dos"),
    "fig3b": repro.fig3_scenario("delay"),
}
SEEDS = (2017, 11)
#: Defense settings per estimator, with the estimator class they build.
ESTIMATORS = {
    "per_channel": (
        {"strategy": "rls", "estimator_kind": "per_channel"},
        RadarChannelEstimator,
    ),
    "dead_reckoning": (
        {"strategy": "rls", "estimator_kind": "dead_reckoning"},
        DeadReckoningEstimator,
    ),
    "secure_reconstruction": (
        {"strategy": "secure_reconstruction"},
        SecureReconstructionEstimator,
    ),
    "combined": ({"strategy": "combined"}, SecureReconstructionEstimator),
}


def _scenario(estimator, panel, seed):
    base = PANELS[panel]
    settings, _ = ESTIMATORS[estimator]
    return base.with_overrides(
        sensor_seed=seed, defense=replace(base.defense, **settings)
    )


def _run(scenario):
    return result_to_dict(repro.run(scenario, backend="scalar"))


def _use_deepcopy_snapshots(monkeypatch):
    """Swap every explicit snapshot back to the generic deep copy."""
    monkeypatch.setattr(ChannelPredictor, "snapshot", Forecaster.snapshot)
    monkeypatch.setattr(ChannelPredictor, "restore", Forecaster.restore)
    for cls in (RadarChannelEstimator, SecureReconstructionEstimator):
        monkeypatch.setattr(cls, "snapshot", MeasurementEstimator.snapshot)
        monkeypatch.setattr(cls, "restore", MeasurementEstimator.restore)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("panel", sorted(PANELS))
@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_run_matches_deepcopy_reference(monkeypatch, estimator, panel, seed):
    scenario = _scenario(estimator, panel, seed)
    explicit = _run(scenario)
    _use_deepcopy_snapshots(monkeypatch)
    assert _run(scenario) == explicit


@pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
def test_delay_panel_rolls_back(monkeypatch, estimator):
    # The equivalence above only covers restore() if a run restores.
    cls = ESTIMATORS[estimator][1]
    original = cls.restore
    restored = []

    def counting_restore(self, snapshot):
        restored.append(self)
        original(self, snapshot)

    monkeypatch.setattr(cls, "restore", counting_restore)
    _run(_scenario(estimator, "fig2b", SEEDS[0]))
    assert len(restored) == 1


# ----------------------------------------------------------------------
# the snapshot contract, estimator by estimator
# ----------------------------------------------------------------------

FOLLOWER_SPEED = 25.0


def _ar_channel():
    return ChannelPredictor(basis=ARBasis(order=2))


FACTORIES = {
    "per_channel": RadarChannelEstimator,
    "per_channel_ar": lambda: RadarChannelEstimator(_ar_channel(), _ar_channel()),
    "dead_reckoning": DeadReckoningEstimator,
    "secure_reconstruction": SecureReconstructionEstimator,
}


def _feed(estimator, steps, spoof=0.0, hole_every=None):
    """A braking leader behind a follower holding its speed."""
    for k in steps:
        if hole_every and k % hole_every == 0:
            continue  # a challenge instant: no trusted sample
        v_leader = 27.0 - 0.1 * k
        gap = 100.0 + 2.0 * k - 0.05 * k * k + spoof
        estimator.observe(
            RadarMeasurement(
                time=float(k),
                distance=gap,
                relative_velocity=v_leader - FOLLOWER_SPEED,
            ),
            follower_speed=FOLLOWER_SPEED,
        )


def _counters(estimator):
    if isinstance(estimator, SecureReconstructionEstimator):
        return estimator.search_stats()
    if isinstance(estimator, DeadReckoningEstimator):
        predictors = [estimator.leader_velocity_predictor]
    else:
        predictors = [estimator.distance_predictor, estimator.velocity_predictor]
    return [(p.rls.n_updates, len(p._history)) for p in predictors]


PROBE_STEPS = range(30, 34)


def _probe(estimator):
    """Forecasts and counters around more clean samples, on a copy."""
    estimator = copy.deepcopy(estimator)
    forecasts = [estimator.forecast(26.0, follower_speed=FOLLOWER_SPEED)]
    _feed(estimator, PROBE_STEPS, hole_every=3)
    forecasts += [
        estimator.forecast(t, follower_speed=FOLLOWER_SPEED) for t in (36.0, 45.0)
    ]
    return forecasts, _counters(estimator)


def _trained(name):
    estimator = FACTORIES[name]()
    _feed(estimator, range(24), hole_every=7)
    # The pipeline snapshots right after a challenge-instant forecast,
    # which leaves an AR rollout in the predictor state.
    estimator.forecast(24.0, follower_speed=FOLLOWER_SPEED)
    return estimator


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_snapshot_restores_more_than_once(name):
    estimator = _trained(name)
    snapshot = estimator.snapshot()
    outcomes = []
    for _ in range(2):
        _feed(estimator, range(25, 30), spoof=6.0)
        estimator.restore(snapshot)
        outcomes.append(_probe(estimator))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_snapshot_is_independent_of_later_mutation(name):
    estimator = _trained(name)
    snapshot = estimator.snapshot()
    at_snapshot = copy.deepcopy(estimator)
    # Mutate before and after a restore.  The far forecast extends an AR
    # rollout in place; samples at the probe's own instants fill the
    # caches with the probe's window geometries and intervals, so any
    # shared list or dict would turn the probe's misses into hits.
    estimator.forecast(60.0, follower_speed=FOLLOWER_SPEED)
    _feed(estimator, range(25, 30), spoof=6.0)
    estimator.restore(snapshot)
    estimator.forecast(60.0, follower_speed=FOLLOWER_SPEED)
    _feed(estimator, PROBE_STEPS, spoof=-4.0, hole_every=3)
    twin = FACTORIES[name]()
    twin.restore(snapshot)
    assert _probe(twin) == _probe(at_snapshot)
