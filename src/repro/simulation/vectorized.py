"""Vectorized batch simulation engine — N scenarios in lock-step.

The scalar :class:`~repro.simulation.engine.CarFollowingSimulation`
advances one scenario at a time through python-level sense / estimate /
control calls; a 64-run Monte-Carlo sweep therefore pays the python
interpreter 64 times over.  This module advances a *homogeneous group*
of runs simultaneously: every per-run scalar of the step loop becomes a
``(N,)`` float64 array, python branches become boolean masks, and the
whole group costs one pass of numpy ufuncs per step.

Equivalence contract
--------------------
The vectorized engine reproduces the scalar engine **bit-identically**
(``==`` on every trace sample, not ``allclose``).  This works because:

* the scalar numeric kernels (:mod:`repro.core.rls`,
  :mod:`repro.core.predictor`, :mod:`repro.radar.link_budget`,
  :mod:`repro.vehicle.kinematics`) are written as fixed-association
  component-wise IEEE expressions — no BLAS contractions, no libm
  ``pow`` on varying bases — which elementwise numpy ufuncs reproduce
  exactly;
* every python ``min``/``max``/branch is mirrored by the ``np.where``
  with the *same* comparison (``max(a, b)`` is ``b if b > a else a``);
* random draws are consumed from each run's own
  ``np.random.default_rng(sensor_seed)`` in exactly the scalar order
  (a small per-run python loop inside the step — the draws are the only
  per-run python left, and they are cheap relative to the scalar
  engine's full-python step);
* the dead-reckoning rollback (restore the last authenticated snapshot,
  replay the quarantined samples through the validation gate) runs as
  masked array code over every rolled-back run at once, through the
  same predictor and anchor kernels as the forward loop, with no
  per-run python.

``tests/test_vectorized_equivalence.py`` enforces the contract across
attack kinds, fidelities, estimators, horizons and seeds.

What is vectorizable
--------------------
:func:`vectorization_blocker` names the feature that forces a spec onto
the scalar engine, or returns None when the spec can join a vector
group.  Blocked today: platoon scenarios, the IDM follower policy,
adaptive challenge scheduling, the ``secure_reconstruction`` and
``combined`` defense strategies (their sliding-window subset solver is
stateful per run), non-linear-polynomial defense bases and attack
types outside the paper's set.  ``"signal"`` fidelity is
supported via a per-run sensor fallback inside the vectorized loop (the
root-MUSIC chain runs per run; everything else stays vectorized).

Telemetry
---------
With an active telemetry session the group emits ``vector.step`` (the
whole lock-step loop) and ``vector.music`` (per-run signal-fidelity
sensor seconds) spans plus ``vector.groups`` / ``vector.runs`` /
``vector.steps`` counters.  The scalar engine's ``engine.*`` spans are
*not* emitted — per-run stage timing has no meaning inside a fused
loop.
"""

from __future__ import annotations

from dataclasses import replace
from time import perf_counter
from typing import List, Optional, Tuple

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks import (
    DelayInjectionAttack,
    DoSJammingAttack,
    NoAttack,
    PhantomTargetAttack,
)
from repro.radar.equations import invert_beat_frequencies
from repro.radar.link_budget import _FOUR_PI
from repro.radar.sensor import FMCWRadarSensor
from repro.simulation.engine import _POST_COLLISION_GAP_FLOOR
from repro.simulation.results import SimulationResult
from repro.simulation.scenario import Scenario
from repro.types import DetectionEvent, TimeSeries
from repro.vehicle.kinematics import advance_state
from repro.vehicle.state import VehicleState

__all__ = ["vectorization_blocker", "group_key", "run_group_vectorized"]

_SUPPORTED_ATTACKS = (NoAttack, DoSJammingAttack, DelayInjectionAttack, PhantomTargetAttack)


def vectorization_blocker(spec) -> Optional[str]:
    """The feature that keeps ``spec`` off the vectorized engine, or None.

    ``spec`` is duck-typed (``.scenario`` / ``.attack_enabled`` /
    ``.defended``) so this module needs no import of
    :mod:`repro.simulation.batch`.
    """
    scenario = spec.scenario
    if not isinstance(scenario, Scenario):
        return (
            f"scenario type {type(scenario).__name__} is not vectorizable "
            "(a platoon couples its followers' runs)"
        )
    if scenario.follower_policy != "acc":
        return f"follower policy {scenario.follower_policy!r} is not vectorized"
    if scenario.adaptive_challenge_period is not None:
        return "adaptive challenge scheduling is stateful per run"
    if spec.defended and scenario.defense.strategy not in (
        "rls",
        "safety_filter",
    ):
        # secure_reconstruction / combined: the sliding-window subset
        # solver is stateful per run.  The safety filter itself is a
        # pure per-step clamp (certified-track recursion mirrors
        # component-wise), so "safety_filter" — the RLS pipeline plus
        # the clamp — vectorizes like "rls".
        return (
            f"defense strategy {scenario.defense.strategy!r} "
            "is stateful per run"
        )
    if spec.defended and (
        scenario.defense.basis_kind != "polynomial"
        or scenario.defense.basis_order != 1
    ):
        return (
            f"defense basis {scenario.defense.basis_kind}"
            f"(order={scenario.defense.basis_order}) is not vectorized"
        )
    attack = scenario.attack if spec.attack_enabled else None
    if attack is not None and not isinstance(attack, _SUPPORTED_ATTACKS):
        return f"attack type {type(attack).__name__} is not vectorized"
    return None


def group_key(spec):
    """Hashable key grouping specs that can share one vector group.

    Two specs group when they differ only in ``sensor_seed`` and
    ``name`` — exactly the shape of a Monte-Carlo seed sweep.  Leader
    profiles and attacks compare by object identity (they are plain
    classes), which ``Scenario.with_overrides`` preserves; a false
    mismatch merely costs a smaller group, never correctness.
    """
    return (
        replace(spec.scenario, sensor_seed=0, name=""),
        bool(spec.attack_enabled),
        bool(spec.defended),
    )


class _DefenseCfg:
    """Shared (run-invariant) defense constants, resolved once per group."""

    __slots__ = (
        "forgetting", "delta", "time_scale", "min_train", "zero_tol",
        "adaptive", "min_forgetting", "margin_gain", "rollback",
        "dead_reckoning",
    )

    def __init__(self, scenario: Scenario):
        d = scenario.defense
        self.forgetting = float(d.forgetting)
        self.delta = float(d.delta)
        self.time_scale = float(d.time_scale)
        self.min_train = int(d.min_training_samples)
        self.zero_tol = float(d.zero_tolerance)
        self.adaptive = bool(d.adaptive_forgetting)
        self.min_forgetting = float(d.min_forgetting)
        self.margin_gain = float(d.margin_gain)
        self.rollback = bool(d.rollback_on_detection)
        self.dead_reckoning = d.estimator_kind == "dead_reckoning"


# ----------------------------------------------------------------------
# vectorized predictor (masked RLS kernel over the run axis)
# ----------------------------------------------------------------------


class _VecPredictor:
    """One RLS channel for every run of the group, as stacked arrays."""

    def __init__(self, n: int, cfg: _DefenseCfg):
        self.cfg = cfg
        self.w0 = np.zeros(n)
        self.w1 = np.zeros(n)
        self.p00 = np.full(n, cfg.delta)
        self.p01 = np.zeros(n)
        self.p10 = np.zeros(n)
        self.p11 = np.full(n, cfg.delta)
        self.n_upd = np.zeros(n, dtype=np.int64)
        self.res_var = np.zeros(n)
        self.ref = np.zeros(n)
        self.has_ref = np.zeros(n, dtype=bool)

    # -- state movement ------------------------------------------------

    _STATE = ("w0", "w1", "p00", "p01", "p10", "p11", "n_upd", "res_var", "ref", "has_ref")

    def copy_state(self):
        return tuple(getattr(self, name).copy() for name in self._STATE)

    def store_into(self, snap, mask) -> None:
        for name, arr in zip(self._STATE, snap):
            arr[mask] = getattr(self, name)[mask]

    def load_from(self, snap, mask) -> None:
        for name, arr in zip(self._STATE, snap):
            getattr(self, name)[mask] = arr[mask]

    # -- kernels ---------------------------------------------------------

    @property
    def trained(self) -> np.ndarray:
        return self.n_upd >= self.cfg.min_train

    def predict(self, time: float) -> np.ndarray:
        tau = (time - self.ref) / self.cfg.time_scale
        return self.w0 + self.w1 * tau

    def observe(self, time: float, values: np.ndarray, mask: np.ndarray) -> None:
        """Masked Algorithm-1 update; rows outside ``mask`` untouched."""
        cfg = self.cfg
        need_ref = mask & ~self.has_ref
        if need_ref.any():
            self.ref[need_ref] = time
            self.has_ref |= mask
        tau = (time - self.ref) / cfg.time_scale
        lam0 = cfg.forgetting
        if cfg.adaptive:
            sigma = np.sqrt(np.where(self.res_var > 0.0, self.res_var, 0.0))
            adaptive_rows = mask & (self.n_upd >= cfg.min_train) & (sigma > 1e-12)
            if adaptive_rows.any():
                safe_sigma = np.where(sigma > 1e-12, sigma, 1.0)
                error0 = values - (self.w0 + self.w1 * tau)
                normalized = error0 / (3.0 * safe_sigma)
                ratio = normalized * normalized
                factor = np.exp(-np.where(ratio < 50.0, ratio, 50.0))
                candidate = lam0 * factor
                lam_ad = np.where(candidate > cfg.min_forgetting, candidate, cfg.min_forgetting)
                lam = np.where(adaptive_rows, lam_ad, lam0)
            else:
                lam = lam0
        else:
            lam = lam0
        warmed = self.n_upd >= cfg.min_train
        pi0 = self.p00 + self.p01 * tau
        pi1 = self.p10 + self.p11 * tau
        gamma = lam + (pi0 + tau * pi1)
        g0 = pi0 / gamma
        g1 = pi1 / gamma
        error = values - (self.w0 + self.w1 * tau)
        nw0 = self.w0 + g0 * error
        nw1 = self.w1 + g1 * error
        n00 = (self.p00 - g0 * pi0) / lam
        n01 = (self.p01 - g0 * pi1) / lam
        n10 = (self.p10 - g1 * pi0) / lam
        n11 = (self.p11 - g1 * pi1) / lam
        off = 0.5 * (n01 + n10)
        np.copyto(self.w0, nw0, where=mask)
        np.copyto(self.w1, nw1, where=mask)
        np.copyto(self.p00, n00, where=mask)
        np.copyto(self.p01, off, where=mask)
        np.copyto(self.p10, off, where=mask)
        np.copyto(self.p11, n11, where=mask)
        grow = mask & warmed
        if grow.any():
            new_var = lam0 * self.res_var + (1.0 - lam0) * (error * error)
            np.copyto(self.res_var, new_var, where=grow)
        self.n_upd += mask

    def prediction_scale(self, time: float) -> np.ndarray:
        """``h(t)ᵀ P h(t)`` for the linear-trend basis (``h0 == 1``)."""
        tau = (time - self.ref) / self.cfg.time_scale
        u0 = self.p00 + tau * self.p10
        u1 = self.p01 + tau * self.p11
        return u0 + u1 * tau


# ----------------------------------------------------------------------
# the group runner
# ----------------------------------------------------------------------


def run_group_vectorized(specs) -> List[SimulationResult]:
    """Advance one homogeneous group of run specs in lock-step.

    Every spec must share a :func:`group_key` and pass
    :func:`vectorization_blocker`; callers (the batch layer) guarantee
    both.  Returns one :class:`SimulationResult` per spec, in order,
    bit-identical to what the scalar engine produces for the same spec.
    """
    tele = _telemetry.current()
    t_start = perf_counter()
    scenario: Scenario = specs[0].scenario
    defended = bool(specs[0].defended)
    attack_enabled = bool(specs[0].attack_enabled)
    attack = scenario.attack if attack_enabled else None
    n = len(specs)
    times = [float(t) for t in scenario.times()]
    steps = len(times)
    T = float(scenario.sample_period)
    cfg = _DefenseCfg(scenario)

    # -- shared leader trajectory (python floats, via the real kinematics)
    leader = VehicleState(
        position=scenario.initial_distance, velocity=scenario.leader_initial_speed
    )
    leader_pos: List[float] = []
    leader_vel: List[float] = []
    profile = scenario.leader_profile
    for t in times:
        leader_pos.append(leader.position)
        leader_vel.append(leader.velocity)
        leader = advance_state(leader, profile.acceleration(t), T)

    schedule = scenario.schedule()
    challenge = [schedule.is_challenge(t) for t in times]

    # -- sensor constants (equation fidelity) / per-run sensors (signal)
    params = scenario.radar_params
    signal_mode = scenario.fidelity == "signal"
    music_s = 0.0
    if signal_mode:
        overrides = scenario.sensor_noise_overrides()
        sensors = [
            FMCWRadarSensor(
                params=params,
                fidelity="signal",
                seed=spec.scenario.sensor_seed,
                **overrides,
            )
            for spec in specs
        ]
    else:
        sensors = None
        dstd = (
            scenario.distance_noise_std
            if scenario.distance_noise_std is not None
            else 0.25
        )
        vstd = (
            scenario.velocity_noise_std
            if scenario.velocity_noise_std is not None
            else 0.12
        )
        dropout_rate = float(scenario.dropout_rate)
        gain = params.antenna_gain
        wavelength_sq = params.wavelength**2
        echo_num = params.transmit_power * gain * gain * wavelength_sq * params.default_rcs
        four_pi_3 = _FOUR_PI**3
        system_loss = params.system_loss
        min_range = params.min_range
        max_range = params.max_range
        nyquist_hi = 0.9 * (params.sample_rate / 2.0)
        rngs = [np.random.default_rng(spec.scenario.sensor_seed) for spec in specs]

    is_dos = isinstance(attack, DoSJammingAttack)
    is_delay = isinstance(attack, DelayInjectionAttack)
    is_phantom = isinstance(attack, PhantomTargetAttack)
    if is_dos:
        jammer = attack.jammer
        j_params = attack.radar_params
        band_fraction = min(1.0, j_params.sweep_bandwidth / jammer.bandwidth)
        jam_num = (
            jammer.peak_power
            * jammer.antenna_gain
            * j_params.wavelength**2
            * j_params.antenna_gain
            * band_fraction
        )
        four_pi_2 = _FOUR_PI**2
        jam_loss = jammer.loss
        jam_min_d = attack.minimum_distance

    ego_gain = float(scenario.ego_speed_gain)
    ego_bias = float(scenario.ego_speed_bias)

    # -- ACC constants
    acc = scenario.acc_params
    speed_gain = float(acc.speed_gain)
    set_speed = float(acc.set_speed)
    standstill = float(acc.standstill_distance)
    headway = float(acc.headway_time)
    rv_weight = float(acc.relative_velocity_weight)
    cth_denom = acc.headway_time * acc.system_gain
    max_a = float(acc.max_acceleration)
    min_a = float(acc.min_acceleration)
    coast = float(acc.coast_deceleration)
    brake_gain = float(acc.brake_gain)
    lag_alpha = float(np.exp(-acc.sample_period / acc.time_constant))
    lag_beta = acc.system_gain * (1.0 - lag_alpha)

    # -- safety-filter constants + certified track (strategy "safety_filter")
    filtering = defended and scenario.defense.uses_safety_filter
    if filtering:
        filt_tau = float(scenario.defense.filter_headway)
        filt_dmin = float(scenario.defense.filter_minimum_gap)
        filt_gamma = float(scenario.defense.filter_gamma)
        filt_aL = float(scenario.defense.filter_leader_accel_bound)
        filt_min_a = float(acc.min_acceleration)
        cert_gap = np.zeros(n)
        cert_leader = np.zeros(n)
        # All runs take their first sample on the same step, so one
        # python bool mirrors every scalar filter's None-track state.
        has_cert = False

    # -- follower state
    pos = np.zeros(n)
    vel = np.full(n, float(scenario.follower_initial_speed))
    a_state = np.zeros(n)
    collided = np.zeros(n, dtype=bool)
    collision_time = np.full(n, np.nan)

    # -- defense / tracker state
    events: List[List[DetectionEvent]] = [[] for _ in range(n)]
    if defended:
        alarm = np.zeros(n, dtype=bool)
        lt_d = np.zeros(n)
        lt_rv = np.zeros(n)
        has_lt = np.zeros(n, dtype=bool)
        if cfg.dead_reckoning:
            pred = _VecPredictor(n, cfg)
            anchor_time = np.zeros(n)
            anchor_gap = np.zeros(n)
            anchor_valid = np.zeros(n, dtype=bool)
            ltt = np.zeros(n)
            ltt_valid = np.zeros(n, dtype=bool)
            q_start = np.zeros(n, dtype=np.int64)
            qmode = np.zeros((steps, n), dtype=np.int8)
            qspeed = np.zeros((steps, n))
            snap_pred = pred.copy_state()
            snap_anchor_time = np.zeros(n)
            snap_anchor_gap = np.zeros(n)
            snap_anchor_valid = np.zeros(n, dtype=bool)
            snap_ltt = np.zeros(n)
            snap_ltt_valid = np.zeros(n, dtype=bool)
            snap_valid = np.zeros(n, dtype=bool)
        else:
            pred_d = _VecPredictor(n, cfg)
            pred_v = _VecPredictor(n, cfg)
            snap_d = pred_d.copy_state()
            snap_v = pred_v.copy_state()
            snap_valid = np.zeros(n, dtype=bool)
    else:
        trk_has = np.zeros(n, dtype=bool)
        trk_d = np.zeros(n)
        trk_rate = np.zeros(n)
        trk_hits = np.zeros(n, dtype=np.int64)
        trk_misses = np.zeros(n, dtype=np.int64)
        trk_confirmed = np.zeros(n, dtype=bool)
        trk_beta_T = 0.2 / T  # AlphaBetaTracker defaults (engine uses them)
        trk_alpha = 0.6
        trk_confirm_hits = 2
        trk_max_coast = 5

    # -- trace buffers (steps, n)
    tr = {
        name: np.zeros((steps, n))
        for name in (
            "follower_position",
            "follower_velocity",
            "follower_acceleration",
            "true_distance",
            "true_relative_velocity",
            "measured_distance",
            "measured_relative_velocity",
            "safe_distance",
            "safe_relative_velocity",
            "desired_distance",
            "desired_acceleration",
            "pedal_acceleration",
            "brake_pressure",
            "spacing_mode",
            "estimated_flag",
            "attack_active_flag",
        )
    }

    md = np.zeros(n)
    mrv = np.zeros(n)
    arange_n = range(n)

    for k in range(steps):
        t = times[k]
        lp_k = leader_pos[k]
        lv_k = leader_vel[k]

        # ---- sense: true geometry -------------------------------------
        true_gap = lp_k - pos
        if np.any(true_gap <= 0.0):
            newly = (true_gap <= 0.0) & ~collided
            if newly.any():
                collision_time[newly] = t
                collided |= newly
        radar_gap = np.where(
            true_gap < _POST_COLLISION_GAP_FLOOR, _POST_COLLISION_GAP_FLOOR, true_gap
        )
        trv = lv_k - vel

        transmit = not challenge[k]

        # ---- attack effect (shared window; per-run magnitudes) --------
        dos_now = is_dos and attack.window.contains(t)
        spoof_now = (is_delay or is_phantom) and attack.window.contains(t)
        if is_delay and spoof_now:
            off_d = attack.offset_at(t)
            off_v = attack.velocity_offset

        # ---- measurement ----------------------------------------------
        if signal_mode:
            t_music = perf_counter()
            for i in arange_n:
                gap_i = float(radar_gap[i])
                trv_i = float(trv[i])
                effect = (
                    attack.effect_at(t, gap_i, trv_i) if attack is not None else None
                )
                m = sensors[i].measure(
                    t, gap_i, trv_i, transmit=transmit, effect=effect
                )
                md[i] = m.distance
                mrv[i] = m.relative_velocity
            music_s += perf_counter() - t_music
        else:
            d2 = radar_gap * radar_gap
            visible = (min_range <= radar_gap) & (radar_gap <= max_range)
            echo = np.where(
                visible,
                echo_num / (four_pi_3 * (d2 * d2) * system_loss),
                0.0,
            )
            if dos_now:
                dj = np.where(radar_gap > jam_min_d, radar_gap, jam_min_d)
                jam = jam_num / (four_pi_2 * (dj * dj) * jam_loss)
                jam_wins = np.logical_or(not transmit, jam > echo)
            drop_eligible = transmit and dropout_rate > 0.0 and not dos_now
            for i in arange_n:
                rng = rngs[i]
                if drop_eligible and rng.random() < dropout_rate:
                    md[i] = 0.0
                    mrv[i] = 0.0
                    continue
                if dos_now and jam_wins[i]:
                    f_up = float(rng.uniform(0.0, nyquist_hi))
                    f_down = float(rng.uniform(0.0, nyquist_hi))
                    d_i, v_i = invert_beat_frequencies(params, f_up, f_down)
                    md[i] = d_i
                    mrv[i] = v_i
                elif spoof_now:
                    gap_i = float(radar_gap[i])
                    if is_phantom:
                        spoof_d = gap_i + (attack.phantom_distance - gap_i)
                        spoof_v = float(trv[i]) + (
                            attack.phantom_velocity - float(trv[i])
                        )
                    else:
                        spoof_d = gap_i + off_d
                        spoof_v = float(trv[i]) + off_v
                    md[i] = spoof_d + rng.normal(0.0, dstd)
                    mrv[i] = spoof_v + rng.normal(0.0, vstd)
                elif not transmit or not visible[i]:
                    md[i] = 0.0
                    mrv[i] = 0.0
                else:
                    md[i] = float(radar_gap[i]) + rng.normal(0.0, dstd)
                    mrv[i] = float(trv[i]) + rng.normal(0.0, vstd)

        sensed_ego = ego_gain * vel + ego_bias

        # ---- estimate: defense pipeline or coasting tracker -----------
        if defended:
            is_ch = challenge[k]
            if is_ch:
                abs_d = np.abs(md)
                abs_rv = np.abs(mrv)
                nonzero = ~((abs_d <= cfg.zero_tol) & (abs_rv <= cfg.zero_tol))
                raising = nonzero & ~alarm
                magnitude = np.where(abs_rv > abs_d, abs_rv, abs_d)
                for i in arange_n:
                    events[i].append(
                        DetectionEvent(
                            time=t,
                            attack_detected=bool(nonzero[i]),
                            receiver_output=float(magnitude[i]),
                        )
                    )
                alarm = nonzero.copy()
                if cfg.rollback:
                    roll = raising & snap_valid
                    if roll.any():
                        if cfg.dead_reckoning:
                            _replay_rollback(
                                roll, k, times, T, pred,
                                anchor_time, anchor_gap, anchor_valid,
                                ltt, ltt_valid, q_start,
                                qmode, qspeed,
                                tr["measured_distance"], tr["measured_relative_velocity"],
                                snap_pred, snap_anchor_time, snap_anchor_gap,
                                snap_anchor_valid, snap_ltt, snap_ltt_valid,
                            )
                        else:
                            pred_d.load_from(snap_d, roll)
                            pred_v.load_from(snap_v, roll)
            missed = (not is_ch) & (
                (np.abs(md) <= cfg.zero_tol) & (np.abs(mrv) <= cfg.zero_tol)
            )
            est = alarm | is_ch | missed

            if cfg.dead_reckoning:
                trained = pred.trained & anchor_valid
            else:
                trained = pred_d.trained & pred_v.trained

            est_d = md
            est_rv = mrv
            if est.any():
                forecastable = est & trained
                est_d = np.where(has_lt, lt_d, 0.0)
                est_rv = np.where(has_lt, lt_rv, 0.0)
                if forecastable.any():
                    if cfg.dead_reckoning:
                        qmode[k][forecastable] = 2
                        qspeed[k] = sensed_ego
                        _vec_roll_anchor(
                            forecastable, t, T, pred,
                            anchor_time, anchor_gap, sensed_ego,
                        )
                        forecast = pred.predict(t)
                        leader_v = np.where(forecast > 0.0, forecast, 0.0)
                        rv_hat = leader_v - sensed_ego
                        if cfg.margin_gain == 0.0:
                            margin = 0.0
                        else:
                            horizon_arr = t - ltt
                            horizon_arr = np.where(
                                horizon_arr > 0.0, horizon_arr, 0.0
                            )
                            scale = pred.prediction_scale(t)
                            scale = np.where(1.0 > scale, 1.0, scale)
                            variance = pred.res_var * scale
                            sigma = np.sqrt(
                                np.where(variance > 0.0, variance, 0.0)
                            )
                            margin = np.where(
                                ltt_valid & (horizon_arr > 0.0),
                                cfg.margin_gain * sigma * horizon_arr / 2.0,
                                0.0,
                            )
                        d_hat = anchor_gap - margin
                        d_hat = np.where(d_hat > 0.0, d_hat, 0.0)
                    else:
                        d_hat = pred_d.predict(t)
                        rv_hat = pred_v.predict(t)
                    est_d = np.where(forecastable, d_hat, est_d)
                    est_rv = np.where(forecastable, rv_hat, est_rv)

            observe = ~est
            if observe.any():
                if cfg.dead_reckoning:
                    leader_v_obs = mrv + sensed_ego
                    pred.observe(t, leader_v_obs, observe)
                    np.copyto(anchor_time, t, where=observe)
                    np.copyto(anchor_gap, md, where=observe)
                    anchor_valid |= observe
                    np.copyto(ltt, t, where=observe)
                    ltt_valid |= observe
                    qmode[k][observe] = 1
                    qspeed[k] = sensed_ego
                else:
                    pred_d.observe(t, md, observe)
                    pred_v.observe(t, mrv, observe)
                np.copyto(lt_d, md, where=observe)
                np.copyto(lt_rv, mrv, where=observe)
                has_lt |= observe

            if is_ch:
                clean = ~alarm
                if clean.any():
                    if cfg.dead_reckoning:
                        pred.store_into(snap_pred, clean)
                        snap_anchor_time[clean] = anchor_time[clean]
                        snap_anchor_gap[clean] = anchor_gap[clean]
                        snap_anchor_valid[clean] = anchor_valid[clean]
                        snap_ltt[clean] = ltt[clean]
                        snap_ltt_valid[clean] = ltt_valid[clean]
                        q_start[clean] = k + 1
                    else:
                        pred_d.store_into(snap_d, clean)
                        pred_v.store_into(snap_v, clean)
                    snap_valid |= clean

            safe_d = np.where(est, est_d, md)
            safe_rv = np.where(est, est_rv, mrv)
            has_view = True
            estimated = est
            attack_active = alarm
        else:
            coasting = (np.abs(md) <= 1e-9) & (np.abs(mrv) <= 1e-9)
            hit = ~coasting
            # misses on absent-or-tentative tracks drop the track
            dead = coasting & (~trk_has | ~trk_confirmed)
            # confirmed tracks coast up to max_coast misses
            coast_rows = coasting & trk_has & trk_confirmed
            new_misses = trk_misses + 1
            expired = coast_rows & (new_misses > trk_max_coast)
            surviving = coast_rows & ~expired
            predicted = trk_d + trk_rate * T
            # hits on an empty track initiate; on a live track they update
            initiate = hit & ~trk_has
            track_update = hit & trk_has
            innovation = md - predicted
            upd_d = predicted + trk_alpha * innovation
            upd_rate = trk_rate + trk_beta_T * innovation

            np.copyto(trk_d, predicted, where=surviving)
            np.copyto(trk_misses, new_misses, where=surviving)
            np.copyto(trk_d, upd_d, where=track_update)
            np.copyto(trk_rate, upd_rate, where=track_update)
            np.copyto(trk_d, md, where=initiate)
            np.copyto(trk_rate, mrv, where=initiate)
            trk_hits = np.where(initiate, 1, np.where(track_update, trk_hits + 1, trk_hits))
            trk_misses[hit] = 0
            trk_confirmed = np.where(
                hit, trk_confirmed | (trk_hits >= trk_confirm_hits), trk_confirmed
            )
            reset_rows = dead | expired
            if reset_rows.any():
                trk_d[reset_rows] = 0.0
                trk_rate[reset_rows] = 0.0
                trk_hits[reset_rows] = 0
                trk_misses[reset_rows] = 0
                trk_confirmed[reset_rows] = False
                trk_has[reset_rows] = False
            trk_has = trk_has | initiate
            has_view = trk_confirmed & trk_has & ~dead & ~expired
            safe_d = np.where(has_view, trk_d, 0.0)
            safe_rv = np.where(has_view, trk_rate, 0.0)
            estimated = coasting & has_view
            attack_active = False

        # ---- control: CTH upper level + lag lower level ----------------
        speed_cmd = speed_gain * (set_speed - vel)
        vel_floor = np.where(vel > 0.0, vel, 0.0)
        d_des = standstill + headway * vel_floor
        clearance = safe_d - d_des
        spacing_cmd = (clearance + rv_weight * safe_rv) / cth_denom
        if defended:
            spacing_sel = spacing_cmd < speed_cmd
        else:
            spacing_sel = has_view & (spacing_cmd < speed_cmd)
        command = np.where(spacing_sel, spacing_cmd, speed_cmd)
        lifted = np.where(command > min_a, command, min_a)
        a_des = np.where(lifted < max_a, lifted, max_a)
        if filtering:
            # Component-wise mirror of SafetyFilter.clamp on the safe
            # view (python min(a,b) ≡ where(b < a, b, a), max(a,b) ≡
            # where(b > a, b, a) — the codebase's IEEE convention).
            measured_leader = safe_rv + sensed_ego
            if has_cert:
                allowed = cert_leader + filt_aL * T
                cert_leader = np.where(
                    allowed < measured_leader, allowed, measured_leader
                )
            else:
                cert_leader = measured_leader
            cert_rel = cert_leader - sensed_ego
            if has_cert:
                rel_pos = np.where(cert_rel > 0.0, cert_rel, 0.0)
                growth_cap = cert_gap + T * rel_pos + 0.5 * filt_aL * T * T
                cert_gap = np.where(safe_d > growth_cap, growth_cap, safe_d)
            else:
                cert_gap = safe_d
                has_cert = True
            cert_gap = np.where(cert_gap > 0.0, cert_gap, 0.0)
            h = cert_gap - filt_dmin - filt_tau * sensed_ego
            bound = (filt_gamma * h + T * cert_rel) / (
                filt_tau * T + 0.5 * T * T
            )
            clamped = np.where(bound < a_des, bound, a_des)
            admissible = np.where(clamped > filt_min_a, clamped, filt_min_a)
            # The lower level re-saturates whatever command it is handed
            # (LowerLevelController.actuation_split → clamp_command).
            relifted = np.where(admissible > min_a, admissible, min_a)
            a_cmd = np.where(relifted < max_a, relifted, max_a)
        else:
            a_cmd = a_des
        surplus = a_cmd - coast
        pedal = np.where(surplus >= 0.0, surplus, 0.0)
        brake = np.where(surplus >= 0.0, 0.0, brake_gain * (-surplus))
        a_new = lag_alpha * a_state + lag_beta * a_cmd

        # ---- record -----------------------------------------------------
        tr["follower_position"][k] = pos
        tr["follower_velocity"][k] = vel
        tr["follower_acceleration"][k] = a_new
        tr["true_distance"][k] = true_gap
        tr["true_relative_velocity"][k] = trv
        tr["measured_distance"][k] = md
        tr["measured_relative_velocity"][k] = mrv
        tr["safe_distance"][k] = safe_d
        tr["safe_relative_velocity"][k] = safe_rv
        tr["desired_distance"][k] = d_des
        tr["desired_acceleration"][k] = a_des
        tr["pedal_acceleration"][k] = pedal
        tr["brake_pressure"][k] = brake
        tr["spacing_mode"][k] = spacing_sel
        tr["estimated_flag"][k] = estimated
        tr["attack_active_flag"][k] = attack_active

        # ---- advance kinematics ----------------------------------------
        v1 = vel + a_new * T
        stopping = v1 < 0.0
        if stopping.any():
            denom = np.where(stopping, -a_new, 1.0)
            t_stop = vel / denom
            pos_stop = pos + vel * t_stop + 0.5 * a_new * (t_stop * t_stop)
            pos_move = pos + vel * T + 0.5 * a_new * T * T
            pos = np.where(stopping, pos_stop, pos_move)
            vel = np.where(stopping, 0.0, v1)
        else:
            pos = pos + vel * T + 0.5 * a_new * T * T
            vel = v1
        a_state = a_new

    # ---- package per-run results --------------------------------------
    attack_tag = attack.label.value if attack is not None else "clean"
    attack_name = attack.label.value if attack is not None else "none"
    mode = "defended" if defended else "undefended"
    results: List[SimulationResult] = []
    leader_pos_list = [float(v) for v in leader_pos]
    leader_vel_list = [float(v) for v in leader_vel]
    for i, spec in enumerate(specs):
        name = f"{spec.scenario.name}/{attack_tag}/{mode}"
        traces = {
            "leader_position": TimeSeries(
                "leader_position", list(times), list(leader_pos_list)
            ),
            "leader_velocity": TimeSeries(
                "leader_velocity", list(times), list(leader_vel_list)
            ),
        }
        for trace_name, arr in tr.items():
            traces[trace_name] = TimeSeries(
                trace_name, list(times), arr[:, i].tolist()
            )
        result = SimulationResult(
            name=name,
            traces=traces,
            detection_events=list(events[i]),
            collision_time=(
                float(collision_time[i]) if collided[i] else None
            ),
            attack_name=attack_name,
            defended=defended,
        )
        results.append(result)

    if tele is not None:
        attrs = {"runs": n, "steps": steps}
        tele.emit("vector.step", perf_counter() - t_start, attrs=dict(attrs))
        if signal_mode:
            tele.emit("vector.music", music_s, attrs=dict(attrs))
        tele.incr("vector.groups")
        tele.incr("vector.runs", n)
        tele.incr("vector.steps", steps * n)
    return results


def _vec_roll_anchor(mask, to_time, T, pred, anchor_time, anchor_gap, speeds):
    """Masked mirror of ``DeadReckoningEstimator._roll_anchor``.

    Rows advance independently until their anchor reaches ``to_time``;
    the final ``max(0, gap)`` clamp applies to every masked row, exactly
    as the scalar method does unconditionally on exit.
    """
    active = mask & (anchor_time + 1e-9 < to_time)
    while active.any():
        candidate = anchor_time + T
        step_time = np.where(to_time < candidate, to_time, candidate)
        midpoint = 0.5 * (anchor_time + step_time)
        forecast = pred.predict(midpoint)
        leader_v = np.where(forecast > 0.0, forecast, 0.0)
        relative_v = leader_v - speeds
        np.copyto(anchor_gap, anchor_gap + relative_v * (step_time - anchor_time), where=active)
        np.copyto(anchor_time, step_time, where=active)
        active = active & (anchor_time + 1e-9 < to_time)
    np.copyto(anchor_gap, np.where(anchor_gap > 0.0, anchor_gap, 0.0), where=mask)



def _replay_rollback(
    roll, k, times, T, pred,
    anchor_time, anchor_gap, anchor_valid,
    ltt, ltt_valid, q_start,
    qmode, qspeed, md_trace, mrv_trace,
    snap_pred, snap_anchor_time, snap_anchor_gap,
    snap_anchor_valid, snap_ltt, snap_ltt_valid,
):
    """Masked mirror of ``DeadReckoningEstimator.restore``.

    Rolls the masked rows back to their authenticated snapshots, then
    replays every row's quarantined steps ``q_start..k-1`` at once: the
    anchor rolls forward on the model with the logged ego speeds, and a
    logged measurement is re-accepted only inside the gate
    ``max(3, 5·σ·max(1, span))``.  The replay runs the forward loop's
    own masked kernels, so it stays bit-identical to the scalar engine.
    """
    pred.load_from(snap_pred, roll)
    np.copyto(anchor_time, snap_anchor_time, where=roll)
    np.copyto(anchor_gap, snap_anchor_gap, where=roll)
    np.copyto(anchor_valid, snap_anchor_valid, where=roll)
    np.copyto(ltt, snap_ltt, where=roll)
    np.copyto(ltt_valid, snap_ltt_valid, where=roll)
    replaying = roll & anchor_valid
    snap_at = anchor_time.copy()
    first = int(q_start[replaying].min()) if replaying.any() else k
    for j in range(first, k):
        log_t = times[j]
        entry_mode = qmode[j]
        live = (
            replaying
            & (q_start <= j)
            & (entry_mode != 0)
            & (log_t > snap_at)
            & pred.trained
        )
        if not live.any():
            continue
        speed = qspeed[j]
        span = log_t - np.where(ltt_valid, ltt, snap_at)
        _vec_roll_anchor(live, log_t, T, pred, anchor_time, anchor_gap, speed)
        innovation = md_trace[j] - anchor_gap
        residual = np.sqrt(np.where(pred.res_var > 0.0, pred.res_var, 0.0))
        width = 5.0 * residual * np.where(span > 1.0, span, 1.0)
        gate = np.where(width > 3.0, width, 3.0)
        accept = live & (entry_mode == 1) & (np.abs(innovation) <= gate)
        if accept.any():
            pred.observe(log_t, mrv_trace[j] + speed, accept)
            np.copyto(anchor_time, log_t, where=accept)
            np.copyto(anchor_gap, md_trace[j], where=accept)
            np.copyto(ltt, log_t, where=accept)
            ltt_valid |= accept
    q_start[roll] = k
