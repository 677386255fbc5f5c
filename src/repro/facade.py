"""Unified experiment facade: ``repro.run()``.

One entrypoint for every experiment shape — one closed-loop run, the
baseline / attacked / defended triple a figure panel overlays, a seed
sweep, an adaptive sweep and the N-follower platoon chain:

>>> import repro
>>> result = repro.run(repro.fig2_scenario("dos"))                # single
>>> data = repro.run(repro.fig2_scenario("dos"), mode="figure")   # triple
>>> mc = repro.run(repro.fig2_scenario("dos"), mode="monte_carlo",
...                seeds=range(16), workers=4)                    # sweep

Accepted inputs
---------------
``scenario_or_spec`` may be:

* a :class:`~repro.simulation.scenario.Scenario` (modes ``"single"``,
  ``"figure"``, ``"monte_carlo"``);
* a :class:`~repro.simulation.platoon.PlatoonScenario` (mode
  ``"platoon"``, selected automatically);
* a ``dict`` in the declarative spec format of
  :mod:`repro.simulation.spec`;
* a path (``str`` / ``pathlib.Path``) to a JSON spec file.

Overrides
---------
To vary a scenario, derive it first:
``scenario.with_overrides(sensor_seed=7, horizon=250.0)`` returns a
copy with the given fields replaced — the facade deliberately takes a
finished scenario rather than a bag of kwargs.

Parallelism
-----------
``workers`` fans independent runs (the figure triple, Monte-Carlo
seeds) out over a process pool via :mod:`repro.simulation.batch`;
results are bit-identical to ``workers=1``.  Modes with a single run
ignore it.

Backends
--------
``backend=`` selects the engine executing the runs — ``"scalar"`` (the
per-run step loop, default), ``"vectorized"`` (homogeneous groups
advance in lock-step through :mod:`repro.simulation.vectorized`, with
bit-identical results) or ``"auto"`` (vectorize what qualifies, scalar
for the rest).  ``None`` reads the :envvar:`REPRO_BACKEND` environment
variable, falling back to scalar.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Sequence, Union

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError
from repro.simulation import batch as _batch
from repro.simulation import monte_carlo as _monte_carlo
from repro.simulation import sweep as _sweep
from repro.simulation.engine import CarFollowingSimulation
from repro.simulation.knobs import resolve_backend, validate_workers
from repro.simulation.monte_carlo import MonteCarloSummary
from repro.simulation.platoon import PlatoonResult, PlatoonScenario, PlatoonSimulation
from repro.simulation.results import FigureData, SimulationResult
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepCell, SweepResult

__all__ = ["run"]

_MODES = ("single", "figure", "monte_carlo", "platoon", "sweep")


def _resolve_scenario(
    scenario_or_spec: Any,
) -> Union[Scenario, PlatoonScenario]:
    """Accept a scenario object, a spec dict, or a spec-file path."""
    if isinstance(scenario_or_spec, (Scenario, PlatoonScenario)):
        return scenario_or_spec
    if isinstance(scenario_or_spec, dict):
        from repro.simulation.spec import scenario_from_dict

        return scenario_from_dict(scenario_or_spec)
    if isinstance(scenario_or_spec, (str, Path)):
        from repro.simulation.spec import load_scenario

        return load_scenario(scenario_or_spec)
    raise ConfigurationError(
        "scenario_or_spec must be a Scenario, PlatoonScenario, spec dict "
        f"or spec path, got {type(scenario_or_spec).__name__}"
    )


def _cache_active(cache: Any) -> bool:
    """Whether a ``cache=`` argument engages the run store at all."""
    return cache is not None and cache != "off"


def run(
    scenario_or_spec: Any,
    *,
    mode: str = "single",
    workers: int = 1,
    seeds: Union[int, Sequence[int], None] = None,
    attack_enabled: bool = True,
    defended: bool = True,
    defense: Optional[str] = None,
    cache: Any = "off",
    backend: Optional[str] = None,
    sweep: Optional[dict] = None,
) -> Union[
    SimulationResult, FigureData, MonteCarloSummary, PlatoonResult, SweepResult
]:
    """Run an experiment described by a scenario or a declarative spec.

    Parameters
    ----------
    scenario_or_spec:
        A :class:`Scenario` / :class:`PlatoonScenario`, a spec dict, or
        a path to a JSON spec file.  Use
        :meth:`Scenario.with_overrides` to vary fields before running.
    mode:
        * ``"single"`` — one closed-loop run → :class:`SimulationResult`.
        * ``"figure"`` — the (baseline, attacked, defended) triple →
          :class:`FigureData`.
        * ``"monte_carlo"`` — a seed sweep → :class:`MonteCarloSummary`;
          requires ``seeds``.
        * ``"platoon"`` — the N-follower chain → :class:`PlatoonResult`;
          selected automatically for :class:`PlatoonScenario` inputs.
        * ``"sweep"`` — an adaptive variance-aware Monte-Carlo sweep →
          :class:`~repro.simulation.sweep.SweepResult`; configured via
          ``sweep``.
    workers:
        Process count for modes with independent runs (``"figure"``,
        ``"monte_carlo"``); results are identical to ``workers=1``.
    seeds:
        Monte-Carlo seeds: an explicit sequence, or an ``int`` N to
        derive N seeds deterministically from the scenario's
        ``sensor_seed`` (via :func:`repro.simulation.derive_seeds`).
    attack_enabled, defended:
        Run toggles for ``"single"`` and ``"monte_carlo"`` (the figure
        triple runs all combinations; platoon defense is configured on
        the scenario itself).
    defense:
        Convenience override of the scenario's defense *strategy*
        (:data:`~repro.simulation.scenario.DEFENSE_STRATEGIES`:
        ``"rls"``, ``"secure_reconstruction"``, ``"safety_filter"``,
        ``"combined"``); equivalent to deriving the scenario with a
        replaced ``defense.strategy`` first.  ``None`` (default) keeps
        the scenario's configured strategy.  Not applicable to platoon
        scenarios.
    cache:
        Run-store policy: ``"off"`` (default, pre-store behavior),
        ``"readonly"`` (serve fingerprint hits from the persistent
        store, never write), or ``"readwrite"`` (serve hits, store
        computed misses).  A :class:`repro.store.RunStore` or
        :class:`repro.store.CacheBinding` selects an explicit store.
        Cached replays are bit-identical to fresh runs.  Platoon runs
        are uncacheable and always compute.
    backend:
        Engine selection, shared verbatim with
        :func:`repro.simulation.batch.execute_batch`: ``"scalar"``,
        ``"vectorized"``, ``"auto"``, or ``None`` (default — read
        :envvar:`REPRO_BACKEND`, else scalar).  Results are
        bit-identical across backends.  ``"vectorized"`` raises
        :class:`~repro.exceptions.ConfigurationError` for runs the
        vectorized engine cannot take (platoons, IDM followers, ...);
        ``"auto"`` runs those on the scalar engine instead.
    sweep:
        Options for ``mode="sweep"``, forwarded to
        :func:`repro.simulation.sweep.run_sweep` (``metric``,
        ``target_ci``, ``min_runs``, ``max_runs``, ``round_size``,
        ``schedule``, ``base_seed``, ``confidence``).  ``cells`` may
        name an explicit grid of
        :class:`~repro.simulation.sweep.SweepCell`; without it the
        sweep runs a single cell built from the scenario and the
        ``attack_enabled`` / ``defended`` toggles.  ``workers`` /
        ``cache`` / ``backend`` come from the facade arguments, not
        the dict.
    """
    scenario = _resolve_scenario(scenario_or_spec)
    workers = validate_workers(workers)
    backend = resolve_backend(backend)

    if defense is not None:
        from dataclasses import replace as _replace

        from repro.simulation.scenario import DEFENSE_STRATEGIES

        if isinstance(scenario, PlatoonScenario):
            raise ConfigurationError(
                "defense= does not apply to platoon scenarios; configure "
                "the platoon's defense on the scenario itself"
            )
        if defense not in DEFENSE_STRATEGIES:
            raise ConfigurationError(
                f"defense must be one of {', '.join(DEFENSE_STRATEGIES)}; "
                f"got {defense!r}"
            )
        scenario = scenario.with_overrides(
            defense=_replace(scenario.defense, strategy=defense)
        )

    if isinstance(scenario, PlatoonScenario) and mode == "single":
        mode = "platoon"
    if mode not in _MODES:
        raise ConfigurationError(
            f"mode must be one of {', '.join(_MODES)}; got {mode!r}"
        )
    if isinstance(scenario, PlatoonScenario) != (mode == "platoon"):
        raise ConfigurationError(
            f"mode {mode!r} does not fit scenario type "
            f"{type(scenario).__name__}"
        )
    if mode == "platoon" and backend == "vectorized":
        raise ConfigurationError(
            "backend='vectorized' cannot run platoon scenarios (the "
            "N-follower chain couples its runs); use backend='scalar' "
            "or 'auto'"
        )
    if sweep is not None and mode != "sweep":
        raise ConfigurationError(
            f"the sweep= argument only applies to mode='sweep' (got "
            f"mode={mode!r})"
        )

    # PlatoonScenario has no name field; fall back to the type name.
    label = getattr(scenario, "name", type(scenario).__name__)
    with _telemetry.span("facade.run", mode=mode, scenario=label):
        if mode == "single":
            if _cache_active(cache) or backend == "vectorized":
                (result,) = _batch.run_many(
                    [
                        _batch.RunSpec(
                            scenario,
                            attack_enabled=attack_enabled,
                            defended=defended,
                            tag=scenario.name,
                        )
                    ],
                    cache=cache if _cache_active(cache) else None,
                    backend=backend,
                )
                return result
            # "auto" keeps a lone run on the scalar engine (a vector
            # group of one has no lock-step win), so the scalar path
            # handles both "scalar" and "auto".
            return CarFollowingSimulation(
                scenario, attack_enabled=attack_enabled, defended=defended
            ).run()
        if mode == "figure":
            # The triple shares the scenario's sensor seed so noise
            # aligns across the overlay.  Its runs differ in their
            # toggles, so "auto" keeps them scalar while "vectorized"
            # runs each as its own group.
            baseline, attacked, defended_run = _batch.run_many(
                [
                    _batch.RunSpec(
                        scenario, attack_enabled=False, defended=False, tag="baseline"
                    ),
                    _batch.RunSpec(
                        scenario, attack_enabled=True, defended=False, tag="attacked"
                    ),
                    _batch.RunSpec(
                        scenario, attack_enabled=True, defended=True, tag="defended"
                    ),
                ],
                workers=workers,
                cache=cache if _cache_active(cache) else None,
                backend=backend,
            )
            return FigureData(
                scenario=scenario,
                baseline=baseline,
                attacked=attacked,
                defended=defended_run,
            )
        if mode == "monte_carlo":
            if seeds is None:
                raise ConfigurationError("mode='monte_carlo' requires seeds")
            if isinstance(seeds, int):
                seeds = _batch.derive_seeds(scenario.sensor_seed, seeds)
            return _monte_carlo.run_monte_carlo(
                scenario,
                seeds,
                attack_enabled=attack_enabled,
                defended=defended,
                workers=workers,
                cache=cache if _cache_active(cache) else None,
                backend=backend,
            )
        if mode == "sweep":
            options = dict(sweep or {})
            for reserved in ("workers", "cache", "backend"):
                if reserved in options:
                    raise ConfigurationError(
                        f"pass {reserved}= as a run() argument, not inside "
                        f"the sweep dict"
                    )
            cells = options.pop("cells", None)
            if cells is None:
                cells = [
                    SweepCell(
                        key=label,
                        scenario=scenario,
                        attack_enabled=attack_enabled,
                        defended=defended,
                    )
                ]
            return _sweep.run_sweep(
                cells,
                workers=workers,
                cache=cache if _cache_active(cache) else None,
                backend=backend,
                **options,
            )
        return PlatoonSimulation(scenario, attack_enabled=attack_enabled).run()

