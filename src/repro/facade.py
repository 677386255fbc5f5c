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
Every mode hands its runs, with ``workers`` / ``cache`` / ``backend``
untouched, to :func:`~repro.simulation.batch.execute_batch`, the one
place that validates those knobs, binds the run store and picks the
engine.  ``workers`` fans independent runs out over a process pool;
the batch clamps it to its run count, so a single run stays
in-process.  Results are bit-identical to ``workers=1``.

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
from repro.simulation.monte_carlo import MonteCarloSummary
from repro.simulation.platoon import PlatoonResult, PlatoonScenario
from repro.simulation.results import FigureData, SimulationResult
from repro.simulation.scenario import Scenario
from repro.simulation.sweep import SweepCell, SweepResult

__all__ = ["run"]

_MODES = ("single", "figure", "monte_carlo", "platoon", "sweep")

#: ``(tag, attack_enabled, defended)`` of the runs a figure overlays.
#: They share the scenario's sensor seed so noise aligns across the
#: overlay.  The baseline and attacked runs are identical until the
#: attack starts, so the scalar engine runs that prefix once and
#: branches the attacked run from it; the defended run shares no prefix
#: with them.  Their toggles differ, so ``"auto"`` keeps them scalar
#: while ``"vectorized"`` runs each as its own group.
_FIGURE_TRIPLE = (
    ("baseline", False, False),
    ("attacked", True, False),
    ("defended", True, True),
)


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
        Process count, passed to the batch, which clamps it to the
        number of runs (so ``"single"`` and ``"platoon"`` always run
        in-process); results are identical to ``workers=1``.
    seeds:
        Monte-Carlo seeds for ``mode="monte_carlo"`` (any other mode
        rejects them): an explicit non-empty sequence, or an ``int``
        N >= 1 to derive N seeds deterministically from the scenario's
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

    A bad argument raises :class:`~repro.exceptions.ConfigurationError`
    before any run starts.  A failed run raises the batch's
    :class:`~repro.exceptions.SimulationError` (``"1/1 batch runs
    failed; … ExcType: message"``) in every mode.
    """
    scenario = _resolve_scenario(scenario_or_spec)

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
    for name, value, owner in (
        ("sweep", sweep, "sweep"),
        ("seeds", seeds, "monte_carlo"),
    ):
        if value is not None and mode != owner:
            raise ConfigurationError(
                f"the {name}= argument only applies to mode={owner!r} "
                f"(got mode={mode!r})"
            )

    # PlatoonScenario has no name field; fall back to the type name.
    label = getattr(scenario, "name", type(scenario).__name__)
    with _telemetry.span("facade.run", mode=mode, scenario=label):
        if mode in ("single", "platoon", "figure"):
            toggles = (
                _FIGURE_TRIPLE
                if mode == "figure"
                else ((label, attack_enabled, defended),)
            )
            results = _batch.run_many(
                [
                    _batch.RunSpec(scenario, attack_enabled=a, defended=d, tag=tag)
                    for tag, a, d in toggles
                ],
                workers=workers,
                cache=cache,
                backend=backend,
            )
            return FigureData(scenario, *results) if mode == "figure" else results[0]
        if mode == "monte_carlo":
            if seeds is None:
                raise ConfigurationError("mode='monte_carlo' requires seeds")
            if isinstance(seeds, int):
                seeds = _batch.derive_seeds(scenario.sensor_seed, seeds)
            seeds = list(seeds)
            if not seeds:
                raise ConfigurationError(
                    "seeds must name at least one seed (a count >= 1 or a "
                    "non-empty sequence)"
                )
            return _monte_carlo.run_monte_carlo(
                scenario,
                seeds,
                attack_enabled=attack_enabled,
                defended=defended,
                workers=workers,
                cache=cache,
                backend=backend,
            )
        # mode == "sweep"
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
            cache=cache,
            backend=backend,
            **options,
        )
