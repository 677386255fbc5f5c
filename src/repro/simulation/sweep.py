"""Adaptive variance-aware Monte-Carlo sweeps over scenario grids.

A fixed seed grid spends the same budget on every cell: the easy cell
whose detection rate is pinned at 1.0 after eight seeds gets the same
64 runs as the borderline cell that genuinely needs them.
:func:`run_sweep` replaces the fixed grid with a scheduler that

* starts every cell with ``min_runs`` seeds,
* **early-stops** cells whose confidence-interval halfwidth on the
  target metric has reached ``target_ci``, and
* allocates each further round's seeds **proportionally to the
  cells' sample variance** — the budget flows to where the estimate
  is still uncertain.

Determinism is preserved end to end: cell seed lists come from
:func:`~repro.simulation.batch.derive_seeds` (one sub-stream per cell,
spawned from ``base_seed``), and the adaptive schedule only ever
consumes a *prefix* of each cell's seed list — so an adaptive cell's
outcomes are literally the first ``n`` outcomes of the fixed-grid run
of the same cell, and every executed run is fingerprinted and served
from the run store on re-execution (``cache=`` has the usual
:mod:`repro.store.cache` semantics; pool workers store the runs they
compute, and a ``RunStore(path, shards=N)`` directory store spreads
those writes over N files).

The driver fans each round out through
:func:`~repro.simulation.batch.execute_batch` (``workers=`` /
``backend=`` keep their meanings) with the
:data:`~repro.simulation.monte_carlo._seed_outcome` reducer, so only
small :class:`~repro.simulation.monte_carlo.SeedOutcome` records
travel between processes.  That reducer reads only a run's
:class:`~repro.simulation.results.ResultSummary`, so a replayed run
costs one summary read from the store, not a payload decode.

With an active :mod:`repro.telemetry` session the scheduler emits one
``sweep.round`` span per round plus ``sweep.rounds`` /
``sweep.executed_runs`` / ``sweep.early_stops`` counters — the
decisions are observable, not folkloric.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro import telemetry as _telemetry
from repro.exceptions import ConfigurationError
from repro.simulation.batch import RunSpec, derive_seeds, execute_batch
from repro.simulation.monte_carlo import SeedOutcome, _seed_outcome
from repro.simulation.scenario import Scenario

__all__ = [
    "SweepCell",
    "CellResult",
    "SweepResult",
    "run_sweep",
    "SWEEP_METRICS",
    "SWEEP_SCHEDULES",
]

#: A per-run metric: maps one :class:`SeedOutcome` to a float.
MetricFn = Callable[[SeedOutcome], float]

#: Named metrics accepted by ``metric=`` (a callable is also fine).
SWEEP_METRICS: Dict[str, MetricFn] = {
    # Detected-or-not indicator; its mean is the cell's detection rate.
    "detection_rate": lambda o: 1.0 if o.detection_time is not None else 0.0,
    # Closest approach of the run; its mean is the expected safety margin.
    "min_gap": lambda o: float(o.min_gap),
    # Collision indicator; its mean is the cell's collision rate.
    "collision_rate": lambda o: 1.0 if o.collided else 0.0,
}

#: Accepted values of the ``schedule=`` knob.
SWEEP_SCHEDULES = ("adaptive", "fixed")

#: Variance floor used when weighting allocation — keeps a round's
#: weights well-defined when every active cell currently measures zero
#: sample variance (the budget then spreads uniformly).
_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class SweepCell:
    """One grid cell: a scenario configuration to estimate a metric on.

    ``key`` labels the cell in results, telemetry, and per-cell
    ``target_ci`` mappings; the scenario's ``sensor_seed`` is
    irrelevant (the sweep overrides it per run).
    """

    key: str
    scenario: Scenario
    attack_enabled: bool = True
    defended: bool = True


@dataclass(frozen=True)
class CellResult:
    """Converged (or budget-capped) estimate for one cell."""

    key: str
    runs: int
    mean: float
    std: float
    ci_halfwidth: float
    converged: bool
    outcomes: Tuple[SeedOutcome, ...]
    values: Tuple[float, ...]

    def as_dict(self) -> dict:
        return {
            "cell": self.key,
            "runs": self.runs,
            "mean": self.mean,
            "std": self.std,
            "ci_halfwidth": self.ci_halfwidth,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class SweepResult:
    """All cell estimates plus what the schedule cost to reach them.

    ``fixed_grid_runs`` is the budget the equivalent fixed grid would
    have spent (``len(cells) * max_runs``); ``runs_saved`` is how much
    of it the adaptive schedule left unspent.
    """

    cells: Tuple[CellResult, ...]
    metric: str
    schedule: str
    rounds: int
    executed_runs: int
    fixed_grid_runs: int
    elapsed: float

    @property
    def runs_saved(self) -> int:
        return self.fixed_grid_runs - self.executed_runs

    @property
    def savings_fraction(self) -> float:
        if self.fixed_grid_runs == 0:
            return 0.0
        return self.runs_saved / self.fixed_grid_runs

    def cell(self, key: str) -> CellResult:
        for cell in self.cells:
            if cell.key == key:
                return cell
        raise KeyError(key)

    def as_rows(self) -> List[dict]:
        """Rows for :func:`repro.analysis.tables.render_table`."""
        return [
            {
                "cell": cell.key,
                "runs": cell.runs,
                "mean": round(cell.mean, 4),
                "ci_halfwidth": round(cell.ci_halfwidth, 4),
                "converged": cell.converged,
            }
            for cell in self.cells
        ]

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "schedule": self.schedule,
            "rounds": self.rounds,
            "executed_runs": self.executed_runs,
            "fixed_grid_runs": self.fixed_grid_runs,
            "runs_saved": self.runs_saved,
            "elapsed": self.elapsed,
            "cells": [cell.as_dict() for cell in self.cells],
        }


class _CellState:
    """Mutable per-cell scheduler bookkeeping during one sweep."""

    __slots__ = ("cell", "seeds", "target", "outcomes", "values")

    def __init__(self, cell: SweepCell, seeds: Tuple[int, ...], target: float):
        self.cell = cell
        self.seeds = seeds
        self.target = target
        self.outcomes: List[SeedOutcome] = []
        self.values: List[float] = []

    @property
    def n(self) -> int:
        return len(self.values)

    def variance(self) -> float:
        if self.n < 2:
            return float("inf")
        mean = sum(self.values) / self.n
        return sum((v - mean) ** 2 for v in self.values) / (self.n - 1)

    def halfwidth(self, z: float) -> float:
        variance = self.variance()
        if not math.isfinite(variance):
            return float("inf")
        return z * math.sqrt(variance / self.n)

    def converged(self, z: float) -> bool:
        return self.halfwidth(z) <= self.target


def _resolve_metric(metric: Union[str, MetricFn]) -> Tuple[str, MetricFn]:
    if callable(metric):
        return getattr(metric, "__name__", "custom"), metric
    if metric in SWEEP_METRICS:
        return metric, SWEEP_METRICS[metric]
    raise ConfigurationError(
        f"metric must be one of {', '.join(sorted(SWEEP_METRICS))} or a "
        f"callable SeedOutcome -> float; got {metric!r}"
    )


def _resolve_targets(
    target_ci: Union[float, Mapping[str, float]],
    cells: Sequence[SweepCell],
) -> Dict[str, float]:
    if isinstance(target_ci, Mapping):
        missing = [cell.key for cell in cells if cell.key not in target_ci]
        if missing:
            raise ConfigurationError(
                f"target_ci mapping is missing cells: {', '.join(missing)}"
            )
        targets = {cell.key: float(target_ci[cell.key]) for cell in cells}
    else:
        targets = {cell.key: float(target_ci) for cell in cells}
    for key, value in targets.items():
        if not value > 0:
            raise ConfigurationError(
                f"target_ci must be > 0, got {value} for cell {key!r}"
            )
    return targets


def _validate_cells(cells: Sequence[SweepCell]) -> List[SweepCell]:
    cells = list(cells)
    if not cells:
        raise ConfigurationError("at least one sweep cell is required")
    seen: set = set()
    for cell in cells:
        if not isinstance(cell, SweepCell):
            raise ConfigurationError(
                f"cells must be SweepCell instances, got {type(cell).__name__}"
            )
        if not isinstance(cell.scenario, Scenario):
            raise ConfigurationError(
                f"cell {cell.key!r}: sweeps drive two-vehicle Scenario "
                f"configurations (got {type(cell.scenario).__name__})"
            )
        if cell.key in seen:
            raise ConfigurationError(f"duplicate cell key {cell.key!r}")
        seen.add(cell.key)
    return cells


def _allocate(
    active: Sequence[_CellState], budget: int, max_runs: int
) -> Dict[str, int]:
    """Split a round's run budget across active cells by variance.

    Largest-remainder apportionment over variance weights (floored at
    :data:`_VARIANCE_FLOOR` so an all-zero-variance round degrades to a
    uniform split), clamped to each cell's remaining headroom.  Always
    allocates at least one run overall so a round cannot stall.
    """
    headroom = {state.cell.key: max_runs - state.n for state in active}
    weights = {}
    for state in active:
        variance = state.variance()
        if not math.isfinite(variance):
            variance = 1.0  # un-measured cells compete at unit weight
        weights[state.cell.key] = max(variance, _VARIANCE_FLOOR)
    total_weight = sum(weights.values())
    shares = {
        key: budget * weight / total_weight for key, weight in weights.items()
    }
    allocation = {key: min(int(share), headroom[key]) for key, share in shares.items()}
    remainder = budget - sum(allocation.values())
    # Hand leftover runs to the cells with the largest fractional share
    # (then the highest weight) that still have headroom.
    by_remainder = sorted(
        shares,
        key=lambda key: (shares[key] - int(shares[key]), weights[key]),
        reverse=True,
    )
    while remainder > 0:
        progressed = False
        for key in by_remainder:
            if remainder == 0:
                break
            if allocation[key] < headroom[key]:
                allocation[key] += 1
                remainder -= 1
                progressed = True
        if not progressed:
            break  # every active cell is at max_runs
    if all(count == 0 for count in allocation.values()):
        first = max(by_remainder, key=lambda key: headroom[key])
        if headroom[first] > 0:
            allocation[first] = 1
    return {key: count for key, count in allocation.items() if count > 0}


def _execute_round(
    states: Sequence[_CellState],
    allocation: Mapping[str, int],
    metric_fn: MetricFn,
    *,
    workers: int,
    cache: Any,
    backend: Optional[str],
) -> int:
    """Run one round's allocated seeds through the batch engine."""
    by_key = {state.cell.key: state for state in states}
    specs: List[RunSpec] = []
    owners: List[_CellState] = []
    for key, count in allocation.items():
        state = by_key[key]
        for seed in state.seeds[state.n : state.n + count]:
            specs.append(
                RunSpec(
                    scenario=state.cell.scenario.with_overrides(
                        sensor_seed=int(seed)
                    ),
                    attack_enabled=state.cell.attack_enabled,
                    defended=state.cell.defended,
                    tag=f"{key}:{seed}",
                )
            )
            owners.append(state)
    result = execute_batch(
        specs,
        workers=workers,
        postprocess=_seed_outcome,
        cache=cache,
        backend=backend,
    ).raise_on_error()
    for state, record in zip(owners, result.records):
        outcome = record.payload
        state.outcomes.append(outcome)
        state.values.append(float(metric_fn(outcome)))
    return len(specs)


def run_sweep(
    cells: Sequence[SweepCell],
    *,
    metric: Union[str, MetricFn] = "detection_rate",
    base_seed: int = 2017,
    target_ci: Union[float, Mapping[str, float]] = 0.1,
    confidence: float = 0.95,
    min_runs: int = 8,
    max_runs: int = 64,
    round_size: int = 8,
    schedule: str = "adaptive",
    workers: int = 1,
    cache: Any = None,
    backend: Optional[str] = None,
) -> SweepResult:
    """Estimate a metric over a scenario grid with adaptive seed budgets.

    Parameters
    ----------
    cells:
        The grid: unique-keyed :class:`SweepCell` configurations.
    metric:
        Named per-run metric (one of :data:`SWEEP_METRICS`) or a
        callable ``SeedOutcome -> float``; the sweep estimates its
        per-cell mean.  Callables run parent-side.
    base_seed:
        Root of the deterministic seed tree: cell ``i`` draws its runs
        from ``derive_seeds(derive_seeds(base_seed, n_cells)[i],
        max_runs)``, so results are a pure function of
        ``(cells, base_seed, max_runs)`` regardless of scheduling.
    target_ci:
        Convergence threshold on the CI halfwidth — one float for all
        cells or a mapping ``cell key -> halfwidth`` (every cell must
        be present).
    confidence:
        Confidence level of the interval (default 95%); the halfwidth
        is ``z * sqrt(variance / n)`` with the matching normal z-score.
    min_runs:
        Seeds every cell executes before any convergence decision
        (at least 2 — a variance needs that many points).
    max_runs:
        Per-cell budget cap; also the per-cell size of the fixed grid
        the sweep is compared against.
    round_size:
        Runs allocated per adaptive round across all still-active
        cells.
    schedule:
        ``"adaptive"`` (variance-weighted allocation + early stop) or
        ``"fixed"`` (every cell runs exactly ``max_runs``; one round).
    workers / cache / backend:
        Passed through to :func:`~repro.simulation.batch.execute_batch`
        each round.  A readwrite cache makes rerun sweeps pure replay
        (every run keyed by fingerprint).

    Returns a :class:`SweepResult`; per-cell outcomes are in seed-list
    order, so an adaptive cell's ``outcomes`` is a prefix of the fixed
    grid's for the same cell.
    """
    cells = _validate_cells(cells)
    metric_name, metric_fn = _resolve_metric(metric)
    targets = _resolve_targets(target_ci, cells)
    if schedule not in SWEEP_SCHEDULES:
        raise ConfigurationError(
            f"schedule must be one of {', '.join(SWEEP_SCHEDULES)}; "
            f"got {schedule!r}"
        )
    if not isinstance(min_runs, int) or min_runs < 2:
        raise ConfigurationError(f"min_runs must be an integer >= 2, got {min_runs!r}")
    if not isinstance(max_runs, int) or max_runs < min_runs:
        raise ConfigurationError(
            f"max_runs must be an integer >= min_runs ({min_runs}), got {max_runs!r}"
        )
    if not isinstance(round_size, int) or round_size < 1:
        raise ConfigurationError(
            f"round_size must be an integer >= 1, got {round_size!r}"
        )
    if not 0.0 < confidence < 1.0:
        raise ConfigurationError(
            f"confidence must be strictly between 0 and 1, got {confidence!r}"
        )
    z = statistics.NormalDist().inv_cdf((1.0 + confidence) / 2.0)

    cell_bases = derive_seeds(base_seed, len(cells))
    states = [
        _CellState(cell, derive_seeds(cell_bases[i], max_runs), targets[cell.key])
        for i, cell in enumerate(cells)
    ]

    start = time.perf_counter()
    rounds = 0
    executed = 0

    def run_round(allocation: Mapping[str, int]) -> None:
        nonlocal rounds, executed
        rounds += 1
        with _telemetry.span(
            "sweep.round",
            round=rounds,
            cells=len(allocation),
            runs=sum(allocation.values()),
        ):
            executed += _execute_round(
                states,
                allocation,
                metric_fn,
                workers=workers,
                cache=cache,
                backend=backend,
            )

    if schedule == "fixed":
        run_round({state.cell.key: max_runs for state in states})
    else:
        run_round({state.cell.key: min_runs for state in states})
        while True:
            active = [
                state
                for state in states
                if state.n < max_runs and not state.converged(z)
            ]
            if not active:
                break
            allocation = _allocate(active, round_size, max_runs)
            if not allocation:
                break
            run_round(allocation)
        early_stops = sum(
            1 for state in states if state.n < max_runs and state.converged(z)
        )
        if early_stops:
            _telemetry.incr("sweep.early_stops", early_stops)

    _telemetry.incr("sweep.rounds", rounds)
    _telemetry.incr("sweep.executed_runs", executed)

    results = []
    for state in states:
        variance = state.variance()
        results.append(
            CellResult(
                key=state.cell.key,
                runs=state.n,
                mean=sum(state.values) / state.n,
                std=math.sqrt(variance) if math.isfinite(variance) else 0.0,
                ci_halfwidth=state.halfwidth(z),
                converged=state.converged(z),
                outcomes=tuple(state.outcomes),
                values=tuple(state.values),
            )
        )
    return SweepResult(
        cells=tuple(results),
        metric=metric_name,
        schedule=schedule,
        rounds=rounds,
        executed_runs=executed,
        fixed_grid_runs=len(cells) * max_runs,
        elapsed=time.perf_counter() - start,
    )
