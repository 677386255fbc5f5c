"""Monte-Carlo evaluation over sensor-noise seeds.

The paper's evaluation is single-run; robustness statements about a
stochastic defense need distributions.  This module runs a scenario
configuration over many seeds and aggregates the safety and detection
metrics — the utility behind the seed-robustness claims in
EXPERIMENTS.md.

Runs are independent, so the sweep fans out through
:mod:`repro.simulation.batch`: ``run_monte_carlo(..., workers=4)``
distributes the seeds over a process pool and returns results
bit-identical to the serial path (each run is fully determined by its
seeded scenario, not by scheduling).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.analysis.metrics import detection_latency
from repro.simulation.batch import RunSpec, SummaryReducer, run_many
from repro.simulation.results import ResultSummary
from repro.simulation.scenario import Scenario

__all__ = ["SeedOutcome", "MonteCarloSummary", "run_monte_carlo"]


@dataclass(frozen=True)
class SeedOutcome:
    """Metrics of one seeded run."""

    seed: int
    min_gap: float
    collided: bool
    detection_time: Optional[float]
    detection_latency: Optional[float]


@dataclass(frozen=True)
class MonteCarloSummary:
    """Aggregate over all seeded runs.

    ``detection_rate`` counts runs whose attack (if any) was detected;
    it is ``None`` for attack-free configurations (``attacked=False``),
    where "fraction of attacks detected" is undefined.
    """

    outcomes: Sequence[SeedOutcome]
    attacked: bool = True

    @property
    def n_runs(self) -> int:
        return len(self.outcomes)

    @property
    def collision_count(self) -> int:
        return sum(outcome.collided for outcome in self.outcomes)

    @property
    def worst_min_gap(self) -> float:
        return min(outcome.min_gap for outcome in self.outcomes)

    @property
    def mean_min_gap(self) -> float:
        return float(np.mean([outcome.min_gap for outcome in self.outcomes]))

    @property
    def detection_rate(self) -> Optional[float]:
        if not self.attacked:
            return None
        detected = [o.detection_time is not None for o in self.outcomes]
        if not detected:
            return None
        return sum(detected) / len(detected)

    @property
    def detection_times(self) -> List[float]:
        return [
            o.detection_time for o in self.outcomes if o.detection_time is not None
        ]

    @property
    def median_detection_time(self) -> Optional[float]:
        """Median detection instant over detected runs (None when none)."""
        times = self.detection_times
        return float(np.median(times)) if times else None

    def as_dict(self) -> dict:
        """Lossless JSON-compatible serialization of the aggregate.

        Every value is exactly the corresponding property — no rounding,
        so report JSON, ``sweep run --json`` and the service stats agree
        bit-for-bit with in-process values.  Rounding, when wanted, is
        the renderer's job (:func:`repro.analysis.tables.render_table`
        and the report's markdown table format floats at display time).
        """
        return {
            "runs": self.n_runs,
            "attacked": self.attacked,
            "collisions": self.collision_count,
            "worst_min_gap_m": self.worst_min_gap,
            "mean_min_gap_m": self.mean_min_gap,
            "detection_rate": self.detection_rate,
            "median_detection_time_s": self.median_detection_time,
        }

    def as_row(self, label: str) -> dict:
        """Flat dict for :func:`repro.analysis.tables.render_table`.

        Attack-free configurations carry ``detection_rate=None``, which
        the table renderer prints as ``-``.  Values are full precision
        (the renderers format floats); keys keep their historical names.
        """
        return {
            "configuration": label,
            "runs": self.n_runs,
            "collisions": self.collision_count,
            "worst_min_gap_m": self.worst_min_gap,
            "mean_min_gap_m": self.mean_min_gap,
            "detection_rate": self.detection_rate,
            "detection_time_s": self.median_detection_time,
        }


def _outcome_of(spec: RunSpec, summary: ResultSummary) -> SeedOutcome:
    scenario = spec.scenario
    attack = scenario.attack if spec.attack_enabled else None
    latency = (
        detection_latency(summary, attack)
        if attack is not None and summary.detection_times
        else None
    )
    return SeedOutcome(
        seed=scenario.sensor_seed,
        min_gap=summary.min_gap,
        collided=summary.collided,
        detection_time=summary.first_detection_time,
        detection_latency=latency,
    )


#: Reduce one run to its seed outcome.  It reads only the run's
#: :class:`ResultSummary`: a computed run is reduced where it ran (in the
#: pool worker, so only the small outcome crosses the process boundary),
#: and a cache hit reads the row's stored summary without decoding the
#: trace payload (see :class:`~repro.simulation.batch.SummaryReducer`).
_seed_outcome = SummaryReducer(_outcome_of)


def run_monte_carlo(
    scenario: Scenario,
    seeds: Sequence[int],
    attack_enabled: bool = True,
    defended: bool = True,
    workers: int = 1,
    cache: Any = None,
    backend: Optional[str] = None,
) -> MonteCarloSummary:
    """Run ``scenario`` once per seed and aggregate the outcomes.

    Only the sensor seed varies between runs; everything else (attack
    timing, challenge schedule, defense configuration) is held fixed.
    ``workers`` fans the independent runs out over a process pool
    (serial when 1); the aggregated outcomes are identical either way.
    ``cache`` selects the run-store policy (see
    :func:`repro.simulation.batch.execute_batch`) — previously stored
    seeds replay from the store instead of simulating, yielding the
    same :class:`SeedOutcome` values bit-for-bit.  ``backend`` selects
    the engine; a seed sweep is exactly the homogeneous batch the
    vectorized engine advances in lock-step, so ``"auto"`` and
    ``"vectorized"`` run the whole sweep in one numpy pass per step
    with bit-identical outcomes.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("at least one seed is required")
    specs = [
        RunSpec(
            scenario=scenario.with_overrides(sensor_seed=int(seed)),
            attack_enabled=attack_enabled,
            defended=defended,
            tag=str(int(seed)),
        )
        for seed in seeds
    ]
    outcomes = run_many(
        specs,
        workers=workers,
        postprocess=_seed_outcome,
        cache=cache,
        backend=backend,
    )
    return MonteCarloSummary(
        outcomes=tuple(outcomes),
        attacked=attack_enabled and scenario.attack is not None,
    )
