"""Head-to-head comparison of the defense strategies on one scenario.

Shared by the markdown report's "Defense comparison" panel and
``benchmarks/bench_defense_comparison.py`` so both always agree on what
was run.  For a given attack scenario the comparison executes:

* ``undefended`` — raw sensing through the coasting tracker;
* ``rls`` — the paper's CRA + per-channel RLS substitution;
* ``dead_reckoning`` — CRA + leader-velocity RLS dead reckoning;
* ``secure_reconstruction`` — CRA + sliding-window secure state
  reconstruction (:mod:`repro.defense`);
* ``safety_filter`` — the RLS pipeline plus the control-barrier clamp;
* ``safety_filter (detection off)`` — the clamp alone, with the CRA
  challenge schedule emptied: demonstrates that the actuation-layer
  guarantee does not depend on detection firing at all;
* ``combined`` — secure reconstruction feeding the safety filter.

Rows are plain dicts (markdown-table and JSON friendly), all floats at
full precision — rounding is the renderer's job.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.simulation.scenario import Scenario

__all__ = ["defense_variants", "compare_defenses"]


def defense_variants(
    scenario: Scenario,
) -> List[Tuple[str, Scenario, bool]]:
    """The ``(label, scenario, defended)`` runs the comparison executes."""
    defense = scenario.defense
    return [
        ("undefended", scenario, False),
        ("rls", scenario.with_overrides(
            defense=replace(
                defense, strategy="rls", estimator_kind="per_channel"
            )), True),
        ("dead_reckoning", scenario.with_overrides(
            defense=replace(
                defense, strategy="rls", estimator_kind="dead_reckoning"
            )), True),
        ("secure_reconstruction", scenario.with_overrides(
            defense=replace(defense, strategy="secure_reconstruction")), True),
        ("safety_filter", scenario.with_overrides(
            defense=replace(defense, strategy="safety_filter")), True),
        ("safety_filter (detection off)", scenario.with_overrides(
            challenge_times=(),
            defense=replace(defense, strategy="safety_filter")), True),
        ("combined", scenario.with_overrides(
            defense=replace(defense, strategy="combined")), True),
    ]


def _estimate_error(result) -> Optional[float]:
    """Mean |estimated gap − true gap| over the substituted steps, m."""
    estimated = result.array("estimated_flag") > 0.5
    if not np.any(estimated):
        return None
    error = (
        result.array("safe_distance")[estimated]
        - result.array("true_distance")[estimated]
    )
    return float(np.mean(np.abs(error)))


def compare_defenses(
    scenario: Scenario,
    *,
    workers: int = 1,
    cache: Any = "off",
    backend: Optional[str] = None,
) -> List[dict]:
    """Run every defense variant on ``scenario`` and tabulate the outcome.

    The variants (:func:`defense_variants`, all attacked) execute as one
    :func:`~repro.simulation.batch.run_many` batch, so ``workers`` fans
    them out over a process pool; ``cache`` / ``backend`` follow
    :func:`repro.run`, and the rows are identical for every value.
    ``backend="vectorized"`` is downgraded to ``"auto"``: the stateful
    strategies are scalar-only by design (the blocker names them), so a
    hard vectorized demand could never run the full table.
    """
    from repro.simulation.batch import RunSpec, run_many

    if backend == "vectorized":
        backend = "auto"
    variants = defense_variants(scenario)
    results = run_many(
        [
            RunSpec(variant, attack_enabled=True, defended=defended, tag=label)
            for label, variant, defended in variants
        ],
        workers=workers,
        cache=cache,
        backend=backend,
    )
    rows: List[dict] = []
    for (label, _, _), result in zip(variants, results):
        detection_times = result.detection_times
        stats = result.defense_stats or {}
        rows.append(
            {
                "defense": label,
                "min_gap_m": float(result.min_gap()),
                "collided": result.collided,
                "detection_s": (
                    float(detection_times[0]) if detection_times else None
                ),
                "estimate_error_m": _estimate_error(result),
                # Subset-search observability (secure reconstruction
                # strategies only; None for the others).
                "subsets_searched": stats.get("subsets_searched"),
                "subsets_pruned": stats.get("subsets_pruned"),
            }
        )
    return rows
