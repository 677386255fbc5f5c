"""Live markdown report generation.

Builds a paper-vs-measured markdown report by actually running the four
figure scenarios (plus optional seed sweeps) — the programmatic version
of EXPERIMENTS.md's headline tables, used by ``python -m repro report
--markdown`` and by downstream users who want a regeneratable artifact
checked into their own CI.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from repro import telemetry as _telemetry
from repro.analysis.metrics import detection_confusion

__all__ = ["build_report", "figure_panel_rows"]


def figure_panel_rows(
    workers: int = 1, cache: Any = "off", backend: Optional[str] = None
) -> List[dict]:
    """The paper-vs-measured row of each figure panel, in panel order.

    Runs the (baseline, attacked, defended) triple of every panel in
    :data:`~repro.simulation.scenario.PANELS` and reports detection
    time, false positives / negatives and the attacked and defended
    minimum gaps.  ``workers`` / ``cache`` / ``backend`` pass through to
    :func:`repro.run` untouched; the rows are identical for every value.
    Both ``repro report`` tables (the CLI summary and
    :func:`build_report`'s "Figure panels" section) are these rows.
    """
    # Imported lazily: analysis is a dependency of simulation, so a
    # module-level import here would be circular.
    from repro.facade import run
    from repro.simulation.scenario import PANELS, panel_scenario

    rows = []
    for panel in PANELS:
        scenario = panel_scenario(panel)
        with _telemetry.span("report.panel", panel=panel):
            data = run(
                scenario, mode="figure", workers=workers, cache=cache, backend=backend
            )
        confusion = detection_confusion(
            data.defended.detection_events, scenario.attack
        )
        rows.append(
            {
                "panel": panel,
                "detection_s": data.detection_time(),
                "FP": confusion.false_positives,
                "FN": confusion.false_negatives,
                "attacked_min_gap_m": round(data.attacked.min_gap(), 1),
                "attacked_collided": data.attacked.collided,
                "defended_min_gap_m": round(data.defended.min_gap(), 1),
                "defended_collided": data.defended.collided,
            }
        )
    return rows


def _markdown_table(rows: List[dict]) -> str:
    if not rows:
        return "(no rows)"
    columns = list(rows[0].keys())
    lines = [
        "| " + " | ".join(columns) + " |",
        "|" + "|".join("---" for _ in columns) + "|",
    ]
    for row in rows:
        cells = []
        for column in columns:
            value = row.get(column)
            if value is None:
                cells.append("-")
            elif isinstance(value, bool):
                cells.append("yes" if value else "no")
            elif isinstance(value, float):
                cells.append(f"{value:.2f}")
            else:
                cells.append(str(value))
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines)


def build_report(
    seeds: Optional[Sequence[int]] = None,
    workers: int = 1,
    cache: Any = "off",
    backend: Optional[str] = None,
) -> str:
    """Run the figure panels and return a markdown report.

    Parameters
    ----------
    seeds:
        Optional extra sensor seeds for a robustness section; omit to
        report only the default-seed panel runs (fast).
    workers:
        Worker processes for the independent runs within each panel
        triple and seed sweep (serial by default; output identical).
    cache:
        Run-store policy (``"off"`` / ``"readonly"`` / ``"readwrite"``
        or an explicit :class:`repro.store.RunStore`): with a warm
        store every panel run replays from disk and the report text is
        byte-identical to a cold build — see
        ``benchmarks/bench_cache_speedup.py`` for the measured win.
    backend:
        Engine selection (``"scalar"`` / ``"vectorized"`` / ``"auto"``
        or ``None`` for the :envvar:`REPRO_BACKEND` default), passed
        through to every panel triple and seed sweep; the report text
        is byte-identical across backends.
    """
    from repro.simulation.monte_carlo import run_monte_carlo
    from repro.simulation.scenario import panel_scenario

    sections: List[str] = [
        "# Reproduction report",
        "",
        "Regenerated by `repro.analysis.report.build_report()`.",
        "Paper claims: both attacks detected at k = 182 s, zero false",
        "positives / false negatives, and safe recovery under RLS",
        "estimation.",
        "",
        "## Figure panels",
        "",
    ]

    panel_rows = figure_panel_rows(workers=workers, cache=cache, backend=backend)
    sections.append(_markdown_table(panel_rows))

    sections.extend(
        [
            "",
            "## Defense comparison",
            "",
            "Every defense strategy on the Figure 2a DoS scenario",
            "(see `docs/defenses.md`): the paper's RLS substitution, the",
            "dead-reckoning variant, secure state reconstruction, and the",
            "control-barrier safety filter — including the filter with the",
            "challenge schedule emptied, i.e. detection never fires.",
            "",
        ]
    )
    from repro.analysis.defense_comparison import compare_defenses

    with _telemetry.span("report.defense_comparison", panel="fig2a"):
        defense_rows = compare_defenses(
            panel_scenario("fig2a"),
            workers=workers,
            cache=cache,
            backend=backend,
        )
    sections.append(_markdown_table(defense_rows))

    if seeds:
        sections.extend(["", "## Seed robustness", ""])
        seed_rows = []
        for identifier in ("fig2a", "fig2b"):
            scenario = panel_scenario(identifier)
            with _telemetry.span("report.seed_sweep", panel=identifier):
                summary = run_monte_carlo(
                    scenario,
                    seeds=seeds,
                    defended=True,
                    workers=workers,
                    cache=cache,
                    backend=backend,
                )
            seed_rows.append(summary.as_row(f"{identifier} defended"))
        sections.append(_markdown_table(seed_rows))

    sections.append("")
    return "\n".join(sections)
