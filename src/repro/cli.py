"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Print the experiment registry (every reproduced table/figure and
    the bench that regenerates it).
``run <experiment-id>``
    Run a figure experiment end-to-end and print its summary, detection
    results and an ASCII rendering of the panel.  Non-figure experiment
    ids print the pytest command for their bench instead.
``run-custom <spec.json>``
    Run the (baseline / attacked / defended) triple for a declarative
    scenario spec (see :mod:`repro.simulation.spec`).  Pass ``-`` as
    the path to read the JSON spec from stdin (shell pipelines).
``report``
    Run all four figure panels and print the consolidated
    paper-vs-measured summary; ``--markdown PATH`` writes a live
    markdown report instead (``--seeds N`` adds a robustness section).
``cache``
    Manage the persistent run store (:mod:`repro.store`):
    ``cache stats``, ``cache clear``, ``cache export PATH`` and
    ``cache path``, each accepting ``--store PATH`` to address a
    non-default store — a single ``.sqlite`` file or a store
    directory (auto-detected via its ``shards.json`` manifest).
    ``cache stats --json`` emits the machine-readable form (the same
    serialization the service's ``GET /v1/store/stats`` endpoint
    returns), including the per-file breakdown of a directory store.
    ``cache merge SOURCE --store DEST`` copies every run of one store
    into another (any combination of file and directory layouts;
    replays stay bit-identical).
``serve``
    Run the async simulation service (:mod:`repro.service`): an
    HTTP/JSON frontend over the run store with single-flight
    dedup-coalescing of identical requests.  ``--host`` / ``--port``
    pick the binding (``--port 0`` for an ephemeral port; the bound
    base URL is the first stdout line), ``--workers`` bounds the
    process pool, ``--store`` addresses a non-default store file or
    directory (``--store-shards N`` creates an N-file directory),
    ``--backend`` picks the default engine for executed runs and
    ``--max-jobs N`` bounds the finished-jobs table (oldest evicted;
    eviction counts surface in ``/healthz``).
``sweep``
    Adaptive Monte-Carlo sweeps (:mod:`repro.simulation.sweep`):
    ``sweep run --cells fig2a,fig2b`` estimates a metric over the
    named figure scenarios, early-stopping converged cells and
    allocating seeds where the metric variance is highest; ``--json``
    emits the machine-readable result.
``trace``
    Inspect JSONL telemetry traces (:mod:`repro.telemetry`):
    ``trace summary FILE`` prints the per-stage timing table,
    ``trace export FILE DEST`` writes the aggregate as JSON.

``run`` and ``run-custom`` accept ``--defense
{rls,secure_reconstruction,safety_filter,combined}`` to override the
defense strategy of the defended runs (see :mod:`repro.defense`).

``run``, ``run-custom`` and ``report`` accept ``--workers N`` to fan
their independent runs out over a process pool (see
:mod:`repro.simulation.batch`); output is identical to serial.  They
also accept ``--cache`` / ``--no-cache`` (default: no cache) to serve
previously computed runs from the store and persist new ones —
cached output is byte-identical to uncached — or ``--store-shards N``
to cache through an N-file directory store; either way whoever
computes a run stores it, so pool workers write their own results —
and ``--backend
{auto,scalar,vectorized}`` to pick the simulation engine (default:
the ``REPRO_BACKEND`` environment variable, else scalar; output is
bit-identical across backends) — plus ``--profile`` (print the
per-stage telemetry table after the command output) and ``--trace
PATH`` (write the JSONL telemetry trace to PATH).

Every diagnostic (bad experiment id, unloadable spec, unreadable
trace file) goes to **stderr**, so piped stdout stays machine-readable
even when a command exits non-zero.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis import ascii_plot, detection_confusion, render_table
from repro.analysis.experiments import REGISTRY, experiments_table, get_experiment
from repro.facade import run as run_experiment
from repro.simulation import PANELS, panel_scenario
from repro.simulation.knobs import BACKENDS

__all__ = ["main", "build_parser"]


def _int_at_least(minimum: int):
    """argparse type: an integer of at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)


def _add_defense_arg(parser: argparse.ArgumentParser) -> None:
    """``--defense`` strategy override shared by run / run-custom."""
    from repro.simulation.scenario import DEFENSE_STRATEGIES

    parser.add_argument(
        "--defense",
        choices=DEFENSE_STRATEGIES,
        default=None,
        help="override the scenario's defense strategy for the defended "
        "runs (default: the scenario's configured strategy, usually rls)",
    )


def _add_worker_and_cache_args(parser: argparse.ArgumentParser) -> None:
    """The execution knobs shared by run / run-custom / report."""
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes for the independent runs (default: serial)",
    )
    cache_group = parser.add_mutually_exclusive_group()
    cache_group.add_argument(
        "--cache",
        dest="cache",
        action="store_true",
        default=False,
        help="serve runs from the persistent run store and save new ones "
        "(output is byte-identical to uncached)",
    )
    cache_group.add_argument(
        "--no-cache",
        dest="cache",
        action="store_false",
        help="bypass the run store (default)",
    )
    parser.add_argument(
        "--store-shards",
        dest="store_shards",
        type=_positive_int,
        metavar="N",
        default=None,
        help="cache runs (readwrite) through an N-file directory store "
        "(default location: the runstore-shards directory next to the "
        "single-file store; overrides --cache/--no-cache); as with "
        "--cache, whoever computes a run stores it",
    )
    parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="simulation engine for the runs (default: $REPRO_BACKEND, "
        "else scalar; output is bit-identical across backends)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        default=False,
        help="run with telemetry enabled and print the per-stage "
        "timing table after the command output",
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        metavar="PATH",
        default=None,
        help="write a JSONL telemetry trace of the command to PATH "
        "(inspect it with 'repro trace summary PATH')",
    )


def _cache_mode(args: argparse.Namespace):
    """Resolve the shared cache knobs to a ``cache=`` argument.

    ``--store-shards N`` binds a readwrite N-file directory store (at
    ``--store`` if the command has one, else the default directory
    location); otherwise ``--cache`` maps to ``"readwrite"`` and the
    default is ``"off"``.
    """
    shards = getattr(args, "store_shards", None)
    if shards is not None:
        from repro.store import CacheBinding, RunStore

        return CacheBinding(
            store=RunStore(getattr(args, "store", None), shards=shards),
            mode="readwrite",
            owns_store=True,
        )
    return "readwrite" if getattr(args, "cache", False) else "off"


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Estimation of Safe Sensor Measurements of "
            "Autonomous System Under Attack' (DAC 2017)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("list", help="list all reproduced experiments")

    run_parser = subparsers.add_parser("run", help="run one figure experiment")
    run_parser.add_argument("experiment", help="experiment id (e.g. fig2a)")
    run_parser.add_argument(
        "--seed", type=int, default=2017, help="sensor noise seed"
    )
    run_parser.add_argument(
        "--no-plot", action="store_true", help="skip the ASCII figure"
    )
    _add_defense_arg(run_parser)
    _add_worker_and_cache_args(run_parser)

    custom_parser = subparsers.add_parser(
        "run-custom", help="run a scenario from a JSON spec file"
    )
    custom_parser.add_argument(
        "spec", help="path to the scenario spec JSON ('-' reads stdin)"
    )
    _add_defense_arg(custom_parser)
    _add_worker_and_cache_args(custom_parser)

    report_parser = subparsers.add_parser(
        "report", help="run all figure panels and print the summary"
    )
    report_parser.add_argument(
        "--markdown",
        metavar="PATH",
        default=None,
        help="write a markdown report to PATH instead of printing a table",
    )
    report_parser.add_argument(
        "--seeds",
        type=_int_at_least(0),
        default=0,
        help="extra sensor seeds for a robustness section (markdown only)",
    )
    _add_worker_and_cache_args(report_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or manage the persistent run store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    for name, help_text in (
        ("stats", "print entry and byte counts of the run store"),
        ("clear", "evict every cached run and compact the store"),
        ("export", "write the store inventory (metadata + summaries) as JSON"),
        ("path", "print the store's database path"),
    ):
        sub = cache_sub.add_parser(name, help=help_text)
        sub.add_argument(
            "--store",
            metavar="PATH",
            default=None,
            help="run-store database file or directory (default: "
            "$REPRO_CACHE_DIR or ~/.cache/repro/runstore.sqlite)",
        )
        if name == "export":
            sub.add_argument("dest", help="output JSON path")
        if name == "stats":
            sub.add_argument(
                "--json",
                dest="as_json",
                action="store_true",
                default=False,
                help="emit machine-readable JSON (same serialization as "
                "the service's GET /v1/store/stats)",
            )
    merge_parser = cache_sub.add_parser(
        "merge",
        help="copy every run of SOURCE into the --store destination "
        "(file and directory stores mix freely)",
    )
    merge_parser.add_argument(
        "source", help="source store: a .sqlite file or a store directory"
    )
    merge_parser.add_argument(
        "--store",
        metavar="PATH",
        required=True,
        help="destination store (created if missing)",
    )
    merge_parser.add_argument(
        "--shards",
        type=_positive_int,
        metavar="N",
        default=None,
        help="create the destination as an N-shard store (default: "
        "single-file, or the existing geometry)",
    )

    sweep_parser = subparsers.add_parser(
        "sweep", help="adaptive variance-aware Monte-Carlo sweeps"
    )
    sweep_sub = sweep_parser.add_subparsers(dest="sweep_command", required=True)
    sweep_run = sweep_sub.add_parser(
        "run",
        help="estimate a metric over figure-scenario cells, "
        "early-stopping converged cells",
    )
    sweep_run.add_argument(
        "--cells",
        default="fig2a,fig2b",
        help="comma-separated figure scenario ids "
        f"({', '.join(PANELS)}; default: fig2a,fig2b)",
    )
    sweep_run.add_argument(
        "--metric",
        default="detection_rate",
        help="per-run metric to estimate (detection_rate, min_gap, "
        "collision_rate; default: detection_rate)",
    )
    sweep_run.add_argument(
        "--target-ci",
        dest="target_ci",
        type=float,
        default=0.1,
        help="confidence-interval halfwidth at which a cell stops "
        "(default: 0.1)",
    )
    sweep_run.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level of the interval (default: 0.95)",
    )
    sweep_run.add_argument(
        "--min-runs",
        dest="min_runs",
        type=_positive_int,
        default=8,
        help="seeds every cell runs before convergence checks (default: 8)",
    )
    sweep_run.add_argument(
        "--max-runs",
        dest="max_runs",
        type=_positive_int,
        default=64,
        help="per-cell budget cap / fixed-grid size (default: 64)",
    )
    sweep_run.add_argument(
        "--round-size",
        dest="round_size",
        type=_positive_int,
        default=8,
        help="runs allocated per adaptive round (default: 8)",
    )
    sweep_run.add_argument(
        "--schedule",
        choices=("adaptive", "fixed"),
        default="adaptive",
        help="adaptive (early stop + variance-weighted allocation) or "
        "fixed (every cell runs max-runs)",
    )
    sweep_run.add_argument(
        "--base-seed",
        dest="base_seed",
        type=int,
        default=2017,
        help="root of the deterministic per-cell seed tree (default: 2017)",
    )
    sweep_run.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="override the scenario horizon in seconds (shorter = faster)",
    )
    sweep_run.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="shard directory for --store-shards (default: the "
        "runstore-shards directory next to the single-file store)",
    )
    sweep_run.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        default=False,
        help="emit the machine-readable sweep result",
    )
    _add_worker_and_cache_args(sweep_run)

    serve_parser = subparsers.add_parser(
        "serve", help="run the async simulation service (HTTP/JSON)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8077,
        help="TCP port (0 binds an ephemeral port; the bound base URL "
        "is printed as the first stdout line)",
    )
    serve_parser.add_argument(
        "--workers",
        type=_positive_int,
        default=2,
        help="worker processes executing cache-miss runs (default: 2)",
    )
    serve_parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="run-store database file or directory (default: "
        "$REPRO_CACHE_DIR or ~/.cache/repro/runstore.sqlite)",
    )
    serve_parser.add_argument(
        "--store-shards",
        dest="store_shards",
        type=_positive_int,
        metavar="N",
        default=None,
        help="serve against an N-file directory store (default "
        "location: the runstore-shards directory next to the "
        "single-file store)",
    )
    serve_parser.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="default engine for executed runs (default: $REPRO_BACKEND, "
        "else scalar)",
    )
    serve_parser.add_argument(
        "--max-jobs",
        dest="max_jobs",
        type=_positive_int,
        metavar="N",
        default=None,
        help="retain at most N finished jobs in the jobs table, evicting "
        "the oldest (default: 4096; evictions are counted in /healthz)",
    )

    trace_parser = subparsers.add_parser(
        "trace", help="inspect JSONL telemetry traces"
    )
    trace_sub = trace_parser.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="print the per-stage timing table of a trace"
    )
    trace_summary.add_argument("trace_file", help="JSONL trace path")
    trace_export = trace_sub.add_parser(
        "export", help="aggregate a trace and write the summary as JSON"
    )
    trace_export.add_argument("trace_file", help="JSONL trace path")
    trace_export.add_argument("dest", help="output JSON path")
    return parser


def _run_figure(
    identifier: str,
    seed: int,
    show_plot: bool,
    out,
    workers: int = 1,
    cache: str = "off",
    backend: Optional[str] = None,
    defense: Optional[str] = None,
) -> int:
    scenario = panel_scenario(identifier).with_overrides(sensor_seed=seed)
    data = run_experiment(
        scenario,
        mode="figure",
        workers=workers,
        cache=cache,
        backend=backend,
        defense=defense,
    )
    rows = [
        data.baseline.summary().as_dict(),
        data.attacked.summary().as_dict(),
        data.defended.summary().as_dict(),
    ]
    experiment = get_experiment(identifier)
    print(f"{identifier}: {experiment.title}", file=out)
    print(f"paper claim: {experiment.paper_claim}", file=out)
    print(file=out)
    print(render_table(rows, precision=2), file=out)
    confusion = detection_confusion(data.defended.detection_events, scenario.attack)
    print(file=out)
    print(
        f"detection at k = {data.detection_time():.0f} s "
        f"({confusion.false_positives} FP / {confusion.false_negatives} FN "
        f"over {confusion.total} challenges)",
        file=out,
    )
    if show_plot:
        import numpy as np

        times = data.defended.times
        window = times >= 100.0
        print(file=out)
        print(
            ascii_plot(
                {
                    "no attack": (
                        times[window],
                        np.clip(
                            data.baseline.array("measured_distance")[window], 0, 260
                        ),
                    ),
                    "with attack": (
                        times[window],
                        np.clip(
                            data.attacked.array("measured_distance")[window], 0, 260
                        ),
                    ),
                    "estimated": (
                        times[window],
                        np.clip(data.defended.array("safe_distance")[window], 0, 260),
                    ),
                },
                title="radar distance (clipped to 260 m)",
                y_label="m",
                width=100,
                height=20,
            ),
            file=out,
        )
    return 0


def _run_cache(args: argparse.Namespace, out, err) -> int:
    """The ``repro cache`` command group (run-store management)."""
    from repro.exceptions import ConfigurationError
    from repro.store import RunStore, merge_stores

    merging = args.cache_command == "merge"
    try:
        source = RunStore(args.source) if merging else None
        store = RunStore(args.store, shards=args.shards if merging else None)
    except ConfigurationError as exc:
        print(str(exc), file=err)
        return 2
    try:
        if merging:
            written = merge_stores(source, store)
            print(
                f"merged {written} runs from {source.path} into {store.path} "
                f"({len(store)} total)",
                file=out,
            )
            return 0
        if args.cache_command == "path":
            print(store.path, file=out)
            return 0
        if args.cache_command == "stats":
            stats = store.stats()
            if args.as_json:
                import json

                print(json.dumps(stats.as_dict(), indent=2), file=out)
                return 0
            print(
                render_table(
                    stats.as_rows(), title=f"run store at {stats.path}"
                ),
                file=out,
            )
            return 0
        if args.cache_command == "clear":
            removed = store.clear()
            print(f"evicted {removed} cached runs from {store.path}", file=out)
            return 0
        if args.cache_command == "export":
            dest = store.export(args.dest)
            print(f"exported {len(store)} entries to {dest}", file=out)
            return 0
        raise AssertionError(
            f"unhandled cache command {args.cache_command!r}"
        )  # pragma: no cover
    finally:
        store.close()
        if source is not None:
            source.close()


def _run_sweep(args: argparse.Namespace, out, err) -> int:
    """The ``repro sweep`` command group (adaptive Monte-Carlo sweeps)."""
    from repro.simulation.sweep import SweepCell, run_sweep

    keys = [key.strip() for key in args.cells.split(",") if key.strip()]
    unknown = [key for key in keys if key not in PANELS]
    if unknown:
        print(
            f"unknown sweep cells: {', '.join(unknown)} "
            f"(choose from {', '.join(PANELS)})",
            file=err,
        )
        return 2
    if not keys:
        print("no sweep cells given (--cells is empty)", file=err)
        return 2
    cells = []
    for key in keys:
        scenario = panel_scenario(key)
        if args.horizon is not None:
            scenario = scenario.with_overrides(horizon=args.horizon)
        cells.append(SweepCell(key=key, scenario=scenario))
    from repro.exceptions import ConfigurationError

    try:
        result = run_sweep(
            cells,
            metric=args.metric,
            base_seed=args.base_seed,
            target_ci=args.target_ci,
            confidence=args.confidence,
            min_runs=args.min_runs,
            max_runs=args.max_runs,
            round_size=args.round_size,
            schedule=args.schedule,
            workers=args.workers,
            cache=_cache_mode(args),
            backend=args.backend,
        )
    except ConfigurationError as exc:
        print(str(exc), file=err)
        return 2
    if args.as_json:
        import json

        print(json.dumps(result.as_dict(), indent=2), file=out)
        return 0
    print(
        render_table(
            result.as_rows(),
            title=f"{result.metric} sweep ({result.schedule} schedule)",
        ),
        file=out,
    )
    print(
        f"executed {result.executed_runs} of {result.fixed_grid_runs} "
        f"fixed-grid runs in {result.rounds} round(s) "
        f"(saved {result.savings_fraction:.0%})",
        file=out,
    )
    return 0


def _run_trace(args: argparse.Namespace, out, err) -> int:
    """The ``repro trace`` command group (JSONL trace inspection)."""
    from repro.telemetry import load_trace

    try:
        summary = load_trace(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"could not read trace {args.trace_file}: {exc}", file=err)
        return 2
    if args.trace_command == "summary":
        print(summary.render(), file=out)
        return 0
    if args.trace_command == "export":
        import json
        from pathlib import Path

        document = {"trace": str(args.trace_file), **summary.as_dict()}
        Path(args.dest).write_text(json.dumps(document, indent=2))
        print(f"exported {summary.events} span events to {args.dest}", file=out)
        return 0
    raise AssertionError(
        f"unhandled trace command {args.trace_command!r}"
    )  # pragma: no cover


def main(argv: Optional[List[str]] = None, out=None, err=None) -> int:
    """CLI entry point; returns the process exit code.

    ``out`` receives command output; ``err`` (default ``sys.stderr``)
    receives diagnostics, so piping stdout stays clean on failures.
    """
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    args = build_parser().parse_args(argv)

    profiling = getattr(args, "profile", False) or getattr(args, "trace_out", None)
    if not profiling:
        return _dispatch(args, out, err)

    from repro import telemetry

    tele = telemetry.enable(args.trace_out)
    try:
        code = _dispatch(args, out, err)
    finally:
        telemetry.disable()
    if args.profile:
        print(file=out)
        print(tele.summary().render(), file=out)
    if args.trace_out:
        print(f"wrote telemetry trace to {args.trace_out}", file=err)
    return code


def _dispatch(args: argparse.Namespace, out, err) -> int:
    """Route a parsed command line to its implementation."""
    if args.command == "list":
        print(experiments_table(), file=out)
        return 0

    if args.command == "run":
        try:
            experiment = get_experiment(args.experiment)
        except KeyError as exc:
            print(str(exc), file=err)
            return 2
        if args.experiment in PANELS:
            from repro.exceptions import ConfigurationError

            try:
                return _run_figure(
                    args.experiment,
                    args.seed,
                    not args.no_plot,
                    out,
                    args.workers,
                    _cache_mode(args),
                    args.backend,
                    args.defense,
                )
            except ConfigurationError as exc:
                print(str(exc), file=err)
                return 2
        print(
            f"{experiment.identifier} is regenerated by its benchmark:\n"
            f"  pytest benchmarks/{experiment.bench} --benchmark-only",
            file=out,
        )
        return 0

    if args.command == "run-custom":
        import json

        from repro.simulation import load_scenario, scenario_from_dict

        try:
            if args.spec == "-":
                scenario = scenario_from_dict(json.load(sys.stdin))
            else:
                scenario = load_scenario(args.spec)
        except Exception as exc:  # surface any spec problem as exit code 2
            source = "<stdin>" if args.spec == "-" else args.spec
            print(f"could not load {source}: {exc}", file=err)
            return 2
        data = run_experiment(
            scenario,
            mode="figure",
            workers=args.workers,
            cache=_cache_mode(args),
            backend=args.backend,
            defense=args.defense,
        )
        rows = [
            data.baseline.summary().as_dict(),
            data.attacked.summary().as_dict(),
            data.defended.summary().as_dict(),
        ]
        print(render_table(rows, title=f"scenario {scenario.name!r}"), file=out)
        if data.defended.detection_times:
            print(
                f"detection at k = {data.defended.detection_times[0]:.0f} s",
                file=out,
            )
        return 0

    if args.command == "report":
        from repro.analysis.report import build_report, figure_panel_rows

        knobs = dict(
            workers=args.workers, cache=_cache_mode(args), backend=args.backend
        )
        if args.markdown is not None:
            from pathlib import Path

            seeds = list(range(args.seeds)) if args.seeds else None
            Path(args.markdown).write_text(build_report(seeds=seeds, **knobs))
            print(f"wrote {args.markdown}", file=out)
            return 0
        print(
            render_table(
                figure_panel_rows(**knobs),
                title=(
                    "Paper-vs-measured summary (paper: detection at 182 s, "
                    "zero FP/FN, safe recovery)"
                ),
            ),
            file=out,
        )
        return 0

    if args.command == "cache":
        return _run_cache(args, out, err)

    if args.command == "sweep":
        return _run_sweep(args, out, err)

    if args.command == "serve":
        from repro.service import serve

        return serve(
            args.host,
            args.port,
            store_path=args.store,
            store_shards=args.store_shards,
            workers=args.workers,
            backend=args.backend,
            max_retained_jobs=args.max_jobs,
            out=out,
            err=err,
        )

    if args.command == "trace":
        return _run_trace(args, out, err)

    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
