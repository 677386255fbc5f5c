#!/usr/bin/env python3
"""End-to-end benchmark of the reproduction's four public paths.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                                  [--trace 0|1] [--smoke] [--json OUT]

Every workload runs in fresh subprocesses: ``SETUP_SAMPLES - 1``
set-up probes (start, import, generate inputs, warm up, exit) and one
measuring process, which sets up the same way, measures for
``--seconds`` and checks the program's outputs.  ``setup_s`` is the
median set-up time of the three, from process start to the first timed
operation.  With ``--trace 1`` the measuring process traces the layers
from outside (see ``tracing.py``) and reports the per-layer metrics
instead of the end-to-end ones; no probes run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 when every output check passed, 1 when one failed and 2 when the
benchmark could not run at all (for example without ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

E2E_DIR = Path(__file__).resolve().parent
ROOT = E2E_DIR.parents[1]
SRC = ROOT / "src"

sys.path.insert(0, str(E2E_DIR))

from stats import median  # noqa: E402
from tracing import PER_LAYER_UNITS  # noqa: E402

WORKLOADS = ("panels_signal", "ssr_batch", "sweep_store", "service_mixed")
DEFAULT_SEED = 2017
DEFAULT_SECONDS = 20
SMOKE_SECONDS = 3
SETUP_SAMPLES = 3
#: Wall-clock budget of one workload, all its subprocesses included.
TIME_LIMIT_S = 170.0
TRACE_DIR = E2E_DIR / ".trace"
WORK_DIR = E2E_DIR / ".work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "cold_ms_p50": "ms",
    "warm_ms_p50": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured time per workload (default {DEFAULT_SECONDS}, "
                        f"smoke {SMOKE_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up sample: checks wiring, not speed")
    parser.add_argument("--json", type=Path, help="also write the full results here")
    parser.add_argument("--role", choices=("probe", "measure"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else DEFAULT_SECONDS
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.role and not args.workload:
        parser.error("--role needs --workload")
    return args


def host_header(smoke: bool) -> Dict[str, Any]:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "missing"

    sha = "unknown"
    if (ROOT / ".git").exists() and shutil.which("git"):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or sha
    return {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "git_sha": sha,
        "smoke": smoke,
    }


def spawn(name: str, role: str, args: argparse.Namespace, deadline: float
          ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one workload subprocess; return (set-up seconds, its result).

    The child runs in its own session so that a timeout can kill it
    together with everything it started (the service and its pool).
    """
    command = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ] + (["--smoke"] if args.smoke else [])
    start = perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            start_new_session=True)
    timed_out = threading.Event()

    def kill_group() -> None:
        timed_out.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), kill_group)
    watchdog.start()
    setup_s, outcome = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                setup_s = perf_counter() - start
            elif line.startswith("@@result "):
                outcome = json.loads(line[len("@@result "):])
            else:
                print(line, end="")
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        shutil.rmtree(WORK_DIR / f"{name}-{proc.pid}", ignore_errors=True)
    if timed_out.is_set():
        raise BenchError(f"{name}: {role} exceeded the {TIME_LIMIT_S:.0f} s limit")
    if code != 0 or setup_s is None or (role == "measure" and outcome is None):
        raise BenchError(f"{name}: {role} process failed (exit code {code})")
    return setup_s, outcome


def run_workload(name: str, args: argparse.Namespace) -> Dict[str, Any]:
    deadline = perf_counter() + TIME_LIMIT_S
    probes = 0 if (args.trace or args.smoke) else SETUP_SAMPLES - 1
    setups = [spawn(name, "probe", args, deadline)[0] for _ in range(probes)]
    setup_s, outcome = spawn(name, "measure", args, deadline)
    setups.append(setup_s)
    if not args.trace:
        outcome["metrics"] = {
            "setup_s": {"value": median(setups), "unit": "s", "n": len(setups)},
            **outcome["metrics"],
        }
    return outcome


def report(name: str, outcome: Dict[str, Any], args: argparse.Namespace) -> None:
    mode = "traced" if args.trace else "untraced"
    print(f"== {name}  seed {args.seed}  {args.seconds:g} s  {mode}"
          f"{'  smoke' if args.smoke else ''}")
    for metric_name, entry in outcome["metrics"].items():
        print(f"  {metric_name:<34} {entry['value']:>14.6g} {entry['unit']:<6} n={entry['n']}")
    for line in outcome["detail"]:
        print(f"  . {line}")
    print(f"  checks: {outcome['attempted'] - outcome['failed']}/{outcome['attempted']} passed")
    for failure in outcome["failures"]:
        print(f"  FAILED {failure}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the repro source tree is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    # Children find the package through PYTHONPATH and run every
    # engine choice explicitly, whatever the caller's environment says.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    os.environ["PYTHONUNBUFFERED"] = "1"
    os.environ.pop("REPRO_BACKEND", None)

    if args.role:
        from workloads import run_child

        return run_child(args.workload, args.role, args.seed, args.seconds,
                         bool(args.trace), args.smoke, TRACE_DIR / args.workload)

    names = [args.workload] if args.workload else list(WORKLOADS)
    outcomes = {}
    try:
        for name in names:
            outcomes[name] = run_workload(name, args)
            report(name, outcomes[name], args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    expected = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    metrics: Dict[str, Any] = {}
    for name, outcome in outcomes.items():
        missing = set(expected) - set(outcome["metrics"])
        if missing:
            print(f"error: {name} did not report {sorted(missing)}", file=sys.stderr)
            return 2
        prefix = "" if args.workload else f"{name}."
        for metric_name in expected:
            entry = outcome["metrics"][metric_name]
            metrics[prefix + metric_name] = {"value": entry["value"], "unit": entry["unit"]}
    final = {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }
    if args.json is not None:
        args.json.write_text(json.dumps({
            "host": host_header(args.smoke),
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "workloads": outcomes,
        }, indent=1) + "\n")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
