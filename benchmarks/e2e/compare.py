#!/usr/bin/env python3
"""Compare benchmark results of a parent commit and a change.

Usage (from the repository root)::

    python3 benchmarks/e2e/compare.py --parent P01.json ... --change C01.json ...
    python3 benchmarks/e2e/compare.py --summary R1.json R2.json ...

Each file is the ``--json`` output of one ``run.py`` invocation.  Run
the two commits alternately with identical settings, at least ten pairs,
and pass the files in run order: ``parent[i]`` pairs with ``change[i]``.

One row per metric and workload, with each side's median and
quartiles, the change's wins over the pairs and a verdict:

* ``improved`` — the change wins at least nine in ten pairs (ties count
  for neither) and its median beats the parent's by more than the
  parent's own spread (the distance between its quartiles);
* ``regressed`` — the change's median is worse than the parent's by
  more than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — a side's spread (quartile distance over median)
  exceeds the bound, so the runs cannot tell, unless every run of one
  side reads better than every run of the other;
* ``unchanged`` — within the bound;
* ``info`` — a per-layer metric, which has no bound.

``--summary`` prints the median and quartiles of each metric as JSON
instead (the form of ``baseline.json``).  The exit code is 1 when any
metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR))

from stats import iqr, median, quartiles  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9

Series = Dict[Tuple[str, str], List[float]]


def load(paths: Sequence[Path]) -> Tuple[Series, Dict[Tuple[str, str], str]]:
    """Values of every (workload, metric) across files, in file order."""
    values: Series = {}
    units: Dict[Tuple[str, str], str] = {}
    for path in paths:
        document = json.loads(Path(path).read_text())
        for workload, outcome in document["workloads"].items():
            for name, entry in outcome["metrics"].items():
                values.setdefault((workload, name), []).append(entry["value"])
                units[(workload, name)] = entry["unit"]
    return values, units


def bounds(benchmark: Path) -> Dict[str, Tuple[str, Optional[float]]]:
    """``metric -> (better, bound)`` from ``BENCHMARK.json``."""
    spec = json.loads(benchmark.read_text())
    table = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    table.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    return table


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: Optional[float]) -> Dict[str, Any]:
    """Apply the comparison rule to one metric's paired runs."""
    sign = -1.0 if better == "lower" else 1.0  # > 0: the change is better
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    parent_median, change_median = median(parent), median(change)
    gain = sign * (change_median - parent_median)
    row = {"pairs": len(pairs), "wins": wins,
           "parent": parent_median, "change": change_median}
    if bound is None:
        return dict(row, verdict="info")
    spread = max(iqr(parent) / abs(parent_median) if parent_median else 0.0,
                 iqr(change) / abs(change_median) if change_median else 0.0)
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    all_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > iqr(parent):
        return dict(row, verdict="improved")
    if spread > bound and not (all_better or all_worse):
        return dict(row, verdict="unresolved")
    if -gain > bound * abs(parent_median):
        return dict(row, verdict="regressed")
    return dict(row, verdict="unchanged")


def summary(paths: Sequence[Path]) -> Dict[str, Any]:
    values, units = load(paths)
    first = json.loads(Path(paths[0]).read_text())
    table: Dict[str, Any] = {"host": first["host"], "seed": first["seed"],
                             "seconds": first["seconds"], "workloads": {}}
    for (workload, name), series in sorted(values.items()):
        q1, q3 = quartiles(series)
        table["workloads"].setdefault(workload, {})[name] = {
            "median": median(series), "q1": q1, "q3": q3,
            "iqr": iqr(series), "n": len(series), "unit": units[(workload, name)],
        }
    return table


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", type=Path, default=[])
    parser.add_argument("--change", nargs="+", type=Path, default=[])
    parser.add_argument("--summary", nargs="+", type=Path)
    parser.add_argument("--benchmark", type=Path, default=E2E_DIR.parents[1] / "BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.summary:
        print(json.dumps(summary(args.summary), indent=1))
        return 0
    if not args.parent or len(args.parent) != len(args.change):
        parser.error("pass the same number of --parent and --change files")
    if len(args.parent) < MIN_PAIRS:
        print(f"note: {len(args.parent)} pairs; a gain needs at least {MIN_PAIRS}")
    table = bounds(args.benchmark)
    parent, units = load(args.parent)
    change, _ = load(args.change)
    regressed = False
    print(f"{'workload':<15} {'metric':<34} {'parent [q1, q3]':>32} "
          f"{'change [q1, q3]':>32} {'wins':>7}  verdict")
    for key in sorted(set(parent) & set(change)):
        workload, name = key
        better, bound = table.get(name, ("lower", None))
        row = verdict(parent[key], change[key], better, bound)
        regressed |= row["verdict"] == "regressed"
        p1, p3 = quartiles(parent[key])
        c1, c3 = quartiles(change[key])
        print(f"{workload:<15} {name:<34} "
              f"{row['parent']:>11.5g} [{p1:.4g}, {p3:.4g}] {units[key]:<5}"
              f"{row['change']:>11.5g} [{c1:.4g}, {c3:.4g}] "
              f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
