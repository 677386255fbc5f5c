"""Lightweight tracing/metrics for the run pipeline (``repro.telemetry``).

The pipeline this library executes — radar sensing → closed-loop
engine → batch fan-out → run store → report — is instrumented with
*spans* (timed regions) and *counters*.  All instrumentation routes
through a module-level gate that is **off by default**: with no active
session, every hook is a global read plus a ``None`` check, so the
simulation pays effectively nothing (asserted by
``benchmarks/bench_telemetry_overhead.py``).

Quick use::

    from repro import telemetry

    with telemetry.session("trace.jsonl") as tele:
        repro.run(repro.fig2_scenario("dos"), mode="figure")
        print(tele.summary().render())       # per-stage ASCII table

What gets recorded when a session is active:

* ``engine.sense`` / ``engine.estimate`` / ``engine.control`` — the
  pair loop's per-run stage times (one span per stage per car-following
  or redundancy run; platoons record none);
* ``batch.run`` — one span per executed :class:`~repro.simulation.batch.RunSpec`
  with worker pid, queue wait, cache-hit flag and error status, plus a
  batch-scoped aggregate on ``BatchResult.telemetry``;
* ``store.*`` counters — run-store hits/misses/writes and payload
  bytes;
* ``report.panel`` / ``report.seed_sweep`` — the report builder's
  sections.

The CLI mirror is ``--profile`` / ``--trace PATH`` on ``repro run``,
``run-custom`` and ``report``, and ``repro trace {summary,export}``
for inspecting a written JSONL trace.
"""

from repro.telemetry.core import (
    NULL_SPAN,
    Span,
    Telemetry,
    current,
    disable,
    enable,
    enabled,
    incr,
    session,
    span,
)
from repro.telemetry.summary import (
    SpanStats,
    TelemetrySummary,
    load_events,
    load_trace,
    summarize,
)

__all__ = [
    "Telemetry",
    "Span",
    "NULL_SPAN",
    "current",
    "enabled",
    "enable",
    "disable",
    "session",
    "span",
    "incr",
    "SpanStats",
    "TelemetrySummary",
    "summarize",
    "load_trace",
    "load_events",
]
