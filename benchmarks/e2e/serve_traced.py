#!/usr/bin/env python3
"""Run the service like ``python -m repro serve --port 0 --workers 1``,
with the benchmark's tracer installed for the whole life of the process.

Trace runs of the ``service_mixed`` workload start the server through
this launcher.  The pool worker it forks inherits the wrappers; on
SIGINT both write their spans to ``--trace-dir`` as they exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

E2E_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(E2E_DIR.parents[1] / "src"), str(E2E_DIR)]

from repro.service import serve  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True, help="run-store database file")
    parser.add_argument("--trace-dir", required=True, type=Path)
    args = parser.parse_args()
    tracer = Tracer(args.trace_dir, role="server")
    tracer.install()
    try:
        return serve("127.0.0.1", 0, store_path=args.store, workers=1)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
