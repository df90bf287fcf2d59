#!/usr/bin/env python
"""Standalone driver for the engine benchmarks.

Equivalent to ``repro bench`` (without a benchmark name) but runnable
directly from a checkout::

    python benchmarks/bench_solver.py --suite medium --repeat 3
    python benchmarks/bench_solver.py --quick     # CI smoke: small suite x1
    python benchmarks/bench_solver.py --datalog   # Datalog engines instead

By default runs the packed solver (:mod:`repro.analysis.solver`) against
the frozen pre-optimization baseline
(:mod:`repro.analysis.reference_solver`) over a generated benchmark suite
and writes ``BENCH_solver.json`` in the ``repro-bench-solver/1`` schema
documented in ``docs/performance.md``.  With ``--datalog``, runs the
compiled-join-plan Datalog engine (:mod:`repro.datalog.engine`) against
the frozen interpreter (:mod:`repro.datalog.reference_engine`) on the
full Figure 3 model and writes ``BENCH_datalog.json``
(``repro-bench-datalog/1``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.bench import (  # noqa: E402
    datalog_suite_names,
    run_datalog_suite,
    run_suite,
    run_trace_cell,
    suite_names,
    write_report,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--suite",
        default="medium",
        choices=sorted(set(suite_names()) | set(datalog_suite_names())),
        help="benchmark suite (default: medium)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="solves per (benchmark, flavor, engine) cell; best is kept",
    )
    parser.add_argument(
        "--flavors",
        default="2objH,2typeH,2callH",
        help="comma-separated context flavors",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="where to write the JSON report (default BENCH_solver.json, "
        "or BENCH_datalog.json with --datalog)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small suite, single repeat",
    )
    parser.add_argument(
        "--datalog",
        action="store_true",
        help="benchmark the Datalog evaluators instead of the solvers",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="additionally time one traced cell against its untraced twin "
        "(docs/observability.md), add the 'trace' key to the report, and "
        "write the Chrome trace JSON (default BENCH_trace.json)",
    )
    parser.add_argument(
        "--receipt-dir",
        default=None,
        metavar="DIR",
        help="append a content-addressed repro-receipt/1 of this run to "
        "the results warehouse under DIR (docs/warehouse.md)",
    )
    args = parser.parse_args(argv)
    suite, repeat = args.suite, args.repeat
    if args.quick:
        suite, repeat = "small", 1
    flavors = [f.strip() for f in args.flavors.split(",") if f.strip()]
    output = args.output
    if output is None:
        output = "BENCH_datalog.json" if args.datalog else "BENCH_solver.json"
    runner = run_datalog_suite if args.datalog else run_suite
    report = runner(suite=suite, flavors=flavors, repeat=repeat, progress=print)
    if args.trace is not None and not args.datalog:
        import json

        cell, tracer = run_trace_cell(
            suite=suite,
            flavor=flavors[0] if flavors else "2objH",
            repeat=repeat,
            progress=print,
        )
        report["trace"] = cell
        trace_path = args.trace or "BENCH_trace.json"
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.chrome_trace(), fh, indent=2)
            fh.write("\n")
        print(
            f"trace cell: {cell['overhead_percent']:+.2f}% overhead "
            f"({cell['events']} events) -> {trace_path}"
        )
    write_report(report, output)
    print(f"wrote {output}")
    if args.receipt_dir:
        from repro.warehouse import receipt_from_bench_report, write_receipt

        path = write_receipt(
            receipt_from_bench_report(report), args.receipt_dir
        )
        print(f"receipt appended: {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
