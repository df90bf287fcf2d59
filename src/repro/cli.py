"""Command-line interface: ``repro``.

Subcommands:

* ``repro analyze FILE`` — parse a surface-language source file and run an
  analysis (optionally introspective), printing stats, precision, and
  requested points-to sets;
* ``repro bench NAME`` — run an analysis on a built-in DaCapo-analog
  benchmark;
* ``repro bench`` (no name) — benchmark a live engine against its
  baseline over a generated suite and write a ``repro-receipt/1`` to
  ``--receipt-dir``: ``--kind solver`` (default; packed vs frozen
  reference solver), ``datalog`` (compiled-plan vs frozen Datalog
  interpreter), ``incremental`` (warm edit sessions vs from-scratch
  re-analysis) or ``demand`` (per-query demand slices vs full solves);
  see ``docs/performance.md``;
* ``repro benchmarks`` — list the built-in benchmarks;
* ``repro query VAR ...`` — answer demand ``pts(v)`` queries over a
  benchmark or source file under any context flavor, solving only each
  query's slice (``docs/queries.md``);
* ``repro serve`` — run the analysis service (HTTP JSON API with a job
  queue, worker pool, and content-addressed result cache); with
  ``--journal`` every accepted job survives a crash and is replayed on
  restart, and ``--max-queue-depth`` answers overload with 429
  (``docs/service.md``);
* ``repro report`` — the results warehouse: ingest receipts, bin and
  score the perf trajectory, render a table + JSON, and (``--gate``)
  fail on regressions (see ``docs/warehouse.md``);
* ``repro experiments ...`` — the figure reproductions (also available as
  ``repro-experiments``).

Examples::

    repro analyze app.mj --analysis 2objH --show Main.main/0/result
    repro analyze app.mj --analysis 2objH --introspective B --budget 100000
    repro bench hsqldb --analysis 2objH --introspective A
    repro bench --suite medium --repeat 3 --receipt-dir benchmarks/receipts
    repro bench --kind datalog --suite medium --repeat 3
    repro bench --kind demand --quick --receipt-dir smoke-receipts
    repro query 'Main.main/0/result' --benchmark hsqldb --flavor 2objH
    repro serve --port 8080 --workers 4 --cache-dir /tmp/repro-cache
    repro serve --port 8080 --journal /tmp/repro-journal.jsonl
    repro report benchmarks/receipts --json TRAJECTORY.json
    repro report benchmarks/receipts --gate --max-regression 10
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence, TextIO

from .benchgen.dacapo import DACAPO_SPECS, benchmark_names, build_benchmark
from .clients import analyze_exceptions, devirtualize
from .contexts.policies import ANALYSIS_NAMES
from .facts.encoder import encode_program
from .frontend import parse_source
from .harness.bench import BENCH_KINDS, run_bench
from .harness.experiments import main as experiments_main
from .harness.runner import run_analysis, run_introspective_analysis
from .introspection import heuristic_from_spec
from .ir.printer import dump_program
from .ir.program import Program
from .obs import NULL_TRACER, Tracer

__all__ = ["main"]

def _add_analysis_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--analysis",
        default="2objH",
        help=f"analysis name (one of {', '.join(ANALYSIS_NAMES)}); default 2objH",
    )
    parser.add_argument(
        "--introspective",
        choices=["A", "B"],
        default=None,
        help="run the two-pass introspective variant with Heuristic A or B",
    )
    parser.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="TUPLES",
        help="tuple budget (the timeout analog); unlimited by default",
    )
    parser.add_argument(
        "--heuristic-constants",
        default=None,
        metavar="K,L,M|P,Q",
        help="override heuristic constants (comma-separated)",
    )
    parser.add_argument(
        "--show",
        action="append",
        default=[],
        metavar="VAR",
        help="print the points-to set of a qualified variable (repeatable)",
    )
    parser.add_argument(
        "--precision", action="store_true", help="print the three precision metrics"
    )
    parser.add_argument(
        "--devirt", action="store_true", help="print the devirtualization report"
    )
    parser.add_argument(
        "--exceptions", action="store_true", help="print the exception-flow report"
    )
    parser.add_argument(
        "--explain",
        action="store_true",
        help="print the cost breakdown (hottest methods/objects)",
    )
    parser.add_argument(
        "--save-facts",
        metavar="DIR",
        default=None,
        help="write the input relations as Doop-style .facts files",
    )
    parser.add_argument(
        "--save-solution",
        metavar="DIR",
        default=None,
        help="write the computed relations as delimited text",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record a structured trace of the run and write it as Chrome "
        "trace_event JSON (open in Perfetto / chrome://tracing); FILE "
        "defaults to TRACE.json; for the engine benchmark, --trace also "
        "times one traced cell against its untraced twin and records the "
        "overhead in the receipt",
    )


def _run_and_report(
    program: Program,
    args: argparse.Namespace,
    tracer: Tracer = NULL_TRACER,
) -> int:
    facts = encode_program(program, tracer=tracer)
    if args.save_facts:
        from .facts.io import save_facts

        written = save_facts(facts, args.save_facts)
        print(f"wrote {len(written)} .facts files to {args.save_facts}")
    budget = dict(
        facts=facts, max_tuples=args.budget, max_seconds=None, tracer=tracer
    )
    if args.introspective:
        try:
            heuristic = heuristic_from_spec(
                args.introspective, args.heuristic_constants
            )
        except ValueError as exc:
            print(f"error: --heuristic-constants: {exc}", file=sys.stderr)
            return 2
        outcome = run_introspective_analysis(
            program, args.analysis, heuristic, **budget
        )
    else:
        outcome = run_analysis(program, args.analysis, **budget)
    intro = outcome.introspective
    if intro is not None:
        stats = intro.refinement_stats
        print(
            f"{outcome.analysis}: {heuristic.describe()}; not refined: "
            f"{stats.excluded_call_sites}/{stats.total_call_sites} call "
            f"sites, {stats.excluded_objects}/{stats.total_objects} objects"
        )
    if outcome.timed_out:
        if intro is not None:
            print(f"second pass: TIMEOUT ({outcome.reason})")
        else:
            print(f"TIMEOUT: {outcome.reason}")
        return 3

    result = outcome.result
    assert result is not None
    print(f"stats: {outcome.stats.row()}")
    if args.precision:
        print(f"precision: {outcome.precision.row()}")
    if args.devirt:
        print(f"devirtualization: {devirtualize(result, facts).summary()}")
    if args.exceptions:
        print(f"exceptions: {analyze_exceptions(result, facts).summary()}")
    if args.explain:
        from .analysis.stats import explain_costs

        print(explain_costs(result, facts).render())
    if args.save_solution:
        from .facts.io import save_solution

        written = save_solution(result, args.save_solution)
        print(f"wrote {len(written)} relation files to {args.save_solution}")
    for var in args.show:
        heaps = sorted(result.points_to(var))
        print(f"pts({var}) = {heaps if heaps else '{}'}")
    return 0


def _export_trace(
    tracer: Tracer, path: str, out: Optional[TextIO] = None
) -> None:
    """Write the Chrome trace JSON and print the per-span summary to
    ``out`` (standard output by default)."""
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(tracer.chrome_trace(), fh, indent=2)
        fh.write("\n")
    print(f"wrote trace ({len(tracer.spans())} spans) to {path}", file=out)
    print(tracer.render_summary(), file=out)


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        source = Path(args.file).read_text()
    except OSError as exc:
        reason = exc.strerror or exc.__class__.__name__
        print(f"error: cannot read {args.file}: {reason}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace is not None else NULL_TRACER
    program = parse_source(source, tracer=tracer)
    if args.dump:
        print(dump_program(program))
    print(f"program: {program.summary()}")
    rc = _run_and_report(program, args, tracer)
    if args.trace is not None:
        _export_trace(tracer, args.trace or "TRACE.json")
    return rc


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.name is None:
        return _cmd_bench_suite(args)
    if args.name not in DACAPO_SPECS:
        print(f"unknown benchmark {args.name!r}; try: {', '.join(benchmark_names())}")
        return 2
    print(f"spec: {DACAPO_SPECS[args.name].describe()}")
    tracer = Tracer() if args.trace is not None else NULL_TRACER
    with tracer.span("benchgen.build", benchmark=args.name):
        program = build_benchmark(args.name)
    print(f"program: {program.summary()}")
    rc = _run_and_report(program, args, tracer)
    if args.trace is not None:
        _export_trace(tracer, args.trace or "TRACE.json")
    return rc


def _cmd_bench_suite(args: argparse.Namespace) -> int:
    """Engine benchmark (``repro bench`` without a benchmark name): run
    one ``--kind`` and append its receipt to ``--receipt-dir``."""
    from .warehouse import write_receipt

    suite, repeat = ("small", 1) if args.quick else (args.suite, args.repeat)
    flavors = None
    if args.flavors is not None:
        flavors = [f.strip() for f in args.flavors.split(",") if f.strip()]
    on_trace = None
    if args.trace is not None:
        on_trace = partial(_export_trace, path=args.trace or "TRACE.json")
    try:
        receipt = run_bench(
            args.kind,
            suite=suite,
            flavors=flavors,
            repeat=repeat,
            queries=args.queries,
            progress=print,
            on_trace=on_trace,
        )
    except ValueError as exc:
        print(str(exc))
        return 2
    print(f"receipt appended: {write_receipt(receipt, args.receipt_dir)}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .warehouse import (
        gate_failures,
        ingest,
        load_receipt,
        receipt_digest,
        render_table,
        score,
        trajectory,
    )

    try:
        receipts, skipped = ingest(args.inputs)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not receipts:
        print("error: no ingestible receipts among the inputs", file=sys.stderr)
        return 2
    baseline = args.baseline
    if baseline is not None:
        try:
            baseline = receipt_digest(load_receipt(baseline))
        except (OSError, ValueError):
            # Not a file: treat it as a digest (prefix) directly.
            pass
    cells = score(receipts, baseline_digest=baseline)
    max_regression = args.max_regression if args.gate else None
    for path, _receipt in receipts:
        print(f"ingested: {path}")
    for path in skipped:
        print(f"skipped (unknown schema): {path}")
    print(render_table(cells, max_regression=max_regression))
    if args.json:
        import json as _json

        from .utils import atomic_write_text

        doc = trajectory(
            receipts,
            cells,
            skipped,
            baseline_digest=baseline,
            max_regression=max_regression,
        )
        atomic_write_text(
            args.json, _json.dumps(doc, indent=2, sort_keys=False) + "\n"
        )
        print(f"wrote {args.json}")
    if args.gate:
        failures = gate_failures(cells, args.max_regression)
        if failures:
            for cell in failures:
                print(
                    f"GATE FAILURE: {cell.name} regressed "
                    f"{cell.regression_percent:.2f}% "
                    f"(baseline {cell.baseline.value:.3f} "
                    f"[{cell.baseline.digest[:12]}] -> current "
                    f"{cell.current.value:.3f} "
                    f"[{cell.current.digest[:12]}]; "
                    f"threshold {args.max_regression}%)"
                )
            return 2
        print(
            f"gate passed: no cell regressed >= {args.max_regression}% "
            f"({len(cells)} cells)"
        )
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    for name in benchmark_names():
        print(f"{name:10s} {DACAPO_SPECS[name].describe()}")
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, iter_corpus, replay_corpus, run_campaign

    if args.replay is not None:
        target = Path(args.replay)
        if target.is_file():
            paths = [str(target)]
        elif target.is_dir():
            paths = iter_corpus(str(target))
        else:
            print(f"error: no such corpus: {args.replay}", file=sys.stderr)
            return 2
        if not paths:
            print(f"corpus {args.replay} is empty; nothing to replay")
            return 0
        try:
            results = replay_corpus(paths)
        except ValueError as exc:
            print(f"error: corrupt corpus entry: {exc}", file=sys.stderr)
            return 2
        failed = False
        for path, violation in results:
            if violation is None:
                print(f"{path}: ok")
            else:
                failed = True
                print(f"{path}: VIOLATION {violation}")
        return 2 if failed else 0

    flavors = tuple(f.strip() for f in args.flavors.split(",") if f.strip())
    if not flavors:
        print("error: --flavors must name at least one analysis", file=sys.stderr)
        return 2
    config = FuzzConfig(
        seed=args.seed,
        budget_seconds=args.budget,
        max_iterations=args.iterations,
        corpus_dir=args.corpus_dir,
        flavors=flavors,
        shrink=not args.no_shrink,
    )
    outcome = run_campaign(config, progress=print)
    s = outcome.stats
    checks = ", ".join(
        f"{name}={count}" for name, count in sorted(s.oracle_checks.items())
    )
    print(
        f"fuzzed {s.programs} programs in {s.seconds:.1f}s "
        f"({s.invalid_mutants} invalid mutants, {s.budget_skips} budget "
        f"skips, {s.engine_runs} engine runs)"
    )
    print(f"oracle checks: {checks}")
    if args.receipt_dir:
        from .fuzz.runner import campaign_receipt
        from .warehouse import write_receipt

        path = write_receipt(
            campaign_receipt(config, outcome), args.receipt_dir
        )
        print(f"receipt appended: {path}")
    if outcome.ok:
        print("no oracle violations")
        return 0
    for violation in outcome.violations:
        print(f"VIOLATION: {violation}")
    for path in outcome.corpus_paths:
        print(f"repro written: {path}")
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.api import serve

    return serve(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_capacity=args.cache_size,
        cache_dir=args.cache_dir,
        receipt_dir=args.receipt_dir,
        verbose=args.verbose,
        max_sessions=args.max_sessions,
        journal=args.journal,
        max_queue_depth=args.max_queue_depth,
    )


def _cmd_query(args: argparse.Namespace) -> int:
    from .query import QueryEngine

    if (args.benchmark is None) == (args.source is None):
        print(
            "error: exactly one of --benchmark or --source is required",
            file=sys.stderr,
        )
        return 2
    variables = list(args.vars)
    if args.batch:
        try:
            text = Path(args.batch).read_text()
        except OSError as exc:
            reason = exc.strerror or exc.__class__.__name__
            print(
                f"error: cannot read {args.batch}: {reason}", file=sys.stderr
            )
            return 2
        for line in text.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                variables.append(line)
    if not variables:
        print(
            "error: no variables to query (positional VAR or --batch FILE)",
            file=sys.stderr,
        )
        return 2
    tracer = Tracer() if args.trace is not None else NULL_TRACER
    if args.benchmark is not None:
        if args.benchmark not in DACAPO_SPECS:
            print(
                f"unknown benchmark {args.benchmark!r}; "
                f"try: {', '.join(benchmark_names())}",
                file=sys.stderr,
            )
            return 2
        with tracer.span("benchgen.build", benchmark=args.benchmark):
            program = build_benchmark(args.benchmark)
    else:
        try:
            source = Path(args.source).read_text()
        except OSError as exc:
            reason = exc.strerror or exc.__class__.__name__
            print(
                f"error: cannot read {args.source}: {reason}", file=sys.stderr
            )
            return 2
        program = parse_source(source, tracer=tracer)
    engine = QueryEngine(program, tracer=tracer)
    try:
        engine.policy(args.flavor)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outcomes = engine.query_batch(
        variables,
        args.flavor,
        max_tuples=args.max_tuples,
        max_seconds=args.max_seconds,
    )
    if args.json:
        import json as _json

        doc = {
            "facts_digest": engine.digest,
            "flavor": args.flavor,
            "answers": [o.to_json() for o in outcomes],
        }
        print(_json.dumps(doc, indent=2))
    else:
        for outcome in outcomes:
            if outcome.error is not None:
                print(f"pts({outcome.var}) = TIMEOUT ({outcome.error})")
                continue
            answer = outcome.answer
            heaps = sorted(answer.points_to)
            print(f"pts({outcome.var}) = {heaps if heaps else '{}'}")
            print(
                f"  [{args.flavor}] slice: {answer.slice_variables} vars, "
                f"{answer.slice_methods} methods, "
                f"{answer.slice_tuples} tuples "
                f"({answer.footprint:.2%} of program) "
                f"in {answer.seconds * 1000:.1f}ms"
                f"{' (memoized)' if answer.memoized else ''}"
            )
    if args.trace is not None:
        # keep standard output pure JSON under --json
        _export_trace(
            tracer, args.trace or "TRACE.json", sys.stderr if args.json else None
        )
    return 3 if any(o.error is not None for o in outcomes) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Introspective context-sensitive points-to analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="analyze a source file")
    p_analyze.add_argument("file", help="surface-language source file")
    p_analyze.add_argument(
        "--dump", action="store_true", help="print the lowered IR first"
    )
    _add_analysis_options(p_analyze)
    p_analyze.set_defaults(func=_cmd_analyze)

    p_bench = sub.add_parser(
        "bench",
        help="analyze a built-in benchmark, or (without a name) "
        "benchmark an engine against its baseline",
    )
    p_bench.add_argument(
        "name",
        nargs="?",
        default=None,
        help="benchmark name (see `repro benchmarks`); omit to run the "
        "engine benchmark selected by --kind",
    )
    _add_analysis_options(p_bench)
    p_bench.add_argument(
        "--suite",
        default="medium",
        help="engine-benchmark suite: tiny, small, or medium (default)",
    )
    p_bench.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="solves per (benchmark, flavor, engine) cell; best is kept",
    )
    p_bench.add_argument(
        "--flavors",
        default=None,
        help="comma-separated context flavors to benchmark (default: the "
        "kind's own sweep)",
    )
    p_bench.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: small suite, single repeat",
    )
    p_bench.add_argument(
        "--kind",
        choices=BENCH_KINDS,
        default="solver",
        help="what to benchmark: the packed vs reference solver (default), "
        "the compiled vs reference Datalog evaluator, warm incremental "
        "edit sessions vs from-scratch re-analysis, or demand queries vs "
        "full solves",
    )
    p_bench.add_argument(
        "--queries",
        type=int,
        default=6,
        metavar="N",
        help="seeded query variables per benchmark for --kind demand "
        "(default 6)",
    )
    p_bench.add_argument(
        "--receipt-dir",
        default=".",
        metavar="DIR",
        help="where to append the content-addressed repro-receipt/1 of "
        "this run (default: the current directory; docs/warehouse.md)",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_list = sub.add_parser("benchmarks", help="list built-in benchmarks")
    p_list.set_defaults(func=_cmd_benchmarks)

    p_serve = sub.add_parser(
        "serve", help="run the analysis service (HTTP JSON API)"
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="bind address")
    p_serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 = ephemeral)"
    )
    p_serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="worker processes (0 = solve inline in the dispatcher)",
    )
    p_serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="enable the on-disk result-cache tier under DIR",
    )
    p_serve.add_argument(
        "--cache-size",
        type=int,
        default=128,
        metavar="N",
        help="in-memory result-cache capacity (entries); default 128",
    )
    p_serve.add_argument(
        "--receipt-dir",
        default=None,
        metavar="DIR",
        help="append a receipt for every completed (uncached) job to the "
        "results warehouse under DIR",
    )
    p_serve.add_argument(
        "--max-sessions",
        type=int,
        default=16,
        metavar="N",
        help="cap on concurrently open warm edit-sessions; creating one "
        "past the cap is a 409 (default 16)",
    )
    p_serve.add_argument(
        "--verbose", action="store_true", help="log each HTTP request"
    )
    p_serve.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="journal every accepted job to FILE (fsynced before the 202; "
        "unfinished jobs are replayed on restart; docs/service.md)",
    )
    p_serve.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="reject POST /jobs with 429 once N jobs are queued "
        "(default unbounded)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_query = sub.add_parser(
        "query",
        help="answer demand pts(v) queries over a slice (docs/queries.md)",
    )
    p_query.add_argument(
        "vars",
        nargs="*",
        metavar="VAR",
        help="qualified variable name(s), e.g. Main.main/0/result",
    )
    p_query.add_argument(
        "--batch",
        default=None,
        metavar="FILE",
        help="read extra variables from FILE (one per line, # comments)",
    )
    p_query.add_argument(
        "--benchmark",
        default=None,
        metavar="NAME",
        help="query a built-in benchmark (see `repro benchmarks`)",
    )
    p_query.add_argument(
        "--source",
        default=None,
        metavar="FILE",
        help="query a surface-language source file",
    )
    p_query.add_argument(
        "--flavor",
        default="insens",
        help="context flavor: any analysis name (2objH, 2typeH, ...) or "
        "introspective-A/-B (default insens)",
    )
    p_query.add_argument(
        "--max-tuples",
        type=int,
        default=None,
        metavar="N",
        help="per-query tuple budget (same semantics as --budget)",
    )
    p_query.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        metavar="S",
        help="per-query wall-clock budget in seconds",
    )
    p_query.add_argument(
        "--json", action="store_true", help="print answers as JSON"
    )
    p_query.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="record the query.plan/query.slice/query.solve spans and write "
        "them as Chrome trace_event JSON (FILE defaults to TRACE.json); the "
        "span summary goes to stderr under --json",
    )
    p_query.set_defaults(func=_cmd_query)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: mutate programs, cross-check engines",
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign RNG seed (default 0)"
    )
    p_fuzz.add_argument(
        "--budget",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="wall-clock budget (default 30)",
    )
    p_fuzz.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="stop after N mutants even if budget remains",
    )
    p_fuzz.add_argument(
        "--corpus-dir",
        default="tests/corpus",
        metavar="DIR",
        help="where shrunk counterexamples are written (default tests/corpus)",
    )
    p_fuzz.add_argument(
        "--flavors",
        default=",".join(("2objH", "2typeH", "2callH")),
        help="comma-separated context-sensitive flavors to cross-check",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging minimization of counterexamples",
    )
    p_fuzz.add_argument(
        "--replay",
        default=None,
        metavar="PATH",
        help="replay a corpus entry or directory instead of fuzzing",
    )
    p_fuzz.add_argument(
        "--receipt-dir",
        default=None,
        metavar="DIR",
        help="append a campaign receipt (stats + violations) to the "
        "results warehouse under DIR",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_report = sub.add_parser(
        "report",
        help="results warehouse: score the perf trajectory from receipts",
    )
    p_report.add_argument(
        "inputs",
        nargs="+",
        metavar="PATH",
        help="receipt files and/or warehouse directories",
    )
    p_report.add_argument(
        "--baseline",
        default=None,
        metavar="RECEIPT",
        help="receipt file (or digest prefix) pinning the baseline sample "
        "of every cell it covers; default: each cell's earliest sample",
    )
    p_report.add_argument(
        "--json",
        default=None,
        metavar="FILE",
        help="write the scored trajectory as repro-report/1 JSON",
    )
    p_report.add_argument(
        "--gate",
        action="store_true",
        help="exit 2 if any cell regressed by --max-regression percent "
        "or more against its baseline",
    )
    p_report.add_argument(
        "--max-regression",
        type=float,
        default=10.0,
        metavar="PCT",
        help="gate threshold in percent (default 10); a cell at exactly "
        "the threshold fails",
    )
    p_report.set_defaults(func=_cmd_report)

    p_exp = sub.add_parser(
        "experiments", help="reproduce the paper's figures (repro-experiments)"
    )
    p_exp.add_argument("rest", nargs="*", default=["all"])
    p_exp.add_argument("--markdown", action="store_true")
    p_exp.set_defaults(
        func=lambda a: experiments_main(
            a.rest + (["--markdown"] if a.markdown else [])
        )
    )

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
