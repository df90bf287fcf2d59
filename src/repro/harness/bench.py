"""Engine benchmark harness: live engines vs their frozen baselines.

This is the measurement side of the repository's two engine rewrites.

**Solver benchmark** (``run_suite``, ``BENCH_solver.json``): runs a suite
of generated benchmark programs (:mod:`repro.benchgen`) across the three
main context flavors under two engines:

* ``reference`` — :mod:`repro.analysis.reference_solver`, a frozen
  snapshot of the pre-optimization solver (tuple-pair points-to sets,
  scan-based cast filters, string-tag consumer dispatch);
* ``packed`` — the current :mod:`repro.analysis.solver` (dense pair ids,
  incremental cast-filter index, per-kind consumers).

**Datalog benchmark** (``run_datalog_suite``, ``BENCH_datalog.json``):
runs the paper's full Figure 3 model
(:class:`~repro.analysis.datalog_model.DatalogPointsToAnalysis`) over its
own generated suites under two Datalog evaluators:

* ``reference`` — :mod:`repro.datalog.reference_engine`, the frozen
  dict-environment interpreter;
* ``compiled`` — the current :mod:`repro.datalog.engine` (compiled join
  plans, slot registers, indexed deltas).

Both comparisons share the same measurement hygiene and report shape; the
Datalog cells assert equal database row counts instead of solver tuple
counts.

Each (benchmark, flavor) cell is solved ``repeat`` times per engine,
interleaved so slow machine drift hits both engines alike, and the best
time is kept.  Both wall-clock (``seconds``) and process CPU time
(``cpu_seconds``) are recorded; the ``speedups`` table is computed from
CPU time because the solver is single-threaded pure compute, and CPU
time is robust against other processes sharing the machine (CI runners,
laptops), where wall-clock can swing by tens of percent.  The harness
*asserts* that both engines derive exactly the same number of tuples —
a run that diverges is a correctness bug, not a benchmark result.

The report is written as ``BENCH_solver.json`` with the schema documented
in ``docs/performance.md`` (``repro-bench-solver/1``).  ``peak_rss_kb``
is ``ru_maxrss`` after the cell ran; being a process-lifetime high-water
mark it only ever grows, so treat it as "memory needed to get this far",
not a per-cell delta.
"""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import random
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

try:  # POSIX only; peak RSS is reported as None elsewhere.
    import resource
except ImportError:  # pragma: no cover - non-POSIX platform
    resource = None  # type: ignore[assignment]

from ..analysis.datalog_model import DatalogPointsToAnalysis
from ..analysis.reference_solver import reference_solve
from ..analysis.solver import solve as packed_solve
from ..benchgen.generator import generate
from ..benchgen.spec import BenchmarkSpec, HubSpec
from ..contexts.policies import policy_by_name
from ..datalog.engine import Engine as CompiledEngine
from ..datalog.reference_engine import ReferenceEngine
from ..facts.encoder import encode_program
from ..fuzz.oracles import solver_relations
from ..fuzz.sketch import ProgramSketch
from ..incremental.edits import random_edit_script
from ..incremental.session import RESULT_RELATIONS, IncrementalSession
from ..obs import Tracer
from ..utils import atomic_write_text

__all__ = [
    "BENCH_SCHEMA",
    "DATALOG_BENCH_SCHEMA",
    "DATALOG_ENGINES",
    "DEFAULT_DEMAND_FLAVORS",
    "DEFAULT_FLAVORS",
    "DEMAND_BENCH_SCHEMA",
    "ENGINES",
    "INCREMENTAL_BENCH_SCHEMA",
    "INCREMENTAL_EDIT_KINDS",
    "datalog_suite_names",
    "datalog_suite_specs",
    "run_datalog_suite",
    "run_demand_suite",
    "run_incremental_suite",
    "run_trace_cell",
    "suite_names",
    "suite_specs",
    "run_suite",
    "write_report",
]

BENCH_SCHEMA = "repro-bench-solver/1"
DATALOG_BENCH_SCHEMA = "repro-bench-datalog/1"
INCREMENTAL_BENCH_SCHEMA = "repro-bench-incremental/1"
DEMAND_BENCH_SCHEMA = "repro-bench-demand/1"

#: Flavors the demand bench sweeps — the context-sensitive ones a query
#: would otherwise pay a full solve for, including an introspective
#: variant (the engine's two-pass refinement decision).
DEFAULT_DEMAND_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "introspective-A")

#: The monotonic edit vocabulary the incremental bench measures — one
#: cell per kind, all absorbed by the warm solver's fast path.
INCREMENTAL_EDIT_KINDS: Tuple[str, ...] = (
    "alloc",
    "move",
    "new-call",
    "new-entry",
)
DEFAULT_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "2callH")
ENGINES: Tuple[str, ...] = ("reference", "packed")
DATALOG_ENGINES: Tuple[str, ...] = ("reference", "compiled")

#: Benchmark suites.  All programs are pathology-hub workloads — the
#: paper's explosion structure and the solver's dominant cost — sized so
#: every flavor terminates without a budget.  ``tiny`` is for unit tests,
#: ``small`` for CI smoke runs (`repro bench --quick`), ``medium`` for
#: the committed BENCH_solver.json trajectory.
_SUITES: Dict[str, Tuple[BenchmarkSpec, ...]] = {
    "tiny": (
        BenchmarkSpec(
            name="micro",
            util_classes=4,
            util_methods_per_class=3,
            strategy_clusters=(3,),
            box_groups=(3,),
            sink_groups=(3,),
            hubs=(HubSpec(readers=6, elements=5, chain=3),),
        ),
    ),
    "small": (
        BenchmarkSpec(
            name="minihub",
            util_classes=10,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=20,
                    elements=16,
                    payloads_per_element=3,
                    chain=5,
                ),
            ),
        ),
        BenchmarkSpec(
            name="typedhub",
            util_classes=10,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=16,
                    elements=12,
                    payloads_per_element=3,
                    chain=5,
                    distinct_reader_classes=True,
                ),
            ),
        ),
    ),
    "medium": (
        BenchmarkSpec(
            name="megahub",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=70,
                    elements=60,
                    payloads_per_element=30,
                    chain=12,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                ),
            ),
        ),
        BenchmarkSpec(
            name="mixedhubs",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=60,
                    elements=48,
                    payloads_per_element=30,
                    chain=12,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                ),
                HubSpec(
                    readers=40,
                    elements=30,
                    payloads_per_element=24,
                    chain=10,
                    reader_call_sites=2,
                ),
            ),
        ),
        BenchmarkSpec(
            name="wrappers",
            util_classes=24,
            util_methods_per_class=8,
            hubs=(
                HubSpec(
                    readers=50,
                    elements=40,
                    payloads_per_element=24,
                    chain=10,
                    reader_call_sites=2,
                    distinct_reader_classes=True,
                    wrapper_depth=3,
                ),
            ),
        ),
    ),
}

_ENGINE_SOLVERS = {"reference": reference_solve, "packed": packed_solve}

#: Datalog-model benchmark suites.  Deliberately much smaller than the
#: solver suites: every cell runs the full Figure 3 rule model through a
#: pure-Python Datalog evaluator, and the frozen reference interpreter is
#: orders of magnitude slower than the worklist solver.  ``tiny`` is for
#: unit tests, ``small`` for CI smoke runs (``--quick``), ``medium`` for
#: the committed BENCH_datalog.json trajectory.
_DATALOG_SUITES: Dict[str, Tuple[BenchmarkSpec, ...]] = {
    "tiny": (
        BenchmarkSpec(
            name="dl-micro",
            util_classes=4,
            util_methods_per_class=3,
            strategy_clusters=(3,),
            box_groups=(3,),
            sink_groups=(3,),
            hubs=(HubSpec(readers=6, elements=5, chain=3),),
        ),
    ),
    "small": (
        BenchmarkSpec(
            name="dl-minihub",
            util_classes=6,
            util_methods_per_class=3,
            hubs=(HubSpec(readers=10, elements=8, chain=4),),
        ),
        BenchmarkSpec(
            name="dl-clusters",
            util_classes=6,
            util_methods_per_class=4,
            strategy_clusters=(4, 3),
            box_groups=(4,),
            sink_groups=(4,),
        ),
    ),
    "medium": (
        BenchmarkSpec(
            name="dl-hub",
            util_classes=8,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=16,
                    elements=12,
                    payloads_per_element=2,
                    chain=5,
                ),
            ),
        ),
        BenchmarkSpec(
            name="dl-typedhub",
            util_classes=8,
            util_methods_per_class=4,
            hubs=(
                HubSpec(
                    readers=12,
                    elements=10,
                    payloads_per_element=2,
                    chain=4,
                    distinct_reader_classes=True,
                ),
            ),
        ),
        BenchmarkSpec(
            name="dl-mixed",
            util_classes=10,
            util_methods_per_class=4,
            strategy_clusters=(4, 4),
            box_groups=(5,),
            sink_groups=(5,),
            static_chain_depth=3,
            static_chain_fanout=2,
            static_chain_payloads=2,
            exception_sites=3,
            hubs=(HubSpec(readers=8, elements=6, chain=3),),
        ),
    ),
}

_DATALOG_ENGINE_FACTORIES = {
    "reference": ReferenceEngine,
    "compiled": CompiledEngine,
}


def suite_names() -> List[str]:
    return sorted(_SUITES)


def suite_specs(suite: str) -> Tuple[BenchmarkSpec, ...]:
    try:
        return _SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; try one of: {', '.join(suite_names())}"
        ) from None


def datalog_suite_names() -> List[str]:
    return sorted(_DATALOG_SUITES)


def datalog_suite_specs(suite: str) -> Tuple[BenchmarkSpec, ...]:
    try:
        return _DATALOG_SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown datalog suite {suite!r}; try one of: "
            f"{', '.join(datalog_suite_names())}"
        ) from None


def _provenance() -> Dict[str, object]:
    """Host/interpreter provenance recorded in every BENCH_*.json.

    A speedup number is only interpretable against the machine that
    produced it, so every report carries the Python
    version, platform, visible CPU count, and whether the cyclic GC was
    enabled in the harness process (the timed sections always pause it;
    this records the ambient state around them).
    """
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
    }


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KB (ru_maxrss; None where unsupported)."""
    if resource is None:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def run_suite(
    suite: str = "medium",
    flavors: Sequence[str] = DEFAULT_FLAVORS,
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Benchmark both engines over a suite; return the report dict.

    Raises ``RuntimeError`` if the engines disagree on any cell's derived
    tuple count (they implement the same analysis; disagreement means a
    bug, and the timing numbers would be meaningless).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    specs = suite_specs(suite)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for spec in specs:
        program = generate(spec)
        facts = encode_program(program)
        say(f"{spec.name}: {program.summary()}")
        for flavor in flavors:
            policy = policy_by_name(
                flavor, alloc_class_of=facts.alloc_class_of
            )
            best_wall: Dict[str, float] = {}
            best_cpu: Dict[str, float] = {}
            tuples: Dict[str, int] = {}
            for _ in range(repeat):
                # Interleave engines so machine drift hits both equally;
                # collect the previous run's garbage and pause the cyclic
                # GC during each timed solve so neither engine is billed
                # for the other's leftovers.
                for engine in ENGINES:
                    solve = _ENGINE_SOLVERS[engine]
                    gc.collect()
                    gc.disable()
                    try:
                        w0 = time.perf_counter()
                        c0 = time.process_time()
                        raw = solve(program, policy, facts=facts)
                        cpu = time.process_time() - c0
                        wall = time.perf_counter() - w0
                    finally:
                        gc.enable()
                    if wall < best_wall.get(engine, math.inf):
                        best_wall[engine] = wall
                    if cpu < best_cpu.get(engine, math.inf):
                        best_cpu[engine] = cpu
                    tuples[engine] = raw.tuple_count
                    raw = None
            if tuples["packed"] != tuples["reference"]:
                raise RuntimeError(
                    f"engine disagreement on {spec.name}/{flavor}: "
                    f"packed={tuples['packed']} "
                    f"reference={tuples['reference']} tuples"
                )
            for engine in ENGINES:
                seconds = best_wall[engine]
                cpu_seconds = best_cpu[engine]
                entries.append(
                    {
                        "benchmark": spec.name,
                        "flavor": flavor,
                        "engine": engine,
                        "seconds": round(seconds, 6),
                        "cpu_seconds": round(cpu_seconds, 6),
                        "tuples": tuples[engine],
                        "tuples_per_second": round(
                            tuples[engine] / cpu_seconds
                        )
                        if cpu_seconds > 0
                        else None,
                        "peak_rss_kb": _peak_rss_kb(),
                    }
                )
            cell = f"{spec.name}/{flavor}"
            speedup = best_cpu["reference"] / best_cpu["packed"]
            speedups[cell] = round(speedup, 3)
            say(
                f"  {flavor:7s} tuples={tuples['packed']:>9d} "
                f"reference={best_cpu['reference']:.3f}s "
                f"packed={best_cpu['packed']:.3f}s  {speedup:.2f}x"
            )
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )
    say(f"geomean speedup: {geomean:.2f}x")
    return {
        "schema": BENCH_SCHEMA,
        "suite": suite,
        "flavors": list(flavors),
        "repeat": repeat,
        "workers": 1,
        **_provenance(),
        "engines": list(ENGINES),
        "entries": entries,
        "speedups": speedups,
        "geomean_speedup": round(geomean, 3),
    }


def run_datalog_suite(
    suite: str = "medium",
    flavors: Sequence[str] = DEFAULT_FLAVORS,
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Benchmark both Datalog evaluators over a suite; return the report.

    Each timed run builds a fresh :class:`DatalogPointsToAnalysis` —
    construction loads the EDB through the same ``Database.add_fact`` path
    for both engines, so the cells compare end-to-end model evaluation.
    The policy is also rebuilt per run: policies memoize context tuples,
    and a warm cache must not favor whichever engine runs second.

    Raises ``RuntimeError`` if the engines disagree on any cell's total
    database row count (same rules, same facts — disagreement is a bug).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    specs = datalog_suite_specs(suite)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for spec in specs:
        program = generate(spec)
        facts = encode_program(program)
        say(f"{spec.name}: {program.summary()}")
        for flavor in flavors:
            best_wall: Dict[str, float] = {}
            best_cpu: Dict[str, float] = {}
            rows: Dict[str, int] = {}
            for _ in range(repeat):
                # Same hygiene as the solver cells: interleave engines,
                # sweep the previous run's garbage, pause the cyclic GC
                # while the clock runs.
                for engine in DATALOG_ENGINES:
                    factory = _DATALOG_ENGINE_FACTORIES[engine]
                    policy = policy_by_name(
                        flavor, alloc_class_of=facts.alloc_class_of
                    )
                    gc.collect()
                    gc.disable()
                    try:
                        w0 = time.perf_counter()
                        c0 = time.process_time()
                        analysis = DatalogPointsToAnalysis(
                            program,
                            policy,
                            facts=facts,
                            engine_factory=factory,
                        )
                        analysis.run()
                        cpu = time.process_time() - c0
                        wall = time.perf_counter() - w0
                    finally:
                        gc.enable()
                    if wall < best_wall.get(engine, math.inf):
                        best_wall[engine] = wall
                    if cpu < best_cpu.get(engine, math.inf):
                        best_cpu[engine] = cpu
                    rows[engine] = analysis.engine.db.total_rows()
                    analysis = None
            if rows["compiled"] != rows["reference"]:
                raise RuntimeError(
                    f"engine disagreement on {spec.name}/{flavor}: "
                    f"compiled={rows['compiled']} "
                    f"reference={rows['reference']} rows"
                )
            for engine in DATALOG_ENGINES:
                seconds = best_wall[engine]
                cpu_seconds = best_cpu[engine]
                entries.append(
                    {
                        "benchmark": spec.name,
                        "flavor": flavor,
                        "engine": engine,
                        "seconds": round(seconds, 6),
                        "cpu_seconds": round(cpu_seconds, 6),
                        "rows": rows[engine],
                        "rows_per_second": round(rows[engine] / cpu_seconds)
                        if cpu_seconds > 0
                        else None,
                        "peak_rss_kb": _peak_rss_kb(),
                    }
                )
            cell = f"{spec.name}/{flavor}"
            speedup = best_cpu["reference"] / best_cpu["compiled"]
            speedups[cell] = round(speedup, 3)
            say(
                f"  {flavor:7s} rows={rows['compiled']:>9d} "
                f"reference={best_cpu['reference']:.3f}s "
                f"compiled={best_cpu['compiled']:.3f}s  {speedup:.2f}x"
            )
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )
    say(f"geomean speedup: {geomean:.2f}x")
    return {
        "schema": DATALOG_BENCH_SCHEMA,
        "suite": suite,
        "flavors": list(flavors),
        "repeat": repeat,
        "workers": 1,
        **_provenance(),
        "engines": list(DATALOG_ENGINES),
        "entries": entries,
        "speedups": speedups,
        "geomean_speedup": round(geomean, 3),
    }


def run_incremental_suite(
    suite: str = "medium",
    flavors: Sequence[str] = DEFAULT_FLAVORS,
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Benchmark warm edit-sessions against from-scratch re-analysis.

    For every (benchmark, flavor) cell a single
    :class:`~repro.incremental.session.IncrementalSession` is warmed up
    once (unmeasured) over the packed solver, then fed ``repeat`` seeded
    single edits of each kind in :data:`INCREMENTAL_EDIT_KINDS`.  Each
    edit is timed end-to-end — sketch mutation, program rebuild, fact
    diff, tier classification, and the warm solve — because that is what
    an editing service pays per keystroke.  The best CPU time per kind is
    compared against the best of ``repeat`` from-scratch runs — build +
    encode + policy + solve + result-relation materialization of the
    final edited program, the exact work a session-less server redoes
    to answer the same queries (``session.apply`` leaves
    ``session.relations()`` current; scratch must materialize them from
    the raw solution); ``speedups`` is keyed ``benchmark/flavor/kind``.

    Correctness is asserted, not sampled: after each cell's edits the
    warm relations are compared tuple-for-tuple against the from-scratch
    result over all of :data:`RESULT_RELATIONS`; any difference raises
    ``RuntimeError`` (the timing numbers would be meaningless).  Each
    entry also records which tiers the session actually took — a fall
    back to ``full`` shows up in the data rather than silently inflating
    the baseline's advantage.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    specs = suite_specs(suite)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    for spec in specs:
        sketch = ProgramSketch.from_program(generate(spec))
        for flavor in flavors:
            session = IncrementalSession(
                sketch, analysis=flavor, engine="solver"
            )
            say(
                f"{spec.name}/{flavor}: warm solve "
                f"{session.initial_solve_seconds:.3f}s "
                f"({session.program.summary()})"
            )
            # Seeded by cell name so runs are reproducible across
            # processes (str seeds hash deterministically in random).
            rng = random.Random(f"{spec.name}/{flavor}")
            kind_cpu: Dict[str, float] = {}
            kind_wall: Dict[str, float] = {}
            kind_tiers: Dict[str, List[str]] = {}
            kind_rows: Dict[str, int] = {}
            for kind in INCREMENTAL_EDIT_KINDS:
                tiers: List[str] = []
                for _ in range(repeat):
                    script = random_edit_script(
                        session.sketch,
                        rng,
                        edits=1,
                        allow_removals=False,
                        kinds=(kind,),
                    )
                    gc.collect()
                    gc.disable()
                    try:
                        w0 = time.perf_counter()
                        c0 = time.process_time()
                        outcome = session.apply(script)
                        cpu = time.process_time() - c0
                        wall = time.perf_counter() - w0
                    finally:
                        gc.enable()
                    if cpu < kind_cpu.get(kind, math.inf):
                        kind_cpu[kind] = cpu
                        kind_wall[kind] = wall
                    tiers.append(outcome.tier)
                    kind_rows[kind] = outcome.result_rows_added
                kind_tiers[kind] = tiers
            # One from-scratch baseline per cell: the final program is
            # one tiny edit away from every measured state, so its
            # scratch cost stands in for each edit's non-warm cost.
            # Timed end-to-end to the same artifact the warm path keeps
            # current: rebuild the program from the sketch, encode,
            # solve, and materialize the result relations.
            scratch_cpu = math.inf
            scratch_wall = math.inf
            scratch: Dict[str, object] = {}
            for _ in range(repeat):
                gc.collect()
                gc.disable()
                try:
                    w0 = time.perf_counter()
                    c0 = time.process_time()
                    program = session.sketch.build()
                    facts = encode_program(program)
                    policy = policy_by_name(
                        flavor, alloc_class_of=facts.alloc_class_of
                    )
                    raw = packed_solve(program, policy, facts=facts)
                    relations = solver_relations(raw)
                    cpu = time.process_time() - c0
                    wall = time.perf_counter() - w0
                finally:
                    gc.enable()
                scratch_cpu = min(scratch_cpu, cpu)
                scratch_wall = min(scratch_wall, wall)
                scratch = dict(zip(RESULT_RELATIONS, relations))
                raw = relations = None
            warm = session.relations()
            bad = [
                name
                for name in RESULT_RELATIONS
                if warm[name] != scratch[name]
            ]
            if bad:
                raise RuntimeError(
                    f"warm session diverged from scratch on "
                    f"{spec.name}/{flavor}: {', '.join(bad)}"
                )
            for kind in INCREMENTAL_EDIT_KINDS:
                cell = f"{spec.name}/{flavor}/{kind}"
                speedup = scratch_cpu / kind_cpu[kind]
                speedups[cell] = round(speedup, 3)
                entries.append(
                    {
                        "benchmark": spec.name,
                        "flavor": flavor,
                        "edit": kind,
                        "tiers": kind_tiers[kind],
                        "seconds": round(kind_wall[kind], 6),
                        "cpu_seconds": round(kind_cpu[kind], 6),
                        "scratch_seconds": round(scratch_wall, 6),
                        "scratch_cpu_seconds": round(scratch_cpu, 6),
                        "result_rows_added": kind_rows[kind],
                        "relations_checked": list(RESULT_RELATIONS),
                        "peak_rss_kb": _peak_rss_kb(),
                    }
                )
                say(
                    f"  {flavor:7s} {kind:9s} "
                    f"warm={kind_cpu[kind] * 1000:7.1f}ms "
                    f"scratch={scratch_cpu:.3f}s  {speedup:.2f}x "
                    f"[{'/'.join(sorted(set(kind_tiers[kind])))}]"
                )
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )
    say(f"geomean speedup: {geomean:.2f}x")
    return {
        "schema": INCREMENTAL_BENCH_SCHEMA,
        "suite": suite,
        "flavors": list(flavors),
        "repeat": repeat,
        "edit_kinds": list(INCREMENTAL_EDIT_KINDS),
        "workers": 1,
        **_provenance(),
        "engines": ["warm", "scratch"],
        "entries": entries,
        "speedups": speedups,
        "geomean_speedup": round(geomean, 3),
    }


def run_demand_suite(
    suite: str = "medium",
    flavors: Sequence[str] = DEFAULT_DEMAND_FLAVORS,
    repeat: int = 3,
    queries: int = 6,
    seed: int = 2014,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, object]:
    """Benchmark demand queries against full solves; return the report.

    Per (benchmark, flavor) cell: one full packed solve (best of
    ``repeat``, the same GC hygiene as :func:`run_suite`) is the
    baseline; ``queries`` variables drawn by a seeded RNG are then
    answered two ways through one warm :class:`~repro.query.QueryEngine`:

    * ``query`` — each variable alone, memos cleared before every timing
      so the latency is a cold plan + sliced solve (the planner and the
      insensitive pass stay warm — the steady state of a long-lived
      engine, whose one-time warm-up is reported separately);
    * ``batch`` — all variables in one ``query_batch`` sharing a single
      union-solve; its per-query cost is the batch wall clock divided by
      the number of variables.

    Speedup cells (``bench/flavor/query`` and ``bench/flavor/batch``)
    divide the full-solve wall clock by the per-query wall clock, so
    they read "a query costs 1/Nth of solving the program".  Every
    answer is asserted equal to the full solve's projection for that
    variable — a disagreement means the slice closure is broken and the
    timings would be meaningless.
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    from ..analysis import analyze
    from ..query import QueryEngine

    specs = suite_specs(suite)
    rng = random.Random(seed)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    entries: List[Dict[str, object]] = []
    speedups: Dict[str, float] = {}
    footprints: List[float] = []
    warmup_seconds: Dict[str, float] = {}
    for spec in specs:
        program = generate(spec)
        facts = encode_program(program)
        say(f"{spec.name}: {program.summary()}")
        all_vars = sorted({var for var, _m in facts.varinmeth})
        picked = rng.sample(all_vars, min(queries, len(all_vars)))
        w0 = time.perf_counter()
        engine = QueryEngine(program, facts=facts)
        warmup_seconds[spec.name] = round(time.perf_counter() - w0, 6)
        for flavor in flavors:
            policy = engine.policy(flavor)
            full_wall = math.inf
            full = None
            for _ in range(repeat):
                gc.collect()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    raw = analyze(program, policy, facts=facts)
                    wall = time.perf_counter() - t0
                finally:
                    gc.enable()
                if wall < full_wall:
                    full_wall = wall
                    full = raw
                raw = None
            cell_speedups: List[float] = []
            for var in picked:
                best = math.inf
                answer = None
                for _ in range(repeat):
                    engine.clear_memos()
                    gc.collect()
                    gc.disable()
                    try:
                        answer = engine.query(var, flavor)
                    finally:
                        gc.enable()
                    best = min(best, answer.seconds)
                expected = frozenset(full.var_points_to.get(var, ()))
                if answer.points_to != expected:
                    raise RuntimeError(
                        f"demand/full disagreement on "
                        f"{spec.name}/{flavor}/{var}: "
                        f"query={len(answer.points_to)} "
                        f"full={len(expected)} heaps"
                    )
                speedup = full_wall / best if best > 0 else math.inf
                cell_speedups.append(speedup)
                footprints.append(answer.footprint)
                entries.append(
                    {
                        "benchmark": spec.name,
                        "flavor": flavor,
                        "var": var,
                        "query_seconds": round(best, 6),
                        "full_seconds": round(full_wall, 6),
                        "speedup": round(speedup, 3),
                        "points_to": len(answer.points_to),
                        "slice_variables": answer.slice_variables,
                        "slice_methods": answer.slice_methods,
                        "slice_tuples": answer.slice_tuples,
                        "footprint": round(answer.footprint, 6),
                        "peak_rss_kb": _peak_rss_kb(),
                    }
                )
            batch_wall = math.inf
            for _ in range(repeat):
                engine.clear_memos()
                gc.collect()
                gc.disable()
                try:
                    t0 = time.perf_counter()
                    outcomes = engine.query_batch(picked, flavor)
                    wall = time.perf_counter() - t0
                finally:
                    gc.enable()
                batch_wall = min(batch_wall, wall)
            for outcome in outcomes:
                expected = frozenset(
                    full.var_points_to.get(outcome.var, ())
                )
                if (
                    outcome.answer is None
                    or outcome.answer.points_to != expected
                ):
                    raise RuntimeError(
                        f"batch/full disagreement on "
                        f"{spec.name}/{flavor}/{outcome.var}"
                    )
            per_query = batch_wall / len(picked)
            cell = f"{spec.name}/{flavor}"
            query_speedup = math.exp(
                sum(math.log(s) for s in cell_speedups)
                / len(cell_speedups)
            )
            batch_speedup = full_wall / per_query if per_query > 0 else math.inf
            speedups[f"{cell}/query"] = round(query_speedup, 3)
            speedups[f"{cell}/batch"] = round(batch_speedup, 3)
            say(
                f"  {flavor:15s} full={full_wall:.3f}s "
                f"query={query_speedup:.1f}x batch={batch_speedup:.1f}x"
            )
            full = None
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )
    ordered = sorted(footprints)
    median_footprint = ordered[len(ordered) // 2]
    say(
        f"geomean speedup: {geomean:.2f}x  "
        f"median footprint: {median_footprint:.4f}"
    )
    return {
        "schema": DEMAND_BENCH_SCHEMA,
        "suite": suite,
        "flavors": list(flavors),
        "repeat": repeat,
        "queries": queries,
        "seed": seed,
        "workers": 1,
        **_provenance(),
        "engines": ["packed-full", "packed-slice"],
        "warmup_seconds": warmup_seconds,
        "entries": entries,
        "speedups": speedups,
        "median_footprint": round(median_footprint, 6),
        "geomean_speedup": round(geomean, 3),
    }


def run_trace_cell(
    suite: str = "medium",
    flavor: str = "2objH",
    repeat: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Tuple[Dict[str, object], Tracer]:
    """Measure tracing overhead on one cell; return (cell report, tracer).

    Runs the first benchmark of ``suite`` under the packed solver twice
    per repeat — once with a :class:`~repro.obs.Tracer` attached, once
    without, interleaved with the same GC hygiene as :func:`run_suite` —
    and keeps the best CPU time of each mode.  ``overhead_percent`` is how
    much slower the best traced solve was than the best untraced one; the
    tracer's design target is <5% (``docs/observability.md``).  The two
    modes must derive the same tuple count — tracing that changed the
    result would be a bug, and :mod:`repro.fuzz` has an oracle for it.

    The returned tracer holds the spans of the *last* traced solve (each
    repeat uses a fresh tracer so span counts describe one run).
    """
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    spec = suite_specs(suite)[0]
    program = generate(spec)
    facts = encode_program(program)
    policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    say(f"trace cell: {spec.name}/{flavor} ({program.summary()})")
    best_cpu = {"traced": math.inf, "untraced": math.inf}
    tuples: Dict[str, int] = {}
    tracer = Tracer()
    for _ in range(repeat):
        for mode in ("untraced", "traced"):
            cell_tracer = Tracer() if mode == "traced" else None
            gc.collect()
            gc.disable()
            try:
                c0 = time.process_time()
                raw = packed_solve(
                    program, policy, facts=facts, tracer=cell_tracer
                )
                cpu = time.process_time() - c0
            finally:
                gc.enable()
            best_cpu[mode] = min(best_cpu[mode], cpu)
            tuples[mode] = raw.tuple_count
            if cell_tracer is not None:
                tracer = cell_tracer
            raw = None
    if tuples["traced"] != tuples["untraced"]:
        raise RuntimeError(
            f"tracing changed the result on {spec.name}/{flavor}: "
            f"traced={tuples['traced']} untraced={tuples['untraced']} tuples"
        )
    overhead = (
        (best_cpu["traced"] / best_cpu["untraced"] - 1.0) * 100.0
        if best_cpu["untraced"] > 0
        else 0.0
    )
    say(
        f"  untraced={best_cpu['untraced']:.3f}s "
        f"traced={best_cpu['traced']:.3f}s  overhead={overhead:+.2f}%"
    )
    cell: Dict[str, object] = {
        "benchmark": spec.name,
        "flavor": flavor,
        "repeat": repeat,
        "tuples": tuples["traced"],
        "untraced_cpu_seconds": round(best_cpu["untraced"], 6),
        "traced_cpu_seconds": round(best_cpu["traced"], 6),
        "overhead_percent": round(overhead, 2),
        "span_names": tracer.span_names(),
        "events": len(tracer.chrome_trace()["traceEvents"]),
    }
    return cell, tracer


def write_report(report: Dict[str, object], path: str) -> None:
    """Write a ``BENCH_*.json`` report atomically.

    An interrupted bench run (ctrl-C, OOM kill, power loss) must never
    leave a truncated report behind — downstream, the results warehouse
    ingests these files as evidence, and a half-written artifact would
    poison the trajectory.  ``atomic_write_text`` serializes fully
    first, then lands the bytes via temp file + ``os.replace``.
    """
    atomic_write_text(
        path, json.dumps(report, indent=2, sort_keys=False) + "\n"
    )
