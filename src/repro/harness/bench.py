"""Engine benchmark harness: live engines vs their baselines, as receipts.

One loop (:func:`run_bench`) measures every bench kind and returns a
validated ``repro-receipt/1`` (:mod:`repro.warehouse.receipt`).  A kind
supplies only its workload — a stream of (benchmark, flavor) cells — and,
per cell, its variants, a measure function and an equality check:

* ``solver`` — the frozen :mod:`repro.analysis.reference_solver` vs the
  packed :mod:`repro.analysis.solver`, equal tuple counts asserted.  With
  tracing on, the first cell also times a ``traced`` packed variant
  (:func:`trace_overhead`); its overhead against the untraced packed
  solve lands in the ``trace`` block;
* ``datalog`` — the paper's Figure 3 model
  (:class:`~repro.analysis.datalog_model.DatalogPointsToAnalysis`) under
  the frozen :mod:`repro.datalog.reference_engine` vs the compiled
  :mod:`repro.datalog.engine`, equal database row counts asserted;
* ``incremental`` — one warm
  :class:`~repro.incremental.session.IncrementalSession` per cell absorbing
  seeded single edits of each kind in :data:`INCREMENTAL_EDIT_KINDS` vs
  rebuilding, encoding, solving and materializing the result relations
  from scratch; the warm relations must equal the scratch ones;
* ``demand`` — cold single-variable queries (``query``) and one shared
  union-solve (``batch``) through a warm :class:`~repro.query.QueryEngine`
  vs a full packed solve; every answer must equal the full projection.

Measurement hygiene lives in :func:`best_of`: variants are interleaved
within each repeat so machine drift hits all of them alike, the previous
run's garbage is collected and the cyclic GC paused while the clock runs,
and the best wall (``seconds``) and process CPU time (``cpu_seconds``) of
``repeat`` runs are kept.  Speedups divide the baseline's CPU time by the
variant's CPU time per answered query: the engines are single-threaded
pure compute, and CPU time is robust against other processes sharing the
machine, where wall clock can swing by tens of percent.  A cell whose
variants disagree raises ``RuntimeError`` — a divergence is a correctness
bug, not a benchmark result.

``peak_rss_kb`` is ``ru_maxrss`` after the cell ran; being a
process-lifetime high-water mark it only ever grows, so treat it as
"memory needed to get this far", not a per-cell delta.  The payload of
each kind is documented in ``docs/performance.md``.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

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
from ..warehouse.receipt import make_receipt

__all__ = [
    "BENCH_KINDS",
    "DEFAULT_DEMAND_FLAVORS",
    "DEFAULT_FLAVORS",
    "INCREMENTAL_EDIT_KINDS",
    "Timing",
    "best_of",
    "run_bench",
    "suite_names",
    "suite_specs",
]

#: The context flavors the solver, Datalog and incremental kinds sweep.
DEFAULT_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "2callH")

#: Flavors the demand kind sweeps — the context-sensitive ones a query
#: would otherwise pay a full solve for, including an introspective
#: variant (the engine's two-pass refinement decision).
DEFAULT_DEMAND_FLAVORS: Tuple[str, ...] = ("2objH", "2typeH", "introspective-A")

#: The monotonic edit vocabulary the incremental kind measures — one
#: variant per kind, all absorbed by the warm solver's fast path.
INCREMENTAL_EDIT_KINDS: Tuple[str, ...] = (
    "alloc",
    "move",
    "new-call",
    "new-entry",
)

#: Seed of the demand kind's query-variable sample.
DEMAND_SEED = 2014

#: Benchmark suites.  All programs are pathology-hub workloads — the
#: paper's explosion structure and the solver's dominant cost — sized so
#: every flavor terminates without a budget.  ``tiny`` is for unit tests,
#: ``small`` for CI smoke runs (`repro bench --quick`), ``medium`` for
#: the committed receipts under ``benchmarks/receipts``.
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

#: Datalog-kind suites.  Deliberately much smaller than the solver
#: suites: every cell runs the full Figure 3 rule model through a
#: pure-Python Datalog evaluator, and the frozen reference interpreter is
#: orders of magnitude slower than the worklist solver.
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


@dataclass(frozen=True)
class Timing:
    """Best wall clock and best process CPU time of ``repeat`` runs."""

    seconds: float
    cpu_seconds: float


def best_of(
    repeat: int,
    variants: Sequence[str],
    measure: Callable[[str], Callable[[], Any]],
) -> Tuple[Dict[str, Timing], Dict[str, Any]]:
    """Time every variant ``repeat`` times, interleaved; keep the best.

    ``measure(variant)`` does one run's untimed setup and returns the
    thunk to time.  Before each timed run the variant's previous output
    is dropped and the garbage collected, and the cyclic GC stays paused
    while the clock runs, so no variant is billed for another's
    leftovers.  Returns the best timings and each variant's last output.
    """
    wall = dict.fromkeys(variants, math.inf)
    cpu = dict.fromkeys(variants, math.inf)
    last: Dict[str, Any] = {}
    for _ in range(repeat):
        for variant in variants:
            timing = _timed(variant, measure, last)
            wall[variant] = min(wall[variant], timing.seconds)
            cpu[variant] = min(cpu[variant], timing.cpu_seconds)
    return {v: Timing(wall[v], cpu[v]) for v in variants}, last


def _timed(
    variant: str,
    measure: Callable[[str], Callable[[], Any]],
    last: Dict[str, Any],
) -> Timing:
    """One timed run of ``variant``, its output stored in ``last``: the
    previous output dropped and the garbage collected first, the cyclic
    GC paused while the clock runs."""
    run = measure(variant)
    last.pop(variant, None)
    gc.collect()
    gc.disable()
    try:
        w0 = time.perf_counter()
        c0 = time.process_time()
        last[variant] = run()
        cpu_seconds = time.process_time() - c0
        wall_seconds = time.perf_counter() - w0
    finally:
        gc.enable()
    return Timing(wall_seconds, cpu_seconds)


#: Fewest traced/untraced pairs :func:`trace_overhead` times, however
#: small ``repeat`` is.  On a shared 2-CPU host, the small suite's first
#: cell (about 15 ms) timed once a side read anywhere from -25% to +6%
#: on the same code; medians over five pairs still read up to +10% now
#: and then, eleven pairs' median ratio up to +5.2%, and 21 pairs' stayed
#: within 0.1-3.3% in 24 runs (the systematic overhead is about 2%).
TRACE_OVERHEAD_PAIRS = 21


def trace_overhead(
    measure: Callable[[str], Callable[[], Any]],
    pairs: int,
    last: Dict[str, Any],
) -> Tuple[float, float, float]:
    """Time the untraced (``packed``) and ``traced`` variants in
    ``pairs`` back-to-back pairs, which side runs first alternating.

    Returns the median CPU seconds of each side and the median of the
    pairs' traced/untraced ratios: the two runs of a pair share the
    host's state, so a slow phase of the machine cancels out of their
    ratio.  The last outputs land in ``last``.
    """
    untraced: List[float] = []
    traced: List[float] = []
    order = (("packed", untraced), ("traced", traced))
    for i in range(pairs):
        for variant, times in order if i % 2 == 0 else order[::-1]:
            times.append(_timed(variant, measure, last).cpu_seconds)
    ratio = statistics.median(t / max(u, 1e-9) for u, t in zip(untraced, traced))
    return statistics.median(untraced), statistics.median(traced), ratio


@dataclass
class _Cell:
    """One (benchmark, flavor) measurement of a kind.

    ``check`` receives every variant's last output, raises
    ``RuntimeError`` if they disagree, and returns the per-variant detail
    fields of the payload entries.  ``queries`` is how many answers one
    timed run of a live variant produces (speedups are per answer).
    """

    benchmark: str
    flavor: str
    variants: Tuple[str, ...]
    measure: Callable[[str], Callable[[], Any]]
    check: Callable[[Dict[str, Any]], Dict[str, Dict[str, Any]]]
    queries: int = 1


def _agree(cell: str, counts: Dict[str, int], unit: str) -> None:
    if len(set(counts.values())) > 1:
        found = " ".join(f"{v}={n}" for v, n in counts.items())
        raise RuntimeError(f"engine disagreement on {cell}: {found} {unit}")


def _programs(
    specs: Sequence[BenchmarkSpec], progress: Callable[[str], None]
) -> Iterator[Tuple[str, Any, Any]]:
    for spec in specs:
        program = generate(spec)
        progress(f"{spec.name}: {program.summary()}")
        yield spec.name, program, encode_program(program)


def _solver_cells(specs, flavors, progress, on_trace=None, **_) -> Iterator[_Cell]:
    traced = on_trace is not None
    for name, program, facts in _programs(specs, progress):
        for flavor in flavors:
            yield _solver_cell(name, program, facts, flavor, traced, on_trace)
            traced = False


def _solver_cell(name, program, facts, flavor, traced, on_trace) -> _Cell:
    policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
    tracers: List[Tracer] = []

    def measure(variant: str) -> Callable[[], int]:
        if variant == "reference":
            return lambda: reference_solve(program, policy, facts=facts).tuple_count
        if variant == "packed":
            return lambda: packed_solve(program, policy, facts=facts).tuple_count
        # Each traced run gets a fresh tracer so the exported spans
        # describe one solve.
        tracer = Tracer()
        tracers[:] = [tracer]
        return lambda: packed_solve(
            program, policy, facts=facts, tracer=tracer
        ).tuple_count

    def check(tuples: Dict[str, int]) -> Dict[str, Dict[str, Any]]:
        _agree(f"{name}/{flavor}", tuples, "tuples")
        details: Dict[str, Dict[str, Any]] = {
            v: {"tuples": n} for v, n in tuples.items()
        }
        if tracers:
            (tracer,) = tracers
            details["traced"].update(
                span_names=tracer.span_names(),
                events=len(tracer.chrome_trace()["traceEvents"]),
            )
            on_trace(tracer)
        return details

    variants = ("reference", "packed") + (("traced",) if traced else ())
    return _Cell(name, flavor, variants, measure, check)


def _datalog_cells(specs, flavors, progress, **_) -> Iterator[_Cell]:
    for name, program, facts in _programs(specs, progress):
        for flavor in flavors:
            yield _datalog_cell(name, program, facts, flavor)


def _datalog_cell(name, program, facts, flavor) -> _Cell:
    def measure(variant: str) -> Callable[[], int]:
        # A fresh policy per run: policies memoize context tuples, and a
        # warm cache must not favor whichever engine runs second.
        policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
        factory = _DATALOG_ENGINE_FACTORIES[variant]

        def run() -> int:
            analysis = DatalogPointsToAnalysis(
                program, policy, facts=facts, engine_factory=factory
            )
            analysis.run()
            return analysis.engine.db.total_rows()

        return run

    def check(rows: Dict[str, int]) -> Dict[str, Dict[str, Any]]:
        _agree(f"{name}/{flavor}", rows, "rows")
        return {v: {"rows": n} for v, n in rows.items()}

    return _Cell(name, flavor, ("reference", "compiled"), measure, check)


def _incremental_cells(specs, flavors, progress, **_) -> Iterator[_Cell]:
    for spec in specs:
        sketch = ProgramSketch.from_program(generate(spec))
        for flavor in flavors:
            session = IncrementalSession(sketch, analysis=flavor)
            progress(
                f"{spec.name}/{flavor}: warm solve "
                f"{session.initial_solve_seconds:.3f}s "
                f"({session.program.summary()})"
            )
            yield _incremental_cell(spec.name, session, flavor)


def _scratch_relations(sketch: ProgramSketch, flavor: str) -> Dict[str, Any]:
    """What a session-less server redoes to answer the same queries."""
    program = sketch.build()
    facts = encode_program(program)
    policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
    raw = packed_solve(program, policy, facts=facts)
    return dict(zip(RESULT_RELATIONS, solver_relations(raw)))


def _incremental_cell(name, session, flavor) -> _Cell:
    # Seeded by cell name so runs are reproducible across processes
    # (str seeds hash deterministically in random).
    rng = random.Random(f"{name}/{flavor}")
    tiers: Dict[str, List[str]] = {kind: [] for kind in INCREMENTAL_EDIT_KINDS}

    def measure(variant: str) -> Callable[[], Any]:
        if variant == "scratch":
            sketch = session.sketch
            return lambda: _scratch_relations(sketch, flavor)
        script = random_edit_script(
            session.sketch, rng, edits=1, allow_removals=False, kinds=(variant,)
        )

        def apply() -> int:
            outcome = session.apply(script)
            tiers[variant].append(outcome.tier)
            return outcome.result_rows_added

        return apply

    def check(out: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        # Scratch runs last in every round, so its final output is the
        # final edited program — the one the warm relations describe.
        warm = session.relations()
        bad = [n for n in RESULT_RELATIONS if warm[n] != out["scratch"][n]]
        if bad:
            raise RuntimeError(
                f"warm session diverged from scratch on "
                f"{name}/{flavor}: {', '.join(bad)}"
            )
        details: Dict[str, Dict[str, Any]] = {
            kind: {"tiers": tiers[kind], "result_rows_added": out[kind]}
            for kind in INCREMENTAL_EDIT_KINDS
        }
        details["scratch"] = {"relations_checked": list(RESULT_RELATIONS)}
        return details

    variants = INCREMENTAL_EDIT_KINDS + ("scratch",)
    return _Cell(name, flavor, variants, measure, check)


def _demand_cells(specs, flavors, progress, queries=6, **_) -> Iterator[_Cell]:
    from ..query import QueryEngine

    rng = random.Random(DEMAND_SEED)
    for name, program, facts in _programs(specs, progress):
        all_vars = sorted({var for var, _m in facts.varinmeth})
        picked = rng.sample(all_vars, min(queries, len(all_vars)))
        w0 = time.perf_counter()
        engine = QueryEngine(program, facts=facts)
        warmup = time.perf_counter() - w0
        for flavor in flavors:
            yield _demand_cell(name, program, facts, engine, warmup, picked, flavor)


def _demand_cell(name, program, facts, engine, warmup, picked, flavor) -> _Cell:
    from ..analysis import analyze

    policy = engine.policy(flavor)

    def measure(variant: str) -> Callable[[], Any]:
        engine.clear_memos()
        if variant == "full":
            return lambda: analyze(program, policy, facts=facts)
        if variant == "batch":
            return lambda: [o.answer for o in engine.query_batch(picked, flavor)]

        def one_at_a_time() -> List[Any]:
            # Memos cleared before every query: each is a cold plan +
            # sliced solve (the planner and insensitive pass stay warm,
            # the steady state of a long-lived engine).
            answers = []
            for var in picked:
                engine.clear_memos()
                answers.append(engine.query(var, flavor))
            return answers

        return one_at_a_time

    def check(out: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        full = out["full"].var_points_to
        for mode in ("query", "batch"):
            for var, answer in zip(picked, out[mode]):
                expected = frozenset(full.get(var, ()))
                if answer is None or answer.points_to != expected:
                    raise RuntimeError(
                        f"{mode}/full disagreement on {name}/{flavor}/{var}"
                    )
        footprints = sorted(a.footprint for a in out["query"])
        detail = {
            "queries": len(picked),
            "median_footprint": round(footprints[len(footprints) // 2], 6),
            "warmup_seconds": round(warmup, 6),
        }
        return {v: detail for v in out}

    return _Cell(
        name, flavor, ("full", "query", "batch"), measure, check, len(picked)
    )


@dataclass(frozen=True)
class _Kind:
    suites: Dict[str, Tuple[BenchmarkSpec, ...]]
    flavors: Tuple[str, ...]
    #: Baseline first, then the variants that get a speedup cell.
    engines: Tuple[str, ...]
    cells: Callable[..., Iterator[_Cell]]


_KINDS: Dict[str, _Kind] = {
    "solver": _Kind(
        _SUITES, DEFAULT_FLAVORS, ("reference", "packed"), _solver_cells
    ),
    "datalog": _Kind(
        _DATALOG_SUITES, DEFAULT_FLAVORS, ("reference", "compiled"), _datalog_cells
    ),
    "incremental": _Kind(
        _SUITES,
        DEFAULT_FLAVORS,
        ("scratch",) + INCREMENTAL_EDIT_KINDS,
        _incremental_cells,
    ),
    "demand": _Kind(
        _SUITES, DEFAULT_DEMAND_FLAVORS, ("full", "query", "batch"), _demand_cells
    ),
}

#: Every bench kind, in ``repro bench --kind`` order.
BENCH_KINDS: Tuple[str, ...] = tuple(_KINDS)


def _kind(kind: str) -> _Kind:
    try:
        return _KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown bench kind {kind!r}; try one of: {', '.join(BENCH_KINDS)}"
        ) from None


def suite_names() -> List[str]:
    return sorted(_SUITES)


def suite_specs(suite: str, kind: str = "solver") -> Tuple[BenchmarkSpec, ...]:
    try:
        return _kind(kind).suites[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; try one of: {', '.join(suite_names())}"
        ) from None


def _peak_rss_kb() -> Optional[int]:
    """Process peak RSS in KB (ru_maxrss; None where unsupported)."""
    if resource is None:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak //= 1024
    return int(peak)


def run_bench(
    kind: str = "solver",
    suite: str = "medium",
    flavors: Optional[Sequence[str]] = None,
    repeat: int = 3,
    queries: int = 6,
    progress: Optional[Callable[[str], None]] = None,
    on_trace: Optional[Callable[[Tracer], None]] = None,
) -> Dict[str, Any]:
    """Benchmark one kind over a suite; return its ``bench-<kind>`` receipt.

    ``flavors`` defaults to the kind's own sweep; ``queries`` is the
    demand kind's sample size per benchmark.  ``on_trace`` (solver kind
    only) adds the ``traced`` variant to the first cell and receives the
    tracer of its last run.  Raises ``ValueError`` for bad arguments and
    ``RuntimeError`` when a cell's variants disagree.
    """
    bench = _kind(kind)
    specs = suite_specs(suite, kind)
    flavors = list(flavors if flavors is not None else bench.flavors)
    if not flavors:
        raise ValueError("no flavors to benchmark")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")
    if queries < 1:
        raise ValueError("queries must be >= 1")
    if on_trace is not None and kind != "solver":
        raise ValueError("tracing times the solver kind's packed engine only")
    say = progress if progress is not None else (lambda _msg: None)
    baseline, live = bench.engines[0], bench.engines[1:]

    entries: List[Dict[str, Any]] = []
    speedups: Dict[str, float] = {}
    trace: Optional[Dict[str, Any]] = None
    cells = bench.cells(specs, flavors, say, queries=queries, on_trace=on_trace)
    for cell in cells:
        variants = [v for v in cell.variants if v != "traced"]
        timings, outputs = best_of(repeat, variants, cell.measure)
        if "traced" in cell.variants:
            untraced, traced, ratio = trace_overhead(
                cell.measure, max(repeat, TRACE_OVERHEAD_PAIRS), outputs
            )
        details = cell.check(outputs)
        name = f"{cell.benchmark}/{cell.flavor}"
        if "traced" in cell.variants:
            overhead = (ratio - 1.0) * 100.0
            trace = {
                "benchmark": cell.benchmark,
                "flavor": cell.flavor,
                "untraced_cpu_seconds": round(untraced, 6),
                "traced_cpu_seconds": round(traced, 6),
                "overhead_percent": round(overhead, 2),
                **details["traced"],
            }
            say(f"  trace: {name} overhead={overhead:+.2f}%")
        for variant, timing in timings.items():
            entries.append(
                {
                    "benchmark": cell.benchmark,
                    "flavor": cell.flavor,
                    "engine": variant,
                    "seconds": round(timing.seconds, 6),
                    "cpu_seconds": round(timing.cpu_seconds, 6),
                    **details[variant],
                    "peak_rss_kb": _peak_rss_kb(),
                }
            )
        base = timings[baseline].cpu_seconds
        ratios = []
        for variant in live:
            key = name if len(live) == 1 else f"{name}/{variant}"
            per_answer = timings[variant].cpu_seconds / cell.queries
            speedups[key] = round(base / max(per_answer, 1e-9), 3)
            ratios.append(f"{variant}={speedups[key]:.2f}x")
        say(f"  {name}: {baseline}={base:.3f}s {' '.join(ratios)}")
    geomean = math.exp(
        sum(math.log(s) for s in speedups.values()) / len(speedups)
    )
    say(f"geomean speedup: {geomean:.2f}x")
    payload: Dict[str, Any] = {
        "suite": suite,
        "flavors": flavors,
        "repeat": repeat,
        "engines": list(bench.engines),
        "entries": entries,
        "speedups": speedups,
        "geomean_speedup": round(geomean, 3),
    }
    if trace is not None:
        payload["trace"] = trace
    return make_receipt(
        f"bench-{kind}",
        identity={
            "suite": suite,
            "flavors": flavors,
            "engines": list(bench.engines),
        },
        payload=payload,
        created_at=time.time(),
    )
