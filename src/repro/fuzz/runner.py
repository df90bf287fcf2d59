"""The differential fuzzing campaign and corpus replay.

One campaign iteration:

1. clone one of the cached micro base programs (``benchgen.generate``
   output lifted to a :class:`~repro.fuzz.sketch.ProgramSketch`);
2. apply 1–3 random typed mutations (:mod:`repro.fuzz.mutators`); a
   mutant that no longer freezes is counted and discarded;
3. run the packed solver, the frozen reference solver, **and** the
   Datalog model on the insensitive analysis and on every configured
   deep flavor — three engines per flavor, every iteration;
4. check every applicable oracle from :mod:`repro.fuzz.oracles`; the
   heavier oracles (introspective-bracketing, tuple-budget-exactness,
   trace-transparency, incremental-equivalence, demand-equivalence) run
   on configurable cadences (``intro_every`` / ``budget_every`` / ...),
   each at a distinct phase offset so no two ever pile onto the same
   iteration;
5. on the first violation: delta-debug the mutant down to a minimal
   counterexample (:func:`~repro.fuzz.shrink.shrink_sketch`), persist it
   into the regression corpus, and stop.

``replay_entry`` re-runs exactly the oracle a corpus entry records, so
committed counterexamples stay red until the underlying engine bug is
fixed — and green forever after.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.datalog_model import DatalogPointsToAnalysis
from ..analysis.pack import PackedProgram
from ..analysis.reference_solver import reference_solve
from ..analysis.results import AnalysisResult
from ..analysis.solver import BudgetExceeded, solve
from ..benchgen.generator import generate
from ..benchgen.spec import BenchmarkSpec, HubSpec
from ..contexts.policies import policy_by_name
from ..datalog import EvaluationBudgetExceeded
from ..facts.encoder import FactBase, encode_program
from ..introspection.driver import run_introspective
from ..ir.program import Program, ProgramError
from ..ir.types import TypeError_
from ..ir.validate import ValidationError
from .corpus import make_entry, write_entry
from .mutators import mutate
from .oracles import (
    Relations,
    Violation,
    check_demand_equivalence,
    check_digest_invariance,
    check_engine_equivalence,
    check_incremental_equivalence,
    check_insensitive_containment,
    check_introspective_bracketing,
    check_trace_transparency,
    check_tuple_budget_exactness,
    reference_relations,
    solver_relations,
)
from .sketch import ProgramSketch
from .shrink import shrink_sketch

__all__ = [
    "DEEP_FLAVORS",
    "FuzzConfig",
    "FuzzOutcome",
    "FuzzStats",
    "campaign_receipt",
    "fuzz_base_specs",
    "replay_corpus",
    "replay_entry",
    "run_campaign",
]

#: Context-sensitive flavors exercised by default (the paper's main axes).
DEEP_FLAVORS = ("2objH", "2typeH", "2callH")

#: Safety caps so a pathological mutant degrades into a skip, not a hang.
_MUTANT_TUPLE_CAP = 300_000
_MUTANT_ROW_CAP = 400_000

#: Errors that mean "this mutant is not a valid program" — expected and
#: counted, never a campaign failure.
_BUILD_ERRORS = (ProgramError, ValidationError, TypeError_, ValueError, KeyError)


def fuzz_base_specs() -> Tuple[BenchmarkSpec, ...]:
    """Micro benchgen specs the fuzzer mutates away from.

    Deliberately tiny (~100–150 instructions): the campaign's throughput
    target is hundreds of programs per 30-second budget across three
    engines, so the seeds must solve in a few milliseconds each.
    """
    return (
        BenchmarkSpec(
            name="fuzz-micro",
            seed=11,
            util_classes=1,
            util_methods_per_class=2,
            util_call_depth=2,
            util_fanout=1,
            strategy_clusters=(2,),
            box_groups=(2,),
            sink_groups=(),
        ),
        BenchmarkSpec(
            name="fuzz-hub",
            seed=12,
            util_classes=1,
            util_methods_per_class=1,
            util_call_depth=1,
            util_fanout=1,
            strategy_clusters=(),
            box_groups=(2,),
            sink_groups=(2,),
            hubs=(HubSpec(readers=2, elements=2, payloads_per_element=1),),
        ),
        BenchmarkSpec(
            name="fuzz-exn",
            seed=13,
            util_classes=1,
            util_methods_per_class=2,
            util_call_depth=1,
            util_fanout=1,
            strategy_clusters=(2,),
            box_groups=(),
            sink_groups=(),
            static_chain_depth=2,
            static_chain_fanout=1,
            static_chain_payloads=1,
            exception_sites=2,
        ),
    )


_BASE_SKETCHES: List[ProgramSketch] = []


def _base_sketches() -> List[ProgramSketch]:
    if not _BASE_SKETCHES:
        _BASE_SKETCHES.extend(
            ProgramSketch.from_program(generate(spec))
            for spec in fuzz_base_specs()
        )
    return _BASE_SKETCHES


@dataclass
class FuzzConfig:
    """Knobs of one campaign (mirrors the ``repro fuzz`` CLI)."""

    seed: int = 0
    budget_seconds: float = 30.0
    max_iterations: Optional[int] = None
    corpus_dir: Optional[str] = "tests/corpus"
    flavors: Tuple[str, ...] = DEEP_FLAVORS
    shrink: bool = True
    max_mutations: int = 3
    intro_every: int = 8
    budget_every: int = 8
    trace_every: int = 8
    incremental_every: int = 8
    demand_every: int = 8


@dataclass
class FuzzStats:
    """Campaign counters (reported by the CLI and asserted by tests)."""

    programs: int = 0
    invalid_mutants: int = 0
    budget_skips: int = 0
    engine_runs: int = 0
    oracle_checks: Dict[str, int] = field(default_factory=dict)
    seconds: float = 0.0

    def count(self, oracle: str) -> None:
        self.oracle_checks[oracle] = self.oracle_checks.get(oracle, 0) + 1


@dataclass
class FuzzOutcome:
    """Everything a campaign produced."""

    stats: FuzzStats
    violations: List[Violation] = field(default_factory=list)
    corpus_paths: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _flavor_relations(
    program: Program,
    facts: FactBase,
    pack: PackedProgram,
    flavor: str,
    run_datalog: bool,
    stats: FuzzStats,
) -> Tuple[Relations, Relations, Optional[Relations], int, AnalysisResult]:
    """Solve one flavor under packed + reference (+ optional Datalog).

    The packed solver reads ``pack``, compiled from the IR as a user's
    run does; the reference solver and the Datalog model read the encoded
    ``facts``, so the oracle compares two independent front ends.
    Raises :class:`BudgetExceeded` / :class:`EvaluationBudgetExceeded`
    when the mutant blows the safety caps; the campaign skips it.
    """
    policy = policy_by_name(flavor, alloc_class_of=pack.alloc_class_of)
    packed_raw = solve(program, policy, pack=pack, max_tuples=_MUTANT_TUPLE_CAP)
    stats.engine_runs += 1
    ref_raw = reference_solve(
        program,
        policy_by_name(flavor, alloc_class_of=facts.alloc_class_of),
        facts=facts,
        max_tuples=_MUTANT_TUPLE_CAP,
    )
    stats.engine_runs += 1
    datalog_rel: Optional[Relations] = None
    if run_datalog:
        dl = DatalogPointsToAnalysis(
            program,
            policy_by_name(flavor, alloc_class_of=facts.alloc_class_of),
            facts=facts,
            max_rows=_MUTANT_ROW_CAP,
        ).run()
        stats.engine_runs += 1
        datalog_rel = (
            dl.var_points_to,
            dl.fld_points_to,
            dl.call_graph,
            dl.reachable,
            dl.throw_points_to,
        )
    return (
        solver_relations(packed_raw),
        reference_relations(ref_raw),
        datalog_rel,
        packed_raw.tuple_count,
        AnalysisResult(packed_raw, flavor),
    )


def _check_program(
    program: Program,
    config: FuzzConfig,
    rng: random.Random,
    stats: FuzzStats,
    iteration: int,
    sketch: Optional[ProgramSketch] = None,
) -> Optional[Violation]:
    """Run every scheduled oracle on one mutant; first violation wins."""
    facts = encode_program(program)
    pack = PackedProgram(program)

    stats.count("digest-invariance")
    v = check_digest_invariance(facts, rng)
    if v is not None:
        return v

    flavors = ("insens",) + tuple(config.flavors)
    results: Dict[str, AnalysisResult] = {}
    tuple_counts: Dict[str, int] = {}
    packed_rels: Dict[str, Relations] = {}
    for flavor in flavors:
        packed_rel, ref_rel, dl_rel, tuples, result = _flavor_relations(
            program, facts, pack, flavor, True, stats
        )
        results[flavor] = result
        tuple_counts[flavor] = tuples
        packed_rels[flavor] = packed_rel
        stats.count("engine-equivalence")
        v = check_engine_equivalence(flavor, packed_rel, ref_rel, dl_rel)
        if v is not None:
            return v

    insens = results["insens"]
    for flavor in config.flavors:
        stats.count("insensitive-containment")
        v = check_insensitive_containment(flavor, results[flavor], insens)
        if v is not None:
            return v

    if config.intro_every and iteration % config.intro_every == 3:
        flavor = config.flavors[iteration % len(config.flavors)]
        outcome = run_introspective(
            program,
            flavor,
            pack=pack,
            pass1=insens,
            max_tuples=_MUTANT_TUPLE_CAP,
        )
        stats.engine_runs += 1
        stats.count("introspective-bracketing")
        v = check_introspective_bracketing(flavor, outcome, results[flavor])
        if v is not None:
            return v

    if config.demand_every and iteration % config.demand_every == 4:
        # One engine + one sliced solve per (flavor, sampled var); the
        # insens pass is reused from the results already computed above.
        stats.engine_runs += 1
        stats.count("demand-equivalence")
        v = check_demand_equivalence(
            program,
            facts,
            results,
            rng,
            max_tuples=_MUTANT_TUPLE_CAP,
        )
        if v is not None:
            return v

    if config.budget_every and iteration % config.budget_every == 5:
        flavor = flavors[iteration % len(flavors)]
        policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
        stats.engine_runs += 2
        stats.count("tuple-budget-exactness")
        v = check_tuple_budget_exactness(
            program, policy, facts, tuple_counts[flavor], flavor=flavor
        )
        if v is not None:
            return v

    if config.trace_every and iteration % config.trace_every == 7:
        flavor = flavors[iteration % len(flavors)]
        policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
        stats.engine_runs += 1
        stats.count("trace-transparency")
        v = check_trace_transparency(
            program,
            policy,
            facts,
            packed_rels[flavor],
            flavor=flavor,
            max_tuples=_MUTANT_TUPLE_CAP,
        )
        if v is not None:
            return v

    if (
        sketch is not None
        and config.incremental_every
        and iteration % config.incremental_every == 1
    ):
        flavor = flavors[iteration % len(flavors)]
        stats.engine_runs += 4
        stats.count("incremental-equivalence")
        # config.seed, not a per-iteration derivative: the shrinker and
        # corpus replay re-run the oracle from the recorded seed, so the
        # edit script must be reproducible from it (variety comes from
        # the mutant itself).
        v = check_incremental_equivalence(
            sketch,
            seed=config.seed,
            flavor=flavor,
            max_tuples=_MUTANT_TUPLE_CAP,
        )
        if v is not None:
            return v

    return None


def run_single_check(
    sketch: ProgramSketch,
    oracle: str,
    flavor: Optional[str],
    seed: int,
    flavors: Sequence[str] = DEEP_FLAVORS,
) -> Optional[Violation]:
    """Re-run exactly one oracle on a sketch (shrink predicate + replay).

    Budget-capped like the campaign; a sketch that blows the caps raises
    :class:`BudgetExceeded` / :class:`EvaluationBudgetExceeded` (the
    shrink predicate rejects that reduction).
    """
    program = sketch.build()
    facts = encode_program(program)
    pack = PackedProgram(program)
    stats = FuzzStats()

    if oracle == "digest-invariance":
        return check_digest_invariance(facts, random.Random(seed))

    if oracle == "engine-equivalence":
        target = flavor or "insens"
        packed_rel, ref_rel, dl_rel, _tuples, _res = _flavor_relations(
            program, facts, pack, target, True, stats
        )
        return check_engine_equivalence(target, packed_rel, ref_rel, dl_rel)

    if oracle == "insensitive-containment":
        target = flavor or flavors[0]
        _p, _r, _d, _t, insens = _flavor_relations(
            program, facts, pack, "insens", False, stats
        )
        _p, _r, _d, _t, sensitive = _flavor_relations(
            program, facts, pack, target, False, stats
        )
        return check_insensitive_containment(target, sensitive, insens)

    if oracle == "introspective-bracketing":
        target = flavor or flavors[0]
        _p, _r, _d, _t, full = _flavor_relations(
            program, facts, pack, target, False, stats
        )
        outcome = run_introspective(
            program, target, pack=pack, max_tuples=_MUTANT_TUPLE_CAP
        )
        return check_introspective_bracketing(target, outcome, full)

    if oracle == "tuple-budget-exactness":
        target = flavor or "insens"
        policy = policy_by_name(target, alloc_class_of=facts.alloc_class_of)
        raw = solve(program, policy, facts=facts, max_tuples=_MUTANT_TUPLE_CAP)
        return check_tuple_budget_exactness(
            program, policy, facts, raw.tuple_count, flavor=target
        )

    if oracle == "incremental-equivalence":
        return check_incremental_equivalence(
            sketch, seed=seed, flavor=flavor, max_tuples=_MUTANT_TUPLE_CAP
        )

    if oracle == "demand-equivalence":
        target = flavor or flavors[0]
        results = {}
        for name in dict.fromkeys(("insens", target)):
            _p, _r, _d, _t, results[name] = _flavor_relations(
                program, facts, pack, name, False, stats
            )
        stats.engine_runs += 1
        return check_demand_equivalence(
            program,
            facts,
            results,
            random.Random(seed),
            max_tuples=_MUTANT_TUPLE_CAP,
        )

    if oracle == "trace-transparency":
        target = flavor or "insens"
        policy = policy_by_name(target, alloc_class_of=facts.alloc_class_of)
        raw = solve(program, policy, facts=facts, max_tuples=_MUTANT_TUPLE_CAP)
        stats.engine_runs += 2
        return check_trace_transparency(
            program,
            policy,
            facts,
            solver_relations(raw),
            flavor=target,
            max_tuples=_MUTANT_TUPLE_CAP,
        )

    raise ValueError(f"unknown oracle {oracle!r}")


def _shrink_violation(
    sketch: ProgramSketch,
    violation: Violation,
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]],
) -> ProgramSketch:
    def predicate(candidate: ProgramSketch) -> bool:
        try:
            v = run_single_check(
                candidate,
                violation.oracle,
                violation.flavor,
                config.seed,
                config.flavors,
            )
        except (BudgetExceeded, EvaluationBudgetExceeded):
            return False  # a reduction that blows the caps is rejected
        return v is not None and v.oracle == violation.oracle

    return shrink_sketch(sketch, predicate, progress=progress)


def run_campaign(
    config: FuzzConfig,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Fuzz until the wall-clock budget, iteration cap, or first violation."""
    rng = random.Random(config.seed)
    bases = _base_sketches()
    stats = FuzzStats()
    outcome = FuzzOutcome(stats=stats)
    start = time.perf_counter()

    for iteration in itertools.count():
        if time.perf_counter() - start >= config.budget_seconds:
            break
        if (
            config.max_iterations is not None
            and iteration >= config.max_iterations
        ):
            break

        sketch = rng.choice(bases).clone()
        trail = mutate(
            sketch, rng, count=rng.randint(1, config.max_mutations)
        )
        try:
            program = sketch.build()
        except _BUILD_ERRORS:
            stats.invalid_mutants += 1
            continue

        try:
            violation = _check_program(
                program, config, rng, stats, iteration, sketch=sketch
            )
        except (BudgetExceeded, EvaluationBudgetExceeded):
            stats.budget_skips += 1
            continue
        stats.programs += 1

        if violation is None:
            continue

        outcome.violations.append(violation)
        if progress is not None:
            progress(f"violation at iteration {iteration}: {violation}")
        minimized = sketch
        if config.shrink:
            minimized = _shrink_violation(sketch, violation, config, progress)
        if config.corpus_dir:
            entry = make_entry(
                minimized,
                violation.oracle,
                flavor=violation.flavor,
                seed=config.seed,
                description="; ".join(trail) or "unmutated base",
            )
            outcome.corpus_paths.append(
                write_entry(entry, config.corpus_dir)
            )
        break

    stats.seconds = time.perf_counter() - start
    return outcome


def campaign_receipt(config: FuzzConfig, outcome: FuzzOutcome) -> Dict[str, object]:
    """Warehouse receipt for one completed campaign.

    Campaign throughput (programs fuzzed per second across three engines)
    is a real perf signal — an engine slowdown shows up here before it
    shows up in a bench suite — so campaigns append to the same results
    warehouse the bench harness does (``repro fuzz --receipt-dir``).
    """
    from ..warehouse import receipt_from_fuzz_campaign

    stats = {
        "programs": outcome.stats.programs,
        "invalid_mutants": outcome.stats.invalid_mutants,
        "budget_skips": outcome.stats.budget_skips,
        "engine_runs": outcome.stats.engine_runs,
        "oracle_checks": dict(outcome.stats.oracle_checks),
        "seconds": outcome.stats.seconds,
    }
    return receipt_from_fuzz_campaign(
        seed=config.seed,
        flavors=list(config.flavors),
        budget_seconds=config.budget_seconds,
        stats=stats,
        violations=[str(v) for v in outcome.violations],
    )


# ----------------------------------------------------------------------
# Corpus replay
# ----------------------------------------------------------------------

def replay_entry(entry: Dict[str, object]) -> Optional[Violation]:
    """Re-run a corpus entry's recorded oracle on its stored program.

    Returns ``None`` when the oracle now holds (the bug is fixed) and the
    :class:`Violation` otherwise.  Raises if the stored program no longer
    builds — a corrupt corpus entry is an error, not a pass.
    """
    sketch = ProgramSketch.from_json(entry["program"])  # type: ignore[arg-type]
    return run_single_check(
        sketch,
        str(entry["oracle"]),
        entry.get("flavor"),  # type: ignore[arg-type]
        int(entry.get("seed", 0)),  # type: ignore[arg-type]
    )


def replay_corpus(
    paths: Sequence[str],
) -> List[Tuple[str, Optional[Violation]]]:
    """Replay many entries; returns ``(path, violation-or-None)`` pairs."""
    from .corpus import load_entry

    out: List[Tuple[str, Optional[Violation]]] = []
    for path in paths:
        out.append((path, replay_entry(load_entry(path))))
    return out
