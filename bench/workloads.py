"""The benchmark's three workloads, each a closed loop with one client.

A workload builds its inputs and warm state in :meth:`Workload.setup`,
turns ``--seed`` into one *round* of ops with :meth:`Workload.ops`, and
runs one op per :meth:`Workload.run` call, which is the only timed code.
Every round repeats the same ops on fresh state (:meth:`Workload.world`),
so a run's op mix does not depend on how many rounds fit in its time.

* ``paper-matrix`` — the paper's Figure 5-7 matrix as cold user runs;
* ``query-mix`` — demand queries against long-lived query engines;
* ``edit-session`` — edit scripts into warm incremental sessions.

The ops call only public entry points: :mod:`repro.harness.runner`,
:class:`repro.query.QueryEngine` and
:class:`repro.incremental.IncrementalSession`.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from importlib import import_module
from typing import Dict, List, Optional, Sequence

import oracle
from layers import OpLayers, Wrap
from repro.analysis import BudgetExceeded, PointsToSolver
from repro.benchgen import FIGURE1_BENCHMARKS, HARD_BENCHMARKS, build_benchmark
from repro.contexts.introspective import IntrospectivePolicy
from repro.contexts.policies import InsensitivePolicy
from repro.facts.encoder import FactBase
from repro.fuzz.sketch import ProgramSketch
from repro.harness import runner
from repro.harness.runner import (
    EXPERIMENT_BUDGET,
    run_analysis,
    run_introspective_analysis,
    scaled_heuristic_a,
    scaled_heuristic_b,
)
from repro.incremental import RESULT_RELATIONS, IncrementalSession
from repro.incremental.edits import EditScript, random_edit_script
from repro.introspection.heuristics import HeuristicA, HeuristicB
from repro.query import QueryEngine, SlicePlan

def _solve_span(program, analysis, *args, **kwargs) -> str:
    """Span name for ``analyze``: the pass's role, read off its policy."""
    if isinstance(analysis, IntrospectivePolicy):
        return "analysis.solve.refined"
    if isinstance(analysis, InsensitivePolicy) or analysis == "insens":
        return "analysis.solve.insens"
    return "analysis.solve.full"


class Workload:
    name = ""

    def setup(self):
        """Build inputs and the first round's state; return that state."""
        raise NotImplementedError

    def world(self):
        """Fresh state for another round."""
        raise NotImplementedError

    def ops(self, seed: int, limit: Optional[int] = None) -> list:
        """One round of ops, fixed by ``seed``; at most ``limit`` of them."""
        raise NotImplementedError

    def run(self, world, op):
        """Run one op (the timed call); return its raw output."""
        raise NotImplementedError

    def record(self, world, op, raw) -> Dict[str, object]:
        """The op's output as plain data, for the oracle (not timed)."""
        raise NotImplementedError

    def check(self, records: Sequence[dict], world) -> List[str]:
        """One message per record whose output is wrong."""
        raise NotImplementedError

    def layers(self) -> List[Wrap]:
        """The public functions a traced run wraps in spans."""
        raise NotImplementedError

    def counts(self, records: Sequence[dict], ops: Sequence[OpLayers],
               rounds: int) -> Dict[str, float]:
        """This workload's per-layer metrics that are not span self times."""
        return {}


# ----------------------------------------------------------------------
# paper-matrix
# ----------------------------------------------------------------------

class PaperMatrix(Workload):
    """The Figure 5-7 matrix on the six hard analogs, one cold run per op.

    Each op goes from the ``Program`` through encoding, pass 1, cost
    metrics, heuristic and pass 2 (or one plain solve) to the precision
    clients, at the experiment budget, exactly as a user's run does.
    """

    name = "paper-matrix"

    def setup(self):
        self.programs = {b: build_benchmark(b) for b in HARD_BENCHMARKS}
        return self.programs

    def world(self):
        return self.programs  # each op is a cold run; programs are immutable

    def ops(self, seed, limit=None):
        cells = oracle.matrix_cells(HARD_BENCHMARKS)
        random.Random(seed).shuffle(cells)
        return cells[:limit]

    def run(self, programs, op):
        bench, analysis, heuristic = op
        if heuristic is None:
            return run_analysis(programs[bench], analysis, benchmark=bench)
        heur = scaled_heuristic_a() if heuristic == "A" else scaled_heuristic_b()
        return run_introspective_analysis(programs[bench], analysis, heur, benchmark=bench)

    def record(self, world, op, outcome):
        rec: Dict[str, object] = {"cell": oracle.cell_name(*op),
                                  "timed_out": outcome.timed_out,
                                  "tuples": outcome.tuples}
        p = outcome.precision
        rec.update(poly_vcalls=None if p is None else p.polymorphic_call_sites,
                   reachable_methods=None if p is None else p.reachable_methods,
                   casts_may_fail=None if p is None else p.casts_may_fail)
        if outcome.introspective is not None:
            stats = outcome.introspective.refinement_stats
            rec.update(excluded_sites=stats.excluded_call_sites,
                       excluded_objects=stats.excluded_objects,
                       total_sites=stats.total_call_sites,
                       total_objects=stats.total_objects)
        return rec

    def check(self, records, world):
        return oracle.check_paper_matrix(records, oracle.load_expected())

    def layers(self):
        driver = import_module("repro.introspection.driver")
        return [
            Wrap(runner, "encode_program", "facts.encode"),
            Wrap(runner, "analyze", _solve_span),
            Wrap(driver, "analyze", _solve_span),
            Wrap(driver, "compute_metrics", "introspection.metrics"),
            Wrap(HeuristicA, "decide", "introspection.heuristic"),
            Wrap(HeuristicB, "decide", "introspection.heuristic"),
            Wrap(runner, "measure_precision", "clients.precision"),
        ]

    def counts(self, records, ops, rounds):
        # The paper's overhead ratio: pass 1 + metrics + heuristic over the
        # whole introspective run, on the Intro cells only.
        overhead = total = 0.0
        for rec, layers in zip(records, ops):
            if "-Intro" in rec["cell"]:
                own = layers.self_seconds
                overhead += sum(own.get(n, 0.0) for n in (
                    "analysis.solve.insens", "introspection.metrics",
                    "introspection.heuristic"))
                total += layers.seconds
        return {"introspection.overhead_ratio": overhead / total if total else 0.0}


# ----------------------------------------------------------------------
# query-mix
# ----------------------------------------------------------------------

QUERY_FLAVORS = ("2objH", "2typeH", "introspective-A")
QUERY_FRESH = 12  # distinct variables per (analog, flavor) and round
QUERY_REPEATS = 4  # of those asked again: 25% of the ops


class QueryMix(Workload):
    """Demand queries on all nine analogs, one long-lived engine each.

    Variables are a systematic sample of each analog's sorted variables
    with a seeded start: neighbouring variables share methods and slices,
    so every seed draws the same mix of small and hub-sized slices.
    """

    name = "query-mix"

    def setup(self):
        start = time.perf_counter()
        programs = {b: build_benchmark(b) for b in FIGURE1_BENCHMARKS}
        benchgen = time.perf_counter() - start
        self.engines = {b: self._engine(QueryEngine(p, max_tuples=EXPERIMENT_BUDGET))
                        for b, p in programs.items()}
        self.engine_build_pct = 100 * (1 - benchgen / (time.perf_counter() - start))
        self.variables = {
            b: sorted({v for v, _m in e.facts.varinmeth}) for b, e in self.engines.items()
        }
        return self.engines

    @staticmethod
    def _engine(engine: QueryEngine) -> QueryEngine:
        for flavor in QUERY_FLAVORS:
            engine.policy(flavor)  # the introspective decision, computed once
        return engine

    def world(self):
        # Empty memos and plan caches; the encoded facts and the insensitive
        # pass are the set-up engines' (a long-lived service shares them).
        return {
            b: self._engine(QueryEngine(e.program, facts=e.facts, insens=e.insens,
                                        max_tuples=EXPERIMENT_BUDGET))
            for b, e in self.engines.items()
        }

    def ops(self, seed, limit=None):
        ops = []
        for bench in FIGURE1_BENCHMARKS:
            variables = self.variables[bench]
            stride = len(variables) / QUERY_FRESH
            for flavor in QUERY_FLAVORS:
                rng = random.Random(f"{seed}/{bench}/{flavor}")
                first = rng.random() * stride
                picked = [variables[int(first + i * stride)] for i in range(QUERY_FRESH)]
                ops += [(bench, flavor, v) for v in picked + rng.sample(picked, QUERY_REPEATS)]
        random.Random(seed).shuffle(ops)
        return ops[:limit]

    def run(self, engines, op):
        bench, flavor, var = op
        engine = engines[bench]
        solves = engine.solves
        try:
            answer = engine.query(var, flavor)
        except BudgetExceeded:
            answer = None
        return answer, engine.solves - solves

    def record(self, world, op, raw):
        answer, solves = raw
        bench, flavor, var = op
        return {
            "bench": bench, "flavor": flavor, "var": var,
            "points_to": None if answer is None else sorted(answer.points_to),
            "memo_hit": answer is not None and solves == 0,
            "slice_vars": None if answer is None else answer.slice_variables,
        }

    def check(self, records, world):
        return oracle.check_query_mix(records, world)

    def layers(self):
        engine = import_module("repro.query.engine")
        return [
            Wrap(QueryEngine, "plan", "query.plan"),
            Wrap(SlicePlan, "sliced_facts", "query.slice"),
            Wrap(engine, "analyze", "query.solve"),
        ]

    def counts(self, records, ops, rounds):
        sizes = [r["slice_vars"] for r in records if r["slice_vars"] is not None]
        return {
            "query.memo_hit_ratio": sum(r["memo_hit"] for r in records) / len(records),
            "query.slice_vars_p50": statistics.median(sizes) if sizes else 0,
            "query.engine_build_pct": self.engine_build_pct,
        }


# ----------------------------------------------------------------------
# edit-session
# ----------------------------------------------------------------------

SESSION_BENCHMARKS = ("antlr", "lusearch", "bloat", "chart", "eclipse", "pmd", "xalan")
SESSION_ANALYSIS = "2objH"
#: One session's edits per round, shuffled per seed: each of
#: ``random_edit_script``'s kinds twice.
EDIT_DECK = ("alloc", "move", "new-call", "new-entry", "delete") * 2
CHECKPOINT_EVERY = 10


class EditSessions(Workload):
    """Seven warm 2objH sessions on the packed engine, edits interleaved.

    Each op applies one seeded single-edit script and reads the session's
    relations.  Edit kinds come from a shuffled deck, so every seed has
    the same mix of fast-path additions and full re-solves.
    """

    name = "edit-session"

    def setup(self):
        self.sketches = {
            b: ProgramSketch.from_program(build_benchmark(b)) for b in SESSION_BENCHMARKS
        }
        return self.world()

    def world(self):
        return {
            b: IncrementalSession(sketch, analysis=SESSION_ANALYSIS,
                                  max_tuples=EXPERIMENT_BUDGET)
            for b, sketch in self.sketches.items()
        }

    def ops(self, seed, limit=None):
        self.scripts: Dict[str, List[EditScript]] = {}
        for bench, sketch in self.sketches.items():
            rng = random.Random(f"{seed}/{bench}")
            deck = list(EDIT_DECK)
            rng.shuffle(deck)
            preview = sketch.clone()
            scripts = []
            for kind in deck:
                script = random_edit_script(preview, rng, edits=1, kinds=(kind,))
                script.apply(preview)
                scripts.append(script)
            self.scripts[bench] = scripts
        order = [b for b in SESSION_BENCHMARKS for _ in EDIT_DECK]
        random.Random(seed).shuffle(order)
        order = order[:limit]
        last = {b: i for i, b in enumerate(order)}
        seen: Counter = Counter()
        ops = []
        for i, bench in enumerate(order):
            index = seen[bench]
            seen[bench] += 1
            checkpoint = (index + 1) % CHECKPOINT_EVERY == 0 or last[bench] == i
            ops.append((bench, index, checkpoint))
        return ops

    def run(self, sessions, op):
        bench, index, _checkpoint = op
        session = sessions[bench]
        outcome = session.apply(self.scripts[bench][index])
        return outcome, session.relations()

    def record(self, world, op, raw):
        bench, index, checkpoint = op
        outcome, relations = raw
        digest = None
        if checkpoint:
            digest = oracle.relations_digest([relations[n] for n in RESULT_RELATIONS])
        return {"bench": bench, "index": index, "tier": outcome.tier,
                "rows_added": outcome.result_rows_added, "digest": digest}

    def check(self, records, world):
        return oracle.check_edit_session(records, self.sketches, self.scripts,
                                         SESSION_ANALYSIS)

    def layers(self):
        session = import_module("repro.incremental.session")
        return [
            Wrap(EditScript, "apply", "incremental.edit"),
            Wrap(ProgramSketch, "build", "fuzz.sketch.build"),
            Wrap(session, "encode_program", "facts.encode"),
            Wrap(FactBase, "digest", "facts.digest"),
            Wrap(session, "diff_facts", "incremental.diff"),
            Wrap(session, "classify_delta", "incremental.diff"),
            Wrap(PointsToSolver, "extend", "analysis.extend"),
            # The escape hatch: a fresh solver, its solve, and the
            # relations materialised from it.
            Wrap(PointsToSolver, "__init__", "analysis.solve.full"),
            Wrap(PointsToSolver, "solve", "analysis.solve.full"),
            Wrap(session, "solver_relations", "analysis.solve.full"),
            Wrap(IncrementalSession, "relations", "incremental.read"),
        ]

    def counts(self, records, ops, rounds):
        fast = sum(r["tier"] in ("noop", "monotonic") for r in records)
        return {
            "incremental.rows_added": sum(r["rows_added"] for r in records) / rounds,
            "incremental.fast_path_ratio": fast / len(records),
        }


WORKLOADS = {w.name: w for w in (PaperMatrix, QueryMix, EditSessions)}
