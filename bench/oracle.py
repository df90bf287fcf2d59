"""Correctness oracles for the benchmark's workloads.

Every check runs *after* the timed phase and after peak RSS is read, so
it costs no metric time or memory.  Each one compares the system's
recorded outputs with the frozen reference solver
(:func:`repro.analysis.reference_solver.reference_solve`) through the
string-level relations of :func:`repro.fuzz.oracles.reference_relations`;
nothing here calls the packed solver, the precision clients or the
query engine's solve path.

``paper-matrix`` outputs do not depend on the seed, so they are checked
against ``expected/paper-matrix.json``, which this module regenerates::

    python3 bench/oracle.py          # rewrites bench/expected/paper-matrix.json

Regeneration also checks the file against the Figure 4-7 tables of
``EXPERIMENTS.md`` and refuses to write a file that disagrees.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected" / "paper-matrix.json"
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from repro.analysis.reference_solver import reference_solve  # noqa: E402
from repro.analysis.solver import BudgetExceeded  # noqa: E402
from repro.contexts.introspective import IntrospectivePolicy  # noqa: E402
from repro.contexts.policies import ContextPolicy, policy_by_name  # noqa: E402
from repro.facts.encoder import FactBase, encode_program  # noqa: E402
from repro.fuzz.oracles import reference_relations  # noqa: E402
from repro.harness.runner import (  # noqa: E402
    EXPERIMENT_BUDGET,
    scaled_heuristic_a,
    scaled_heuristic_b,
)
from repro.introspection.heuristics import call_site_universe, object_universe  # noqa: E402
from repro.introspection.metrics import compute_metrics  # noqa: E402
from repro.ir.program import Program  # noqa: E402

#: The paper's Figure 5-7 matrix: one insensitive cell, then every
#: refined flavor plain ("full") and under both introspective heuristics.
MATRIX_ANALYSES = ("2objH", "2typeH", "2callH")
MATRIX_VARIANTS = ("A", "B", None)  # IntroA, IntroB, full


def cell_name(bench: str, analysis: str, heuristic: Optional[str]) -> str:
    """``bloat/insens``, ``bloat/2objH``, ``bloat/2objH-IntroA`` …"""
    suffix = f"-Intro{heuristic}" if heuristic else ""
    return f"{bench}/{analysis}{suffix}"


def matrix_cells(benchmarks: Iterable[str]) -> List[Tuple[str, str, Optional[str]]]:
    cells = []
    for bench in benchmarks:
        cells.append((bench, "insens", None))
        for analysis in MATRIX_ANALYSES:
            for heuristic in MATRIX_VARIANTS:
                cells.append((bench, analysis, heuristic))
    return cells


# ----------------------------------------------------------------------
# String-level views of a reference solution
# ----------------------------------------------------------------------

class RelationsView:
    """Insensitive projections of the five string-level relations.

    Duck-types the parts of ``AnalysisResult`` that the introspection
    metrics and heuristics read, so pass 1 can come from the reference
    solver.
    """

    def __init__(self, relations) -> None:
        var, fld, cg, reach, _throw = relations
        self.var_points_to: Dict[str, Set[str]] = {}
        for v, _ctx, heap, _hctx in var:
            self.var_points_to.setdefault(v, set()).add(heap)
        self.fld_points_to: Dict[Tuple[str, str], Set[str]] = {}
        for base, _bctx, field, heap, _hctx in fld:
            self.fld_points_to.setdefault((base, field), set()).add(heap)
        self.call_graph: Dict[str, Set[str]] = {}
        for invo, _cc, meth, _ec in cg:
            self.call_graph.setdefault(invo, set()).add(meth)
        self.reachable_methods: FrozenSet[str] = frozenset(m for m, _c in reach)


def precision(view: RelationsView, facts: FactBase) -> Dict[str, int]:
    """The paper's three precision counts, from string-level relations."""
    hierarchy = facts.program.hierarchy
    poly = sum(
        1
        for invo, targets in view.call_graph.items()
        if invo in facts.vcall_invos and len(targets) >= 2
    )
    failing = set()
    for to, type_name, frm, meth in facts.cast:
        if meth in view.reachable_methods and any(
            not hierarchy.is_subtype(facts.heap_type[h], type_name)
            for h in view.var_points_to.get(frm, ())
        ):
            failing.add(to)
    return {
        "poly_vcalls": poly,
        "reachable_methods": len(view.reachable_methods),
        "casts_may_fail": len(failing),
    }


def relations_digest(relations: Sequence[Iterable[tuple]]) -> str:
    """Order-independent SHA-256 of the five relations, in
    ``RESULT_RELATIONS`` order."""
    h = hashlib.sha256()
    for rows in relations:
        for row in sorted(map(repr, rows)):
            h.update(row.encode())
            h.update(b"\x1e")
        h.update(b"\x1d")
    return h.hexdigest()


def _reference(program: Program, policy: ContextPolicy, facts: FactBase,
               max_tuples: Optional[int] = None):
    raw = reference_solve(program, policy, facts=facts, max_tuples=max_tuples)
    return raw.tuple_count, reference_relations(raw)


# ----------------------------------------------------------------------
# paper-matrix
# ----------------------------------------------------------------------

def expected_cell(program: Program, facts: FactBase, analysis: str,
                  heuristic: Optional[str]) -> Dict[str, object]:
    """One matrix cell's outputs, computed on the reference solver."""
    budget = EXPERIMENT_BUDGET
    cell: Dict[str, object] = {}
    if heuristic is None:
        policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
    else:
        _tuples, rels = _reference(
            program, policy_by_name("insens"), facts, max_tuples=budget
        )
        pass1 = RelationsView(rels)
        heur = scaled_heuristic_a() if heuristic == "A" else scaled_heuristic_b()
        decision = heur.decide(compute_metrics(pass1, facts), facts, pass1)
        cell.update(
            excluded_sites=len({invo for invo, _m in decision.excluded_sites}),
            excluded_objects=len(decision.excluded_objects),
            total_sites=len({invo for invo, _m in call_site_universe(pass1)}),
            total_objects=len(object_universe(pass1, facts)),
        )
        policy = IntrospectivePolicy(
            policy_by_name(analysis, alloc_class_of=facts.alloc_class_of), decision
        )
    try:
        tuples, rels = _reference(program, policy, facts, max_tuples=budget)
    except BudgetExceeded:
        cell.update(timed_out=True, tuples=None, poly_vcalls=None,
                    reachable_methods=None, casts_may_fail=None)
        return cell
    cell.update(timed_out=False, tuples=tuples, **precision(RelationsView(rels), facts))
    return cell


def check_paper_matrix(records: Sequence[Mapping[str, object]],
                       expected: Mapping[str, Mapping[str, object]]) -> List[str]:
    """One message per record whose outputs differ from ``expected``."""
    failures = []
    for rec in records:
        want = expected.get(rec["cell"])
        got = {k: rec.get(k) for k in want or ()}
        if want is None or got != dict(want):
            failures.append(f"{rec['cell']}: got {got}, expected {want}")
    return failures


def load_expected(path: Path = EXPECTED) -> Dict[str, Dict[str, object]]:
    return json.loads(path.read_text())["cells"]


# ----------------------------------------------------------------------
# query-mix
# ----------------------------------------------------------------------

def check_query_mix(records: Sequence[Mapping[str, object]], engines) -> List[str]:
    """Compare every answer with the whole-program reference projection.

    A budget trip is correct only when the reference solver, run on the
    same slice with the same budget, trips too.
    """
    failures = []
    projections: Dict[Tuple[str, str], Dict[str, List[str]]] = {}
    trips: Dict[Tuple[str, str, str], bool] = {}
    for rec in records:
        bench, flavor, var = rec["bench"], rec["flavor"], rec["var"]
        engine = engines[bench]
        policy = engine.policy(flavor)
        if rec["points_to"] is None:
            key = (bench, flavor, var)
            if key not in trips:
                sliced = engine.plan(var).sliced_facts(engine.program, engine.facts)
                # The reference solver types only allocated heaps.
                allocated = {heap for _v, heap, _m in sliced.alloc}
                sliced = dataclasses.replace(sliced, heaptype=[
                    row for row in sliced.heaptype if row[0] in allocated])
                try:
                    _reference(engine.program, policy, sliced,
                               max_tuples=engine.max_tuples)
                    trips[key] = False
                except BudgetExceeded:
                    trips[key] = True
            if not trips[key]:
                failures.append(f"{bench}/{flavor} {var}: budget trip "
                                "the reference solver does not reproduce")
            continue
        proj = projections.get((bench, flavor))
        if proj is None:
            _tuples, rels = _reference(engine.program, policy, engine.facts)
            proj = {}
            for v, _ctx, heap, _hctx in rels[0]:
                proj.setdefault(v, set()).add(heap)
            proj = projections[(bench, flavor)] = {
                v: sorted(heaps) for v, heaps in proj.items()
            }
        want = proj.get(var, [])
        if rec["points_to"] != want:
            failures.append(f"{bench}/{flavor} {var}: got {rec['points_to']}, "
                            f"reference {want}")
    return failures


# ----------------------------------------------------------------------
# edit-session
# ----------------------------------------------------------------------

def check_edit_session(records: Sequence[Mapping[str, object]], sketches,
                       scripts, analysis: str) -> List[str]:
    """Replay each session's scripts and compare the checkpoint digests.

    Records carry a ``digest`` at their session's checkpoints only.  A
    mismatching checkpoint marks every op of that session since its
    previous checkpoint, in that round, as failed.
    """
    checkpoints: Dict[str, Set[int]] = {}
    for rec in records:
        if rec["digest"] is not None:
            checkpoints.setdefault(rec["bench"], set()).add(rec["index"])
    want: Dict[Tuple[str, int], str] = {}
    for bench, indices in checkpoints.items():
        sketch = sketches[bench].clone()
        for index, script in enumerate(scripts[bench][: max(indices) + 1]):
            script.apply(sketch)
            if index in indices:
                program = sketch.build()
                facts = encode_program(program)
                policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
                want[(bench, index)] = relations_digest(_reference(program, policy, facts)[1])
    failures = []
    windows: Dict[Tuple[int, str], List[Mapping[str, object]]] = {}
    for rec in records:
        window = windows.setdefault((rec["round"], rec["bench"]), [])
        window.append(rec)
        if rec["digest"] is None:
            continue
        if rec["digest"] != want[(rec["bench"], rec["index"])]:
            failures.extend(
                f"{r['bench']} op {r['index']} (round {r['round']}): relations "
                f"diverge from the reference at op {rec['index']}"
                for r in window
            )
        window.clear()
    return failures


# ----------------------------------------------------------------------
# Regenerating expected/paper-matrix.json
# ----------------------------------------------------------------------

def _experiments_tables(text: str) -> Dict[str, List[List[str]]]:
    """Markdown tables of EXPERIMENTS.md, keyed by the heading above them;
    a second table under one heading is keyed ``<heading>#2``."""
    tables: Dict[str, List[List[str]]] = {}
    heading, rows = "", []
    for line in text.splitlines() + [""]:
        if line.startswith("#"):
            heading = line.lstrip("#").strip()
        if line.startswith("|---"):
            continue
        if line.startswith("|"):
            rows.append([c.strip().strip("*") for c in line.strip("|").split("|")])
        elif rows:
            key = heading
            while key in tables:
                key += "#2"
            tables[key] = rows
            rows = []
    return tables


def disagreements_with_experiments(cells: Mapping[str, Mapping[str, object]],
                                   experiments_md: str) -> List[str]:
    """Where ``cells`` contradicts EXPERIMENTS.md's Figure 4-7 tables."""
    tables = _experiments_tables(experiments_md)
    problems = []

    def expect(cell: str, field: str, shown: str) -> None:
        got = cells[cell]
        value = "TIMEOUT" if got["timed_out"] and field == "tuples" else got[field]
        if str(value) != shown and not (shown == "—" and value is None):
            problems.append(f"{cell} {field}: {value} vs EXPERIMENTS.md {shown}")

    columns = (("insens", None), (None, "A"), (None, "B"), (None, None))
    for heading, analysis in (("Figure 5 (2objH)", "2objH"),
                              ("Figure 6 (2typeH)", "2typeH"),
                              ("Figure 7 (2callH)", "2callH")):
        for key, field in ((heading, "tuples"), (heading + "#2", "casts_may_fail")):
            for row in tables.get(key, [])[1:]:
                bench = row[0]
                for shown, (fixed, heur) in zip(row[1:], columns):
                    name = cell_name(bench, fixed or analysis, heur)
                    if name in cells:
                        expect(name, field, shown)
    fig4 = next(v for k, v in tables.items() if k.startswith("Figure 4"))
    for row in fig4[1:]:
        bench = row[0]
        for shown, heur, kind in zip(row[1:], "ABAB", ("sites", "sites", "objects", "objects")):
            name = cell_name(bench, "2objH", heur)
            if name not in cells:
                continue
            cell = cells[name]
            pct = 100.0 * cell[f"excluded_{kind}"] / cell[f"total_{kind}"]
            if f"{pct:.1f}" != shown:
                problems.append(f"{name} {kind}: {pct:.1f}% vs EXPERIMENTS.md {shown}%")
    return problems


def regenerate(path: Path = EXPECTED) -> Dict[str, Dict[str, object]]:
    from repro.benchgen import HARD_BENCHMARKS, build_benchmark

    cells: Dict[str, Dict[str, object]] = {}
    for bench in HARD_BENCHMARKS:
        program = build_benchmark(bench)
        facts = encode_program(program)
        for _b, analysis, heuristic in matrix_cells([bench]):
            name = cell_name(bench, analysis, heuristic)
            cells[name] = expected_cell(program, facts, analysis, heuristic)
            print(f"{name}: {cells[name]}", file=sys.stderr)
    problems = disagreements_with_experiments(
        cells, (ROOT / "EXPERIMENTS.md").read_text()
    )
    if problems:
        raise SystemExit("refusing to write; disagrees with EXPERIMENTS.md:\n"
                         + "\n".join(problems))
    doc = {
        "about": "paper-matrix outputs from the frozen reference solver; "
                 "regenerate with python3 bench/oracle.py",
        "budget": EXPERIMENT_BUDGET,
        "cells": cells,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return cells


if __name__ == "__main__":
    regenerate()
