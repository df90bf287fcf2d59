"""The ``rederive`` tier: delete-and-rederive on the warm packed solver.

Every retraction it absorbs must leave the session exactly where a fresh
solve of the edited program lands — the five relations, the tuple count
the budget reads, the virtual-dispatch outcomes and the reported result
delta — and the retractions it cannot absorb must say why they re-solve.
"""

from __future__ import annotations

import gc
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProgramBuilder
from repro.analysis.datalog_model import DatalogPointsToAnalysis
from repro.analysis.solver import (
    _FLD,
    _STATIC,
    _THROW,
    _VAR,
    BudgetExceeded,
    PointsToSolver,
    _EditIndexes,
)
from repro.benchgen.dacapo import build_benchmark
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.fuzz.corpus import iter_corpus, load_entry
from repro.fuzz.oracles import solver_relations
from repro.fuzz.sketch import ProgramSketch
from repro.harness.runner import EXPERIMENT_BUDGET, run_introspective_analysis
from repro.incremental.edits import (
    AddClass,
    AddMethod,
    DeleteInstruction,
    EditScript,
    InsertInstruction,
    RemoveClass,
    RemoveMethod,
    random_edit_script,
)
from repro.incremental.session import RESULT_RELATIONS, IncrementalSession
from repro.introspection.heuristics import heuristic_from_spec
from repro.ir.instructions import Alloc, StaticCall, Store, Throw
from repro.query.engine import QueryEngine
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)


def build_exception_program():
    """Exceptions thrown through a virtual call and caught two frames up,
    so deletions exercise the throw consumers and escape nodes."""
    b = ProgramBuilder()
    b.klass("Exc")
    b.klass("IOExc", super_name="Exc")
    b.klass("NetExc", super_name="Exc")
    with b.method("Worker", "run", ["x"]) as m:
        m.alloc("io", "IOExc")
        m.throw("io")
        m.throw("x")
        m.ret("x")
    with b.method("Mid", "relay", ["w", "y"], static=True) as m:
        m.vcall("w", "run", ["y"], target="r")
        m.catch("h", "IOExc")
        m.move("s", "h")
        m.ret("r")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("w", "Worker")
        m.alloc("n", "NetExc")
        m.scall("Mid", "relay", ["w", "n"], target="z")
        m.catch("all", "Exc")
        m.move("k", "z")
    return b.build(entry="Main.main/0")


BALLAST = 40


def ballast(m, n=BALLAST):
    """Allocations nothing reads: nodes outside any deletion's region, so
    a small test program's over-deleted share stays under the fallback."""
    for i in range(n):
        m.alloc(f"ballast{i}", "java.lang.Object")


PROGRAMS = {
    "tiny": build_tiny_program,
    "boxes": build_box_program,
    "kitchen-sink": build_kitchen_sink_program,
    "exceptions": build_exception_program,
}
FLAVORS = ("insens", "2objH", "2typeH", "2callH")
CORPUS_DIR = str(Path(__file__).resolve().parents[1] / "corpus")


def session_of(build, analysis="insens", max_tuples=None):
    return IncrementalSession(
        ProgramSketch.from_program(build()), analysis=analysis, max_tuples=max_tuples
    )


def fresh_solve(session, max_tuples=None):
    program = session.sketch.build()
    facts = encode_program(program)
    policy = policy_by_name(session.analysis, alloc_class_of=facts.alloc_class_of)
    return PointsToSolver(program, policy, facts=facts, max_tuples=max_tuples).solve()


def dispatches(raw):
    return {
        raw.invos.value(invo): {raw.meths.value(m) for m in targets}
        for invo, targets in raw.vcall_dispatches.items()
    }


def assert_exact(session, before, outcome):
    """The session equals a fresh solve after ``outcome``, and the
    outcome's result delta is the exact relation diff."""
    raw = fresh_solve(session)
    now = session.relations()
    assert now == dict(zip(RESULT_RELATIONS, solver_relations(raw))), outcome.reason
    assert session._solver._tuple_count == raw.tuple_count, outcome.reason
    assert dispatches(session._solver.snapshot()) == dispatches(raw), outcome.reason
    for name in RESULT_RELATIONS:
        assert outcome.result_added.get(name, frozenset()) == now[name] - before[name]
        assert outcome.result_removed.get(name, frozenset()) == before[name] - now[name]


# ----------------------------------------------------------------------
# Property: every step of a random script with removals is exact
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PROGRAMS)),
    analysis=st.sampled_from(FLAVORS),
)
def test_every_step_equals_a_fresh_solve(seed, name, analysis):
    session = session_of(PROGRAMS[name], analysis)
    rng = random.Random(seed)
    for _ in range(4):
        before = session.relations()
        script = random_edit_script(session.sketch, rng, edits=rng.randint(1, 3))
        assert_exact(session, before, session.apply(script))


def test_rederive_takes_most_removal_steps():
    # A blanket fallback to ``full`` would pass the property above; the
    # tier must actually absorb the retractions it is scoped for.
    removals = rederived = 0
    for name, build in PROGRAMS.items():
        for analysis in FLAVORS:
            for seed in range(6):
                session = session_of(build, analysis)
                rng = random.Random(seed)
                for _ in range(4):
                    out = session.apply(
                        random_edit_script(session.sketch, rng, edits=2)
                    )
                    if out.delta.removed:
                        removals += 1
                        rederived += out.tier == "rederive"
    assert removals >= 100
    assert rederived > 0.6 * removals, (rederived, removals)


# ----------------------------------------------------------------------
# Property: the owner index names every node, after every tier
# ----------------------------------------------------------------------
SKETCHES = {
    **{
        name: (lambda build=build: ProgramSketch.from_program(build()))
        for name, build in PROGRAMS.items()
    },
    **{
        Path(path).stem: (
            lambda path=path: ProgramSketch.from_json(load_entry(path)["program"])
        )
        for path in iter_corpus(CORPUS_DIR)
    },
}


def assert_owner_index(solver):
    """One owner entry per node, decoding to the table entry that holds
    the node."""
    want = {}
    for ctx, vmap in solver._var_nodes.items():
        for var, node in vmap.items():
            want[node] = (_VAR, ctx, var)
    for fld, fmap in solver._fld_nodes.items():
        for pid, node in fmap.items():
            want[node] = (_FLD, fld, pid)
    for key, node in solver._throw_nodes.items():
        want[node] = (_THROW, key >> 32, key & 0xFFFFFFFF)
    for sfld, node in solver._static_nodes.items():
        want[node] = (_STATIC, 0, sfld)
    assert len(solver._owners) == len(solver._pts) == len(want)
    for node, (kind, hi, lo) in want.items():
        assert solver._owners[node] == hi << 32 | lo
        assert solver._owner(node) == (kind, hi, lo)


def assert_edit_indexes(solver):
    """A warm solver's edit indexes equal ones rebuilt from its tables,
    entry for entry, and no insertion log is left armed."""
    ix = solver._indexes
    assert ix is not None and ix.linked is None and ix.reached is None
    want = _EditIndexes.of(solver)
    for name in ("from_site", "into", "ctxs", "in_plain", "in_filtered"):
        have, rebuilt = getattr(ix, name), getattr(want, name)
        assert have.keys() == rebuilt.keys(), name
        for key, entries in have.items():
            # A lone entry is stored bare, never as a one-entry list.
            assert not isinstance(entries, list) or len(entries) > 1, (name, key)
            assert sorted(have.of(key)) == sorted(rebuilt.of(key)), (name, key)
    # Every site with a call edge is indexed, and every indexed site is a
    # call of its caller's current body, with that result variable.
    assert {edge[0] for edge in solver._call_graph} <= ix.callers.keys()
    assert ix.callers.keys() == ix.lhs.keys()
    for invo, caller in ix.callers.items():
        assert want.callers[invo] == caller and want.lhs[invo] == ix.lhs[invo]
    # Every variable of a compiled body, and every variable owning a node,
    # maps to the method its name is qualified with (rederive reads it).
    assert want.var_meth.items() <= ix.var_meth.items()
    var_name, meth_name = solver.vars.value, solver.meths.value
    for vmap in solver._var_nodes.values():
        for var in vmap:
            prefix = meth_name(ix.var_meth[var]) + "/"
            assert var_name(var).startswith(prefix), var_name(var)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(SKETCHES)),
    analysis=st.sampled_from(FLAVORS),
)
def test_owner_index_names_every_node(seed, name, analysis):
    session = IncrementalSession(SKETCHES[name](), analysis=analysis)
    assert_owner_index(session._solver)  # after solve
    rng = random.Random(seed)
    for _ in range(4):
        script = random_edit_script(session.sketch, rng, edits=rng.randint(1, 3))
        session.apply(script)  # extend, retract, or a fresh solve
        assert_owner_index(session._solver)


def build_late_load_program():
    """Loads registered before their base points anywhere: the base gets
    its two objects from a call linked after the loads, so the worklist
    creates all four field nodes (two fields by two objects)."""
    b = ProgramBuilder()
    b.klass("Box", fields=["a", "b"])
    with b.method("Main", "make", [], static=True) as m:
        m.alloc("o", "Box")
        m.alloc("o", "Box")
        m.ret("o")
    with b.method("Main", "main", [], static=True) as m:
        m.load("ra", "x", "a")
        m.load("rb", "x", "b")
        m.scall("Main", "make", [], target="x")
        ballast(m)
    return b.build(entry="Main.main/0")


def test_owner_index_survives_extend_and_retract():
    # The property above, seeded so that both warm tiers and every node
    # kind are sure to be covered, with field nodes made on every path
    # that makes one.
    tiers = set()
    kinds = set()
    builds = {
        **PROGRAMS,
        "late-load": build_late_load_program,
        "antlr": lambda: build_benchmark("antlr"),
    }
    for name in ("kitchen-sink", "exceptions", "late-load", "antlr"):
        session = session_of(builds[name], "2objH")
        rng = random.Random(name)
        for _ in range(12):
            out = session.apply(random_edit_script(session.sketch, rng))
            tiers.add(out.tier)
            solver = session._solver
            assert_owner_index(solver)
            kinds.update(solver._owner(node)[0] for node in range(len(solver._pts)))
    assert {"monotonic", "rederive"} <= tiers, tiers
    assert kinds == {_VAR, _FLD, _THROW, _STATIC}


def first_escape_script(session):
    """Throw an allocated object from a method the entry point calls: the
    first exception to escape, over a call edge linked before it."""
    sketch = session.sketch
    main = sketch.method_by_id(session.program.entry_points[0])
    for call in main.instructions:
        if not isinstance(call, StaticCall):
            continue
        target = sketch.method_by_id(f"{call.class_name}.{call.sig}")
        allocs = [i for i in target.instructions if isinstance(i, Alloc)]
        if allocs:
            return EditScript([InsertInstruction(target.id, Throw(allocs[0].target))])
    raise AssertionError("no allocating callee of the entry point")


def test_warm_indexes_survive_extend_and_retract():
    # After every step -- both warm tiers, a ``full`` fallback, a budget
    # trip's rollback and a first escape inside ``extend`` -- the indexes
    # the warm solver keeps equal ones rebuilt from its tables.
    tiers = set()
    builds = {
        **PROGRAMS,
        "late-load": build_late_load_program,
        "antlr": lambda: build_benchmark("antlr"),
    }
    for name in ("kitchen-sink", "exceptions", "late-load", "antlr"):
        session = session_of(builds[name], "2objH")
        assert_edit_indexes(session._solver)
        rng = random.Random(name)
        for _ in range(12):
            out = session.apply(random_edit_script(session.sketch, rng))
            tiers.add(out.tier)
            assert_edit_indexes(session._solver)
    assert {"monotonic", "rederive"} <= tiers, tiers

    # A retraction the rederive tier refuses re-solves.
    session = session_of(build_exception_program, "2objH")
    out = session.apply(EditScript([DeleteInstruction("Mid.relay/2", 1)]))
    assert out.tier == "full"
    assert_edit_indexes(session._solver)

    # An extension past the budget rolls back to a fresh solve.
    probe = session_of(build_kitchen_sink_program, "2objH")
    budget = probe._solver._tuple_count + 5
    session = session_of(build_kitchen_sink_program, "2objH", max_tuples=budget)
    more = EditScript([
        InsertInstruction("Main.main/0", Alloc(f"zb{i}", "Dog")) for i in range(10)
    ])
    with pytest.raises(BudgetExceeded):
        session.apply(more)
    assert_edit_indexes(session._solver)

    # The first escape inside extend, then its retraction.
    session = session_of(lambda: build_benchmark("antlr"), "2objH")
    assert not session._solver._escaped
    out = session.apply(first_escape_script(session))
    assert out.tier == "monotonic" and session._solver._escaped
    assert_edit_indexes(session._solver)
    thrower = out.delta.added["THROWINSTR"]
    (_var, meth), = thrower
    last = len(session.sketch.method_by_id(meth).instructions) - 1
    out = session.apply(EditScript([DeleteInstruction(meth, last)]))
    assert out.tier == "rederive", out.reason
    assert_edit_indexes(session._solver)
    assert session.check_against_scratch() == []


def test_cold_runs_and_queries_build_no_index(monkeypatch):
    # Only a warm session pays for the edit indexes.
    built = []
    of = _EditIndexes.of.__func__
    monkeypatch.setattr(
        _EditIndexes, "of",
        classmethod(lambda cls, solver: built.append(solver) or of(cls, solver)),
    )
    program = build_benchmark("antlr")
    run_introspective_analysis(
        program, "2objH", heuristic_from_spec("A", None), max_tuples=EXPERIMENT_BUDGET
    )
    facts = encode_program(program)
    engine = QueryEngine(program, facts=facts)
    var = sorted({var for var, _meth in facts.varinmeth})[0]
    assert engine.query(var, "2objH").points_to
    assert built == []
    session = session_of(build_box_program, "2objH")
    assert built == [session._solver]


class _NoScan:
    """A solver table that answers lookups and takes updates, but raises
    on anything that walks it: iteration, a copy, set algebra."""

    _KEYED = frozenset({"get", "pop", "setdefault", "add", "discard", "remove"})

    def __init__(self, table):
        self._table = table

    def __getattr__(self, name):
        if name not in self._KEYED:
            raise AssertionError(f"an edit called {name} on a whole-program table")
        return getattr(self._table, name)

    def __iter__(self):
        raise AssertionError("an edit iterated a whole-program table")

    def __contains__(self, key):
        return key in self._table

    def __len__(self):
        return len(self._table)

    def __getitem__(self, key):
        return self._table[key]

    def __setitem__(self, key, value):
        self._table[key] = value

    def __delitem__(self, key):
        del self._table[key]

    def __isub__(self, other):
        self._table -= other
        return self


def test_small_edits_scan_no_whole_program_table():
    # An empty-region retraction and a one-instruction extension read the
    # warm indexes; swapped-in tables that raise on any walk prove they
    # read no table of the whole program end to end.
    session = session_of(lambda: build_benchmark("antlr"), "2objH")
    main = session.program.entry_points[0]
    owner = session.program.method(main).class_name
    session.apply(EditScript([
        AddMethod(owner, "zidle", (), is_static=True, instructions=[
            Alloc("a", "java.lang.Object"), Alloc("b", "java.lang.Object"),
        ]),
    ]))
    solver = session._solver
    names = ("_reachable", "_call_graph", "_out_plain", "_out_filtered", "_bodies")
    for name in names:
        setattr(solver, name, _NoScan(getattr(solver, name)))
    try:
        gone = session.apply(EditScript([DeleteInstruction(f"{owner}.zidle/0", 1)]))
        grown = session.apply(
            EditScript([InsertInstruction(main, Alloc("zq", "java.lang.Object"))])
        )
    finally:
        for name in names:
            setattr(solver, name, getattr(solver, name)._table)
    assert gone.tier == "rederive" and " 0/" in gone.reason, gone.reason
    assert grown.tier == "monotonic" and grown.result_added, grown.reason
    assert_edit_indexes(solver)
    assert session.check_against_scratch() == []


# ----------------------------------------------------------------------
# Hazards a plausible wrong implementation gets wrong
# ----------------------------------------------------------------------
def test_edge_with_a_second_justification_keeps_its_flow():
    # Under insens, ``p = q`` and the self-call's binding of actual ``q``
    # to formal ``p`` are the same edge q -> p.  Deleting the move must
    # keep the flow the binding still justifies.
    b = ProgramBuilder()
    b.klass("A")
    b.klass("C")
    with b.method("Main", "rec", ["p", "q"], static=True) as m:
        m.move("p", "q")
        m.scall("Main", "rec", ["q", "q"], target="r")
        m.ret("p")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("a", "A")
        m.alloc("c", "C")
        m.scall("Main", "rec", ["a", "c"], target="x")
        ballast(m)
    session = session_of(lambda: b.build(entry="Main.main/0"))
    heap_c = "Main.main/0/new C/1"
    flow = ("Main.rec/2/p", (), heap_c, ())
    assert flow in session.relations()["VARPOINTSTO"]
    before = session.relations()
    out = session.apply(EditScript([DeleteInstruction("Main.rec/2", 0)]))
    assert out.tier == "rederive"
    assert out.delta.removed.keys() == {"MOVE"}
    assert flow in session.relations()["VARPOINTSTO"]
    assert not out.result_removed
    assert_exact(session, before, out)


def dispatch_cycle_program(padding=BALLAST):
    """``main`` reaches ``A.run`` only through a field: ``b.f = a`` feeds
    the receiver of ``y.run()``.  ``A.run`` and ``B.go`` call each other,
    so once the store goes they keep each other's call edges alive — a
    dead cycle only reachability from the roots can see."""
    b = ProgramBuilder()
    b.klass("Box", fields=["f"])
    with b.method("A", "run", []) as m:
        m.alloc("x", "B")
        m.vcall("x", "go", [])
    with b.method("B", "go", []) as m:
        m.alloc("z", "A")
        m.vcall("z", "run", [])
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("b", "Box")
        m.alloc("a", "A")
        m.load("y", "b", "f")
        m.vcall("y", "run", [])
        ballast(m, padding)
        m.store("b", "f", "a")
    return b.build(entry="Main.main/0")


@pytest.mark.parametrize("analysis", FLAVORS)
def test_dropped_dispatch_kills_a_self_supporting_cycle(analysis):
    session = session_of(dispatch_cycle_program, analysis)
    reached = {m for m, _ctx in session.relations()["REACHABLE"]}
    assert {"A.run/0", "B.go/0"} <= reached
    before = session.relations()
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", 4 + BALLAST)]))
    assert out.tier == "rederive"
    assert out.delta.removed.keys() == {"STORE"}
    assert {m for m, _ctx in out.result_removed["REACHABLE"]} == {
        "A.run/0",
        "B.go/0",
    }
    assert "Main.main/0/invo/0" not in dispatches(session._solver.snapshot())
    assert_exact(session, before, out)
    # The torn-down activations come back whole when the store does.
    before = session.relations()
    out = session.apply(
        EditScript([InsertInstruction("Main.main/0", Store("b", "f", "a"))])
    )
    assert out.tier == "monotonic"
    assert {m for m, _ctx in out.result_added["REACHABLE"]} == {"A.run/0", "B.go/0"}
    assert_exact(session, before, out)


@pytest.mark.parametrize(
    "setup, script, cause",
    [
        # the catch clause is the method's second instruction
        ([], [DeleteInstruction("Mid.relay/2", 1)], "CATCHCLAUSE"),
        # a class nothing uses takes its SUBTYPE rows with it
        ([AddClass("Lonely")], [RemoveClass("Lonely")], "SUBTYPE"),
        # a static method shadowing an inherited instance method
        (
            [AddClass("Sub", superclass="Worker")],
            [AddMethod("Sub", "run", ["x"], is_static=True, instructions=[])],
            "LOOKUP",
        ),
        ([], [RemoveMethod("Worker.run/1")], "removed methods: Worker.run/1"),
    ],
    ids=["catchclause", "subtype", "lookup", "method-removal"],
)
def test_out_of_scope_retractions_re_solve_and_say_why(setup, script, cause):
    session = session_of(build_exception_program, "2objH")
    if setup:
        session.apply(EditScript(setup))
    before = session.relations()
    out = session.apply(EditScript(script))
    assert out.tier == "full"
    assert cause in out.reason
    if cause != "removed methods: Worker.run/1":
        assert f"retractions in {cause} cannot be rederived" == out.reason
    assert_exact(session, before, out)


def mixed_script():
    """Delete the store feeding the dispatch — cutting its call edges and
    the dead cycle's activations — and add more allocations than that
    takes away."""
    return EditScript(
        [DeleteInstruction("Main.main/0", 4 + BALLAST)]
        + [InsertInstruction("Main.main/0", Alloc(f"more{i}", "A")) for i in range(40)]
    )


@pytest.mark.parametrize("analysis", ("insens", "2objH"))
def test_mixed_script_trips_the_budget_iff_a_fresh_solve_does(analysis):
    probe = session_of(dispatch_cycle_program, analysis)
    start = probe._solver._tuple_count
    out = probe.apply(mixed_script())
    assert out.result_removed["CALLGRAPH"] and out.result_removed["REACHABLE"]
    target = fresh_solve(probe).tuple_count
    assert target > start

    fits = session_of(dispatch_cycle_program, analysis, max_tuples=target)
    before = fits.relations()
    out = fits.apply(mixed_script())
    assert out.tier == "rederive"
    assert_exact(fits, before, out)

    with pytest.raises(BudgetExceeded):
        fresh_solve(probe, max_tuples=target - 1)
    tight = session_of(dispatch_cycle_program, analysis, max_tuples=target - 1)
    digest = tight.facts.digest()
    before = tight.relations()
    with pytest.raises(BudgetExceeded):
        tight.apply(mixed_script())
    # Still at its old state, and still serving.
    assert tight.facts.digest() == digest
    assert tight.relations() == before
    assert tight.check_against_scratch() == []
    out = tight.apply(EditScript(mixed_script().edits[:1]))
    assert out.tier == "rederive"
    assert_exact(tight, before, out)


def test_a_region_past_the_share_re_solves_and_says_so():
    # Without ballast the dead cycle is most of the program.
    session = session_of(lambda: dispatch_cycle_program(padding=0), "insens")
    before = session.relations()
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", 4)]))
    assert out.tier == "full"
    assert out.reason == (
        "rederive refused (over-deleted region 8/11 nodes exceeds 40%); "
        "retractions in STORE"
    )
    assert_exact(session, before, out)


def test_reason_names_relations_and_region():
    session = session_of(build_kitchen_sink_program, "2objH")
    out = session.apply(EditScript([DeleteInstruction("Util.pick/2", 1)]))
    assert out.tier == "rederive"
    head, region = out.reason.split("; ")
    assert head == "rederive: FORMALRETURN"
    over, total = region[: -len(" nodes")].split("/")
    assert 0 < int(over) < int(total)


# ----------------------------------------------------------------------
# Independent oracle: the Datalog model of the paper's rules
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "path", iter_corpus(CORPUS_DIR), ids=lambda p: Path(p).stem
)
def test_rederived_relations_equal_the_datalog_model(path):
    entry = load_entry(path)
    analysis = entry["flavor"] or "insens"
    sketch = ProgramSketch.from_json(entry["program"])
    session = IncrementalSession(sketch, analysis=analysis)
    rng = random.Random(entry["seed"])
    rederived = 0
    for _ in range(6):
        script = random_edit_script(session.sketch, rng, edits=1, kinds=("delete",))
        if not len(script):
            break
        out = session.apply(script)
        if out.tier != "rederive":
            continue
        rederived += 1
        program = session.sketch.build()
        facts = encode_program(program)
        model = DatalogPointsToAnalysis(
            program,
            policy_by_name(analysis, alloc_class_of=facts.alloc_class_of),
            facts=facts,
        ).run()
        rel = session.relations()
        assert rel["VARPOINTSTO"] == model.var_points_to
        assert rel["FLDPOINTSTO"] == model.fld_points_to
        assert rel["CALLGRAPH"] == model.call_graph
        assert rel["REACHABLE"] == model.reachable
        assert rel["THROWPOINTSTO"] == model.throw_points_to
    assert rederived


def _retract_keeps(build):
    """The collector-tracked objects one empty-region retraction leaves
    alive: it deletes the last instruction of a method nothing calls."""
    session = session_of(build, "2objH")
    owner = session.program.method(session.program.entry_points[0]).class_name
    session.apply(EditScript([
        AddMethod(owner, "zidle", (), is_static=True, instructions=[
            Alloc("a", "java.lang.Object"), Alloc("b", "java.lang.Object"),
        ]),
    ]))
    solver = session._solver
    retract = solver.retract
    keeps = []

    def measured(program, bodies, removed):
        gc.collect()
        gc.disable()
        try:
            before = gc.get_count()[0]
            out = retract(program, bodies, removed)
            keeps.append(gc.get_count()[0] - before)
            return out
        finally:
            gc.enable()

    solver.retract = measured
    out = session.apply(EditScript([DeleteInstruction(f"{owner}.zidle/0", 1)]))
    assert out.tier == "rederive" and out.reason.endswith(
        f"; 0/{len(solver._pts) + len(solver._reachable)} nodes"
    ), out.reason
    return solver, keeps[0]


def test_call_index_holds_no_container_per_key():
    """An empty-region retraction keeps about the same handful of tracked
    objects on the box program and on xalan's 2objH call graph: an
    allocation per edge, site or activation would start collector passes
    inside every edit.  The warm solver's call index answers as a per-key
    table of the call graph does."""
    _small, small_keeps = _retract_keeps(build_box_program)
    solver, keeps = _retract_keeps(lambda: build_benchmark("xalan"))
    assert len(solver._call_graph) > 1000
    assert abs(keeps - small_keeps) <= 2 and keeps < 40, (keeps, small_keeps)

    calls = solver._indexes
    by_site, into = {}, {}
    for edge in solver._call_graph:
        by_site.setdefault(edge[:2], set()).add(edge)
        into.setdefault(edge[2:], set()).add(edge)
    for (invo, ctx), edges in by_site.items():
        assert set(calls.from_site.of(invo << 32 | ctx)) == edges
    for (meth, ctx), edges in into.items():
        assert set(calls.into.of(meth << 32 | ctx)) == edges
    assert calls.from_site.of((len(solver.invos) + 1) << 32) == ()
    for meth, mb in solver._bodies.items():
        for base, target, invo, lhs, args in mb.vcalls:
            assert solver._call_site(invo) == (base, target, args, True)
            assert calls.lhs[invo] == lhs
        for base, target, invo, lhs, args in mb.specialcalls:
            assert solver._call_site(invo) == (base, target, args, False)
        for target, invo, lhs, args in mb.scalls:
            assert solver._call_site(invo) == (-1, target, args, False)
            assert calls.callers[invo] == meth
    assert_edit_indexes(solver)
