"""The ``rederive`` tier: delete-and-rederive on the warm packed solver.

Every retraction it absorbs must leave the session exactly where a fresh
solve of the edited program lands — the five relations, the tuple count
the budget reads, the virtual-dispatch outcomes and the reported result
delta — and the retractions it cannot absorb must say why they re-solve.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProgramBuilder
from repro.analysis.datalog_model import DatalogPointsToAnalysis
from repro.analysis.solver import BudgetExceeded, PointsToSolver
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.fuzz.corpus import iter_corpus, load_entry
from repro.fuzz.oracles import solver_relations
from repro.fuzz.sketch import ProgramSketch
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
from repro.ir.instructions import Alloc, Store
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
        "rederive refused (over-deleted region 8/10 nodes exceeds 40%); "
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
