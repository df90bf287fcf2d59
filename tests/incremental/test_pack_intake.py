"""Warm edits reach the solver as compiled-body deltas.

A session's solver reads a packed program that moves with the session's
program: the dirty methods it has compiled are compiled again, and the
solver turns the bodies it played into the new ones.  These tests pin
the traps of that intake: allocation sites renumbered by an edit (new
heaps, since a site id names its type), methods the solver never
reached, a budget trip after the pack moved, and fresh packs for
``full`` re-solves.
"""

from __future__ import annotations

import pytest

from repro import ProgramBuilder
from repro.analysis.solver import BudgetExceeded, PointsToSolver
from repro.facts.encoder import FactBase, encode_program
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.edits import (
    DeleteInstruction,
    EditScript,
    InsertInstruction,
    RemoveMethod,
)
from repro.incremental.session import IncrementalSession
from repro.ir.instructions import Alloc, StaticCall

FLAVORS = ("insens", "2objH", "2typeH", "2callH")


def two_allocations_program():
    """``make`` allocates an ``A`` and then a ``B`` into one variable; a
    cast to ``B`` and a virtual call read the heaps' types.  Allocations
    nothing reads keep an over-deleted region under the fallback."""
    b = ProgramBuilder()
    b.klass("A")
    b.klass("B")
    with b.method("A", "m", []) as m:
        m.alloc("r", "A")
        m.ret("r")
    with b.method("B", "m", []) as m:
        m.alloc("r", "B")
        m.ret("r")
    with b.method("Main", "make", [], static=True) as m:
        m.alloc("o", "A")
        m.alloc("o", "B")
        m.ret("o")
    with b.method("Main", "main", [], static=True) as m:
        ballast(m)
        m.scall("Main", "make", [], target="x")
        m.cast("y", "x", "B")
        m.vcall("x", "m", [], target="z")
        m.vcall("y", "m", [], target="w")
    return b.build(entry="Main.main/0")


def ballast(m, n=40):
    for i in range(n):
        m.alloc(f"ballast{i}", "java.lang.Object")


def session_of(program, analysis="2objH", max_tuples=None):
    sketch = ProgramSketch.from_program(program)
    return IncrementalSession(sketch, analysis=analysis, max_tuples=max_tuples)


def assert_pack_agrees(session):
    """The solver reads the session's program's pack, and every heap
    type it registered is the pack's."""
    solver, pack = session._solver, session._pack
    assert solver._pack is pack and pack.program is session.program
    for heap, typ in solver._heap_type.items():
        assert pack.heap_types[heap] == typ


@pytest.mark.parametrize("analysis", FLAVORS)
def test_deleting_the_first_of_two_allocations_shifts_the_next_site(analysis):
    session = session_of(two_allocations_program(), analysis)
    sites = session.program.method("Main.make/0").alloc_sites
    out = session.apply(EditScript([DeleteInstruction("Main.make/0", 0)]))
    assert out.tier == "rederive", out.reason
    # The B allocation now has index 0: a site id the program never had.
    (site,) = session.program.method("Main.make/0").alloc_sites
    assert site not in sites and site.endswith("/0")
    assert session.check_against_scratch() == []
    assert_pack_agrees(session)
    # And back: the A allocation returns in front and B moves to 1.
    back = InsertInstruction("Main.make/0", Alloc("o", "A"), 0)
    out = session.apply(EditScript([back]))
    assert out.tier == "rederive", out.reason
    assert session.program.method("Main.make/0").alloc_sites == sites
    assert session.check_against_scratch() == []
    assert_pack_agrees(session)


def test_an_unreached_method_is_compiled_from_the_moved_pack():
    b = ProgramBuilder()
    b.klass("A")
    with b.method("Main", "later", [], static=True) as m:
        m.alloc("a", "A")
        m.ret("a")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("x", "A")
    session = session_of(b.build(entry="Main.main/0"))
    assert "Main.later/0" not in session._pack.meths  # never reached
    grow = InsertInstruction("Main.later/0", Alloc("b", "A"))
    out = session.apply(EditScript([grow]))
    assert out.tier == "monotonic" and not out.result_added, out.reason
    assert session.check_against_scratch() == []
    call = StaticCall(target="y", args=(), class_name="Main", sig="later/0")
    out = session.apply(EditScript([InsertInstruction("Main.main/0", call)]))
    assert out.tier == "monotonic", out.reason
    pts = {row[:2] for row in out.result_added["VARPOINTSTO"]}
    assert ("Main.later/0/b", ()) in pts
    assert session.check_against_scratch() == []
    assert_pack_agrees(session)


def test_a_budget_trip_inside_extend_after_the_pack_moved():
    probe = session_of(two_allocations_program())
    budget = probe._solver._tuple_count + 3
    session = session_of(two_allocations_program(), max_tuples=budget)
    program, pack = session.program, session._pack
    more = EditScript([
        InsertInstruction("Main.make/0", Alloc(f"zb{i}", "B")) for i in range(8)
    ])
    with pytest.raises(BudgetExceeded):
        session.apply(more)
    # The pack had moved to the edited program; the session is back at
    # the old one, on a fresh pack of it, and still equals scratch.
    assert pack.program is not program
    assert session.program is program and session._pack is not pack
    assert_pack_agrees(session)
    assert session.check_against_scratch() == []
    out = session.apply(EditScript([DeleteInstruction("Main.make/0", 0)]))
    assert out.tier == "rederive", out.reason
    assert session.check_against_scratch() == []


def test_a_full_re_solve_starts_a_fresh_pack_and_builds_no_rows(monkeypatch):
    session = session_of(two_allocations_program())
    pack = session._pack

    def refuse(*_args, **_kwargs):
        raise AssertionError("a warm path built rows into a solver")

    monkeypatch.setattr(PointsToSolver, "_compile_rows", refuse)
    monkeypatch.setattr(FactBase, "index", refuse)
    grow = InsertInstruction("Main.make/0", Alloc("q", "A"))
    out = session.apply(EditScript([grow]))
    assert out.tier == "monotonic" and session._pack is pack
    out = session.apply(EditScript([DeleteInstruction("Main.make/0", 0)]))
    assert out.tier == "rederive" and session._pack is pack
    out = session.apply(EditScript([RemoveMethod("A.m/0")]))
    assert out.tier == "full" and session._pack is not pack
    assert_pack_agrees(session)
    monkeypatch.undo()
    assert session.check_against_scratch() == []
    assert out.digest == encode_program(session.sketch.build()).digest()


def test_a_call_losing_its_result_on_a_surviving_site_re_solves():
    # The call stays on its site and only its result variable goes: the
    # classifier accepts the retraction, and retract refuses it.
    session = session_of(two_allocations_program())
    main = session.sketch.method_by_id("Main.main/0")
    at = next(i for i, instr in enumerate(main.instructions)
              if isinstance(instr, StaticCall))
    call = StaticCall(target=None, args=(), class_name="Main", sig="make/0")
    out = session.apply(EditScript([
        DeleteInstruction("Main.main/0", at),
        InsertInstruction("Main.main/0", call, at),
    ]))
    assert out.tier == "full"
    assert out.reason == (
        "rederive refused (call-structure retractions on surviving call "
        "sites: Main.main/0/invo/0); retractions in ACTUALRETURN"
    ), out.reason
    assert session.check_against_scratch() == []


def test_a_call_re_created_with_its_wiring_on_a_deleted_site_stays_warm():
    # A deleted call's site id comes back with arguments and a result.
    # The classifier accepts the additions (the previous program had no
    # call there), and the solver, whose edit indexes dropped the site
    # with the call, takes them warm.
    b = ProgramBuilder()
    with b.method("Main", "g", ["x"], static=True) as m:
        m.ret("x")
    with b.method("Main", "main", [], static=True) as m:
        ballast(m, 12)
        m.alloc("a", "Main")
        m.scall("Main", "g", ["a"], target="r")
    session = session_of(b.build(entry="Main.main/0"))
    last = len(session.sketch.method_by_id("Main.main/0").instructions) - 1
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", last)]))
    assert out.tier == "rederive", out.reason
    call = StaticCall(target="r", args=("a",), class_name="Main", sig="g/1")
    out = session.apply(EditScript([InsertInstruction("Main.main/0", call)]))
    assert out.tier == "monotonic", out.reason
    assert out.result_added["CALLGRAPH"]
    assert session.check_against_scratch() == []
