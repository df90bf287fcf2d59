"""Warm extension over a solver that compiles method bodies on first reach.

The packed solver compiles a method body only when something first needs
it, so ``extend()`` cannot read the set of pre-existing methods off its
compiled bodies.  Successive edits must still see every method an earlier
edit added, and an edit into a method no solve ever reached must survive
until that method is reached.
"""

from __future__ import annotations

from repro import ProgramBuilder
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.edits import AddMethod, InsertInstruction
from repro.incremental.session import IncrementalSession
from repro.ir.instructions import Alloc, Move, Return, StaticCall, VirtualCall


def idle_program():
    """``Main.main`` allocates an ``A``; ``A.idle`` has no instructions
    and is never called."""
    b = ProgramBuilder()
    b.klass("A")
    with b.method("A", "idle", []) as m:
        m.ret()
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("a", "A")
    return b.build(entry="Main.main/0")


def test_successive_monotonic_edits_match_scratch():
    session = IncrementalSession(
        ProgramSketch.from_program(idle_program()), analysis="2objH"
    )
    edits = [
        # 1. a new method, not yet called
        [AddMethod(
            "Main",
            "helper",
            ("p",),
            is_static=True,
            instructions=[Alloc("h", "A"), Return("h")],
        )],
        # 2. call it: its body from edit 1 must still be there
        [
            InsertInstruction(
                "Main.main/0",
                StaticCall(
                    target="r", args=("a",), class_name="Main", sig="helper/1"
                ),
            )
        ],
        # 3. instructions into the never-reached, instruction-less method
        [InsertInstruction("A.idle/0", Alloc("y", "A"))],
        # 4. grow edit 1's method, now reached: it must stay known
        [
            InsertInstruction("Main.helper/1", Alloc("k", "A")),
            InsertInstruction("Main.helper/1", Move("h", "k")),
        ],
        # 5. reach A.idle: edit 3's instruction must be played
        [
            InsertInstruction(
                "Main.main/0",
                VirtualCall(target=None, args=(), base="r", sig="idle/0"),
            )
        ],
    ]
    for step, script in enumerate(edits, start=1):
        outcome = session.apply(script)
        assert outcome.tier == "monotonic", (step, outcome.reason)
        assert session.check_against_scratch() == [], step
    vpt = session.relations()["VARPOINTSTO"]
    assert {row[0] for row in vpt} >= {
        "Main.main/0/r",
        "Main.helper/1/p",
        "A.idle/0/y",
    }
    assert {heap for var, _c, heap, _h in vpt if var == "Main.main/0/r"} == {
        "Main.helper/1/new A/0",
        "Main.helper/1/new A/1",
    }
