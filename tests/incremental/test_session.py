"""Warm sessions must equal from-scratch on every tier."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProgramBuilder
from repro.facts.encoder import encode_program
from repro.frontend import parse_source
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.differ import diff_facts
from repro.incremental.edits import (
    AddClass,
    AddEntryPoint,
    AddField,
    AddMethod,
    DeleteInstruction,
    EditScript,
    InsertInstruction,
    RemoveClass,
    RemoveField,
    RemoveMethod,
    random_edit_script,
)
from repro.ir.instructions import (
    Alloc,
    ConstString,
    Invocation,
    Return,
    StaticCall,
)
from repro.ir.validate import ValidationError
from repro.incremental.session import (
    RESULT_RELATIONS,
    IncrementalSession,
)
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)

PROGRAMS = {
    "tiny": build_tiny_program,
    "boxes": build_box_program,
    "kitchen-sink": build_kitchen_sink_program,
}
#: The packed solver is the one warm engine; the parameter keeps the
#: node ids (``[tiny-solver]``, ``[solver]``) and the edit seeds stable.
ENGINES = ("solver",)
TIERS = ("noop", "monotonic", "rederive", "full")


def make_session(name="kitchen-sink", analysis="2objH"):
    sketch = ProgramSketch.from_program(PROGRAMS[name]())
    return IncrementalSession(sketch, analysis=analysis)


#: The encoder's derived maps beside the relation lists.
DERIVED_MAPS = (
    "heap_type",
    "alloc_class",
    "vars_of_method",
    "args_of_invo",
    "method_of_invo",
    "vcall_invos",
    "all_heaps",
    "string_const_heaps",
)


def program_shape(program):
    """Everything of a frozen program the analysis reads, as plain data."""
    return (
        [
            (
                m.id,
                m.params,
                m.is_static,
                m.instructions,
                tuple(i.invo for i in m.instructions if isinstance(i, Invocation)),
            )
            for m in program.methods()
        ],
        dict(program._alloc_sites),
        list(program.entry_points),
        [
            (cd.type, cd.fields, cd.static_fields, list(cd.methods))
            for cd in program.classes.values()
        ],
    )


def apply_and_check(session, script):
    """Apply ``script``; assert the per-method write path produced what
    a whole-program build and encoding would: the same program, the same
    rows in the same order, the same derived maps, the delta
    ``diff_facts`` computes, the digest; and that the previous program
    was left as it was."""
    previous_program = session.program
    previous_shape = program_shape(previous_program)
    previous = encode_program(previous_program)
    assert session.facts.as_relation_dict() == previous.as_relation_dict()
    out = session.apply(script)
    assert program_shape(previous_program) == previous_shape
    built = session.sketch.build()
    assert program_shape(session.program) == program_shape(built)
    fresh = encode_program(built)
    assert session.facts.as_relation_dict() == fresh.as_relation_dict()
    for name in DERIVED_MAPS:
        assert getattr(session.facts, name) == getattr(fresh, name), name
    assert out.delta == diff_facts(previous, fresh)
    assert out.digest == fresh.digest()
    return out


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_edit_sequences_stay_equivalent_to_scratch(engine, name):
    session = make_session(name)
    rng = random.Random(f"{engine}/{name}")
    for step in range(4):
        script = random_edit_script(session.sketch, rng, edits=2)
        out = session.apply(script)
        assert out.tier in TIERS
        assert session.check_against_scratch() == [], (name, step)
    assert session.edits_applied >= 4
    assert sum(session.tier_counts.values()) == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_monotonic_tier_taken_for_pure_additions(engine):
    session = make_session()
    rng = random.Random(11)
    script = random_edit_script(
        session.sketch, rng, edits=1, allow_removals=False, kinds=("alloc",)
    )
    out = session.apply(script)
    assert out.tier == "monotonic"
    assert not out.result_removed
    assert session.check_against_scratch() == []


@pytest.mark.parametrize("engine", ENGINES)
def test_deletion_takes_a_recompute_tier(engine):
    session = make_session()
    rng = random.Random(13)
    script = random_edit_script(session.sketch, rng, edits=1, kinds=("delete",))
    out = session.apply(script)
    assert out.tier == "rederive"
    assert session.check_against_scratch() == []


def test_noop_script_reports_noop_and_empty_deltas():
    session = make_session()
    before = session.relations()
    out = session.apply(EditScript([AddClass("ZTemp"), RemoveClass("ZTemp")]))
    assert out.tier == "noop"
    assert not out.result_added and not out.result_removed
    assert session.relations() == before


def test_result_delta_matches_relation_diff_exactly():
    # The solver's O(delta) reported additions must equal the brute-force
    # before/after set difference — the cheap path may not drop or invent
    # a single tuple.
    session = make_session()
    rng = random.Random(17)
    for _ in range(3):
        before = session.relations()
        script = random_edit_script(
            session.sketch, rng, edits=1, allow_removals=False
        )
        out = session.apply(script)
        after = session.relations()
        for name in RESULT_RELATIONS:
            plus = after[name] - before[name]
            minus = before[name] - after[name]
            assert out.result_added.get(name, frozenset()) == plus, name
            assert out.result_removed.get(name, frozenset()) == minus, name


def test_failed_edit_leaves_session_consistent():
    session = make_session()
    digest = session.facts.digest()
    before = session.relations()
    with pytest.raises(Exception):
        session.apply(EditScript([RemoveClass("NoSuchClass")]))
    assert session.facts.digest() == digest
    assert session.relations() == before
    assert session.check_against_scratch() == []
    # ... and the session still accepts edits afterwards.
    out = session.apply(EditScript([AddClass("ZAfter")]))
    assert out.tier in TIERS
    # A script that applies but builds an invalid program (a static call
    # nothing resolves) is rolled back; the edits after it must see the
    # rows of the program before it.
    with pytest.raises(ValidationError, match="unresolvable"):
        session.apply(EditScript([
            InsertInstruction("Main.main/0", Alloc("zfresh", "Dog")),
            InsertInstruction("Main.main/0", StaticCall(
                target="zr", args=(), class_name="Util", sig="nowhere/0"
            )),
        ]))
    assert session.check_against_scratch() == []
    rng = random.Random(31)
    out = apply_and_check(session, random_edit_script(session.sketch, rng))
    assert out.tier in TIERS


def test_budget_trip_mid_extend_keeps_session_usable():
    # A tuple budget that survives the initial solve but trips during a
    # later extension must not poison the warm engine: the session
    # recovers to its previous state and keeps answering.
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    probe = IncrementalSession(sketch, analysis="2objH")
    budget = len(probe.relations()["VARPOINTSTO"]) + 40

    session = IncrementalSession(sketch, analysis="2objH", max_tuples=budget)
    digest = session.facts.digest()
    rng = random.Random(23)
    tripped = False
    for _ in range(20):
        script = random_edit_script(
            session.sketch, rng, edits=2, allow_removals=False
        )
        try:
            session.apply(script)
            digest = session.facts.digest()
        except Exception:
            tripped = True
            break
    assert tripped, "budget never tripped; test needs a smaller margin"
    assert session.facts.digest() == digest
    assert session.check_against_scratch() == []
    # The row cache was left at the pre-failure program too: the next
    # successful edit's delta and fact base match a fresh encoding.
    out = apply_and_check(
        session, EditScript([DeleteInstruction("Main.main/0", 0)])
    )
    assert out.tier == "full"


def test_outcome_payload_is_json_shaped():
    import json

    session = make_session()
    out = session.apply(
        random_edit_script(session.sketch, random.Random(29), edits=2)
    )
    payload = out.to_payload(max_rows_per_relation=5)
    encoded = json.dumps(payload)  # must not raise
    assert json.loads(encoded)["tier"] == out.tier
    for rel in payload["result_delta"]["added"].values():
        assert len(rel["rows"]) <= 5
        assert rel["count"] >= len(rel["rows"])
    assert payload["timing"]["apply_seconds"] >= 0
    assert payload["timing"]["solve_seconds"] >= 0


# ----------------------------------------------------------------------
# The per-method write path: cross-method dependencies
# ----------------------------------------------------------------------
def hierarchy_session():
    """``B extends A``; ``A`` declares a static ``f`` and an instance
    ``g``; ``main`` calls ``f`` statically through ``B``."""
    b = ProgramBuilder()
    b.klass("A")
    b.klass("B", super_name="A")
    with b.method("A", "f", [], static=True) as m:
        m.alloc("fa", "A")
        m.ret("fa")
    with b.method("A", "g", []) as m:
        m.ret("this")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("x", "B")
        m.vcall("x", "g", [], target="y")
        m.scall("B", "f", [], target="z")
    sketch = ProgramSketch.from_program(b.build(entry="Main.main/0"))
    return IncrementalSession(sketch, analysis="2objH")


def test_added_method_shadowing_an_inherited_static_callee():
    session = hierarchy_session()
    body = [Alloc("fb", "B"), Return("fb")]
    out = apply_and_check(
        session, EditScript([AddMethod("B", "f", is_static=True, instructions=body)])
    )
    # main's static call now resolves to B.f: its SCALL row moved, though
    # main itself was never edited.
    assert {row[0] for row in out.delta.removed["SCALL"]} == {"A.f/0"}
    assert {row[0] for row in out.delta.added["SCALL"]} == {"B.f/0"}
    assert session.check_against_scratch() == []


def test_static_method_shadowing_an_instance_method_drops_a_lookup_row():
    session = hierarchy_session()
    out = apply_and_check(
        session,
        EditScript([AddMethod("B", "g", is_static=True, instructions=[])]),
    )
    assert out.delta.removed["LOOKUP"] == frozenset({("B", "g/0", "A.g/0")})
    assert session.check_against_scratch() == []


def test_added_class_with_an_overriding_method():
    session = hierarchy_session()
    out = apply_and_check(
        session,
        EditScript([
            AddClass("C", superclass="A"),
            AddMethod("C", "g", instructions=[Alloc("r", "C"), Return("r")]),
        ]),
    )
    assert ("C", "g/0", "C.g/0") in out.delta.added["LOOKUP"]
    assert ("C", "A") in out.delta.added["SUBTYPE"]
    assert out.tier == "full"
    assert session.check_against_scratch() == []


def test_reparented_class_moves_a_static_call_through_it():
    session = hierarchy_session()
    body = [Alloc("ft", "T"), Return("ft")]
    apply_and_check(
        session,
        EditScript([
            AddClass("T"),
            AddMethod("T", "f", is_static=True, instructions=body),
        ]),
    )
    # ``B`` declares nothing, so it can be removed and re-declared under
    # ``T``: main's ``B.f`` now resolves to ``T.f``, main untouched.
    out = apply_and_check(
        session, EditScript([RemoveClass("B"), AddClass("B", superclass="T")])
    )
    assert {row[0] for row in out.delta.removed["SCALL"]} == {"A.f/0"}
    assert {row[0] for row in out.delta.added["SCALL"]} == {"T.f/0"}
    assert ("B", "T") in out.delta.added["SUBTYPE"]
    assert session.check_against_scratch() == []


def test_shared_string_constant_is_retracted_with_its_last_use():
    b = ProgramBuilder()
    with b.method("Main", "main", [], static=True) as m:
        m.const_string("s", "hello")
        m.scall("Main", "aux", [], target="t")
    with b.method("Main", "aux", [], static=True) as m:
        m.const_string("u", "hello")
        m.ret("u")
    sketch = ProgramSketch.from_program(b.build(entry="Main.main/0"))
    session = IncrementalSession(sketch, analysis="2objH")
    heap = ConstString("s", "hello").heap_id
    users = [
        m.id
        for m in session.program.methods()
        if any(isinstance(i, ConstString) for i in m.instructions)
    ]
    assert len(users) == 2
    first, second = users
    out = apply_and_check(session, EditScript([DeleteInstruction(first, 0)]))
    # The second use still holds the constant's heap.
    assert "HEAPTYPE" not in out.delta.removed
    assert (heap, "java.lang.String") in session.facts.heaptype
    out = apply_and_check(session, EditScript([DeleteInstruction(second, 0)]))
    assert out.delta.removed["HEAPTYPE"] == frozenset({(heap, "java.lang.String")})
    assert out.delta.removed["ALLOCCLASS"] == frozenset({(heap, "java.lang.String")})
    assert session.check_against_scratch() == []


def test_removing_an_added_entry_point_method():
    session = make_session()
    body = [Alloc("r", "Dog"), Return("r")]
    apply_and_check(
        session,
        EditScript([AddMethod("Main", "aux", is_static=True, instructions=body)]),
    )
    out = apply_and_check(session, EditScript([AddEntryPoint("Main.aux/0")]))
    assert out.delta.added["REACHABLEROOT"] == frozenset({("Main.aux/0",)})
    out = apply_and_check(session, EditScript([RemoveMethod("Main.aux/0")]))
    assert out.delta.removed["REACHABLEROOT"] == frozenset({("Main.aux/0",)})
    assert "Main.aux/0" not in session.facts.vars_of_method
    assert session.check_against_scratch() == []


def test_method_added_and_removed_in_one_script():
    session = make_session()
    out = apply_and_check(
        session,
        EditScript([
            InsertInstruction("Main.main/0", Alloc("zfresh", "Dog")),
            AddMethod("Main", "aux", instructions=[Return("this")]),
            RemoveMethod("Main.aux/0"),
        ]),
    )
    assert out.tier == "monotonic"
    assert "Main.aux/0" not in session.facts.vars_of_method
    assert session.edits_applied == 3
    # The row cache is still whole: the next script sees it.
    rng = random.Random(5)
    apply_and_check(session, random_edit_script(session.sketch, rng))
    assert session.check_against_scratch() == []


def test_method_removed_and_re_added_moves_to_the_end_of_its_class():
    session = hierarchy_session()
    out = apply_and_check(
        session,
        EditScript([
            RemoveMethod("A.f/0"),
            AddMethod("A", "f", is_static=True,
                      instructions=[Alloc("fa", "A"), Return("fa")]),
        ]),
    )
    assert list(session.program.classes["A"].methods) == ["g/0", "f/0"]
    assert out.tier == "noop"
    assert session.check_against_scratch() == []


def test_field_edits_take_the_whole_build():
    session = make_session("boxes")
    owner = next(iter(session.sketch.classes))
    out = apply_and_check(
        session, EditScript([AddField(owner, "zf"), RemoveField(owner, "zf")])
    )
    assert out.tier == "noop"
    out = apply_and_check(session, EditScript([AddField(owner, "zg")]))
    assert out.tier == "noop"
    assert "zg" in session.program.classes[owner].fields


# ----------------------------------------------------------------------
# Validation dependencies random edits never reach: each script builds
# an invalid program, is refused, and leaves the session as it was.
# ----------------------------------------------------------------------
def assert_refused(session, script, match):
    program, facts = session.program, session.facts
    shape = program_shape(program)
    rows = facts.as_relation_dict()
    before = session.relations()
    with pytest.raises(ValidationError, match=match):
        session.apply(script)
    assert session.program is program
    assert program_shape(program) == shape
    assert session.facts is facts
    assert facts.as_relation_dict() == rows
    assert session.relations() == before
    apply_and_check(
        session, EditScript([InsertInstruction("Main.main/0", Alloc("zok", "Main"))])
    )
    assert session.check_against_scratch() == []


def test_removing_a_loaded_field_is_refused():
    session = IncrementalSession(
        ProgramSketch.from_program(parse_source(STRING_SOURCE)), analysis="insens"
    )
    assert_refused(
        session, EditScript([RemoveField("Box", "v")]), "'v' is not declared"
    )


def test_instance_method_shadowing_a_static_callee_is_refused():
    assert_refused(
        hierarchy_session(),
        EditScript([AddMethod("B", "f", instructions=[Return("this")])]),
        "static call to instance method B.f/0",
    )


def test_removing_a_called_static_method_is_refused():
    assert_refused(
        hierarchy_session(),
        EditScript([RemoveMethod("A.f/0")]),
        "static call to unresolvable B.f/0",
    )


def test_instance_entry_point_is_refused():
    assert_refused(
        hierarchy_session(),
        EditScript([AddEntryPoint("A.g/0")]),
        "entry point A.g/0 must be static",
    )


STRING_SOURCE = """
class Box {
    field v;
    method set(x) { this.v = x; }
    method get() { r = this.v; return r; }
}
class Main {
    static method greet() { s = "hi"; return s; }
    static method main() {
        b = new Box();
        t = "hi";
        b.set(t);
        g = b.get();
        h = Main.greet();
    }
}
"""

WRITE_PATH_PROGRAMS = {
    **PROGRAMS,
    "shared-string": lambda: parse_source(STRING_SOURCE),
}


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(WRITE_PATH_PROGRAMS)),
    allow_removals=st.booleans(),
)
def test_write_path_equals_whole_program_encoding(seed, name, allow_removals):
    sketch = ProgramSketch.from_program(WRITE_PATH_PROGRAMS[name]())
    session = IncrementalSession(sketch, analysis="insens")
    rng = random.Random(seed)
    for _ in range(4):
        script = random_edit_script(
            session.sketch, rng, edits=2, allow_removals=allow_removals
        )
        apply_and_check(session, script)
