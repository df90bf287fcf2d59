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
    REFREEZE_SHARE,
    RESULT_RELATIONS,
    IncrementalSession,
    RelationView,
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
# The fact base is assembled only when someone reads it
# ----------------------------------------------------------------------
AUX_BODY = [Alloc("r", "Dog"), Return("r")]


def test_late_reads_of_lazy_snapshots_equal_each_edits_encoding():
    session = make_session()
    rng = random.Random(43)
    taken = []  # (outcome, encode_program of that edit's program)

    def apply(script):
        out = session.apply(script)
        taken.append((out, encode_program(session.sketch.build())))

    apply(EditScript([AddMethod("Main", "zaux", is_static=True,
                                instructions=AUX_BODY)]))
    apply(random_edit_script(session.sketch, rng, edits=1, kinds=("alloc",)))
    with pytest.raises(ValidationError, match="unresolvable"):
        session.apply(EditScript([
            InsertInstruction("Main.main/0", Alloc("zfresh", "Dog")),
            InsertInstruction("Main.main/0", StaticCall(
                target="zr", args=(), class_name="Util", sig="nowhere/0"
            )),
        ]))
    last = len(session.sketch.method_by_id("Main.main/0").instructions) - 1
    apply(EditScript([DeleteInstruction("Main.main/0", last)]))
    apply(EditScript([RemoveMethod("Main.zaux/0")]))
    apply(EditScript([AddClass("ZTemp"), RemoveClass("ZTemp")]))
    for _ in range(3):
        apply(random_edit_script(session.sketch, rng, edits=2))
    assert {out.tier for out, _want in taken} >= set(TIERS)

    for out, want in taken:
        assert out.facts.as_relation_dict() == want.as_relation_dict(), out.tier
        for name in DERIVED_MAPS:
            assert getattr(out.facts, name) == getattr(want, name), name
        assert out.digest == want.digest()
    assert session.facts.as_relation_dict() == want.as_relation_dict()
    assert session.facts.digest() == want.digest()


def test_warm_tiers_never_assemble_the_fact_base(monkeypatch):
    from repro.incremental import session as session_module

    session = make_session()
    calls = []
    assemble = session_module.assemble_facts

    def spy(*args, **kwargs):
        calls.append(args[0])
        return assemble(*args, **kwargs)

    monkeypatch.setattr(session_module, "assemble_facts", spy)
    warm = [
        session.apply(EditScript([AddMethod("Main", "zaux", is_static=True,
                                            instructions=AUX_BODY)])),
        session.apply(EditScript([InsertInstruction("Main.main/0",
                                                    Alloc("zfresh", "Dog"))])),
        session.apply(EditScript([DeleteInstruction("Main.zaux/0", 0)])),
        session.apply(EditScript([AddClass("ZTemp"), RemoveClass("ZTemp")])),
    ]
    assert [out.tier for out in warm] == [
        "monotonic", "monotonic", "rederive", "noop"
    ]
    assert calls == []
    out = session.apply(EditScript([RemoveMethod("Main.zaux/0")]))
    assert out.tier == "full"
    assert calls == []
    # The full apply's fact base is assembled when first read, once.
    assert out.digest == session.facts.digest()
    assert calls == [session.program]
    # An earlier outcome's fact base is assembled when it is read.
    assert warm[1].digest == encode_program(warm[1].facts.program).digest()
    assert len(calls) == 2


def moved_call_session(padding=0):
    """``main`` passes ``a`` to ``f`` and then to ``g``, both results
    into ``r``; ``padding`` alloc-and-move pairs keep an over-deleted
    region small."""
    b = ProgramBuilder()
    with b.method("Main", "f", ["x"], static=True) as m:
        m.ret("x")
    with b.method("Main", "g", ["x"], static=True) as m:
        m.alloc("y", "Main")
        m.ret("y")
    with b.method("Main", "main", [], static=True) as m:
        for i in range(padding):
            m.alloc(f"p{i}", "Main")
            m.move(f"q{i}", f"p{i}")
        m.alloc("a", "Main")
        m.scall("Main", "f", ["a"], target="r")
        m.scall("Main", "g", ["a"], target="r")
    sketch = ProgramSketch.from_program(b.build(entry="Main.main/0"))
    return IncrementalSession(sketch, analysis="2objH")


def test_call_moved_onto_an_old_site_takes_a_full_solve():
    # Deleting f's call moves g's onto f's site id with the same
    # argument and result rows, so the delta carries no wiring for it.
    session = moved_call_session()
    out = apply_and_check(session, EditScript([DeleteInstruction("Main.main/0", 1)]))
    assert out.tier == "full"
    assert "SCALL additions on pre-existing call sites" in out.reason
    assert session.check_against_scratch() == []


def test_call_re_created_on_a_deleted_site_has_only_its_own_wiring():
    # The site of g's deleted call comes back as a call with no result:
    # its wiring is the delta's (none), not what the site once had.
    session = moved_call_session(padding=12)
    last = len(session.sketch.method_by_id("Main.main/0").instructions) - 1
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", last)]))
    assert out.tier == "rederive"
    out = session.apply(EditScript([InsertInstruction(
        "Main.main/0",
        StaticCall(target=None, args=(), class_name="Main", sig="g/1"),
    )]))
    assert out.tier == "monotonic"
    assert session.check_against_scratch() == []


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
    # The session counts a constant's users instead of reading two whole
    # fact bases: each step's delta must still be ``diff_facts`` of two
    # fresh encodings (``apply_and_check``), also across a full apply.
    b = ProgramBuilder()
    with b.method("Main", "main", [], static=True) as m:
        m.const_string("s", "hello")
        m.scall("Main", "aux", [], target="t")
    with b.method("Main", "aux", [], static=True) as m:
        m.const_string("u", "hello")
        m.ret("u")
    with b.method("Main", "spare", [], static=True) as m:
        m.const_string("w", "hello")
        m.ret("w")
    sketch = ProgramSketch.from_program(b.build(entry="Main.main/0"))
    session = IncrementalSession(sketch, analysis="2objH")
    heap = ConstString("s", "hello").heap_id
    rows = frozenset({(heap, "java.lang.String")})
    users = {
        m.id
        for m in session.program.methods()
        if any(isinstance(i, ConstString) for i in m.instructions)
    }
    assert users == {"Main.main/0", "Main.aux/0", "Main.spare/0"}

    def string_rows(delta):
        return {
            (side, name): getattr(delta, side).get(name)
            for side in ("added", "removed")
            for name in ("HEAPTYPE", "ALLOCCLASS")
        }

    no_rows = {
        (side, name): None
        for side in ("added", "removed")
        for name in ("HEAPTYPE", "ALLOCCLASS")
    }
    # One use deleted: two still hold the constant's heap.
    out = apply_and_check(session, EditScript([DeleteInstruction("Main.main/0", 0)]))
    assert string_rows(out.delta) == no_rows
    assert (heap, "java.lang.String") in session.facts.heaptype
    # The method holding a second use removed (a full apply).
    out = apply_and_check(session, EditScript([RemoveMethod("Main.spare/0")]))
    assert out.tier == "full"
    assert string_rows(out.delta) == no_rows
    # A use re-added while one is left: still no rows move.
    out = apply_and_check(
        session,
        EditScript([InsertInstruction("Main.main/0", ConstString("v", "hello"))]),
    )
    assert string_rows(out.delta) == no_rows
    # Both remaining uses deleted: the rows go with the last one ...
    out = apply_and_check(session, EditScript([DeleteInstruction("Main.aux/0", 0)]))
    assert string_rows(out.delta) == no_rows
    out = apply_and_check(
        session, EditScript([DeleteInstruction("Main.main/0", 1)])
    )
    assert out.delta.removed["HEAPTYPE"] == rows
    assert out.delta.removed["ALLOCCLASS"] == rows
    assert "HEAPTYPE" not in out.delta.added
    # ... and come back with a use re-added in a later edit.
    out = apply_and_check(
        session,
        EditScript([InsertInstruction("Main.aux/0", ConstString("x", "hello"), 0)]),
    )
    assert out.delta.added["HEAPTYPE"] == rows
    assert out.delta.added["ALLOCCLASS"] == rows
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


# ----------------------------------------------------------------------
# relations(): immutable views over a frozen base and an overlay
# ----------------------------------------------------------------------
def frozen_copy(relations):
    return {name: frozenset(rows) for name, rows in relations.items()}


def test_relation_views_never_change_after_later_applies():
    session = moved_call_session(padding=12)
    taken = []

    def take():
        views = session.relations()
        taken.append((views, frozen_copy(views)))

    take()
    out = session.apply(EditScript([
        InsertInstruction("Main.main/0", Alloc("zview", "Main")),
    ]))
    assert out.tier == "monotonic"
    take()
    last = len(session.sketch.method_by_id("Main.main/0").instructions) - 1
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", last)]))
    assert out.tier == "rederive"
    take()
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", 25)]))
    assert out.tier == "full"
    take()
    for views, copy in taken:
        assert views == copy
        assert all(isinstance(rows, RelationView) for rows in views.values())
    assert taken[0][0] != taken[1][1]  # the views did see different states
    assert session.check_against_scratch() == []


def test_relation_view_taken_before_a_budget_trip_never_changes():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    probe = IncrementalSession(sketch, analysis="2objH")
    budget = len(probe.relations()["VARPOINTSTO"]) + 40
    session = IncrementalSession(sketch, analysis="2objH", max_tuples=budget)
    rng = random.Random(23)
    for _ in range(20):
        views = session.relations()
        copy = frozen_copy(views)
        script = random_edit_script(
            session.sketch, rng, edits=2, allow_removals=False
        )
        try:
            session.apply(script)
        except Exception:
            break
        assert views == copy
    else:
        pytest.fail("budget never tripped; test needs a smaller margin")
    assert views == copy
    assert session.relations() == copy  # rolled back to the same state


def test_relation_views_agree_with_frozensets():
    session = moved_call_session(padding=12)
    before = frozen_copy(session.relations())
    out = session.apply(EditScript([
        InsertInstruction("Main.main/0", Alloc("zview", "Main")),
    ]))
    assert out.tier == "monotonic"
    # the last padding move: q11 = p11 goes
    out = session.apply(EditScript([DeleteInstruction("Main.main/0", 23)]))
    assert out.tier == "rederive"
    views = session.relations()
    vpt = session._relations["VARPOINTSTO"]
    assert vpt.added and vpt.removed  # the view reads a base and an overlay
    for name, view in views.items():
        rows = frozenset(view)
        assert len(view) == len(rows) == len(list(view))
        assert view == rows and rows == view and not view != rows
        assert all(row in view for row in rows)
        for other in (before[name], rows, frozenset()):
            assert view - other == rows - other
            assert other - view == other - rows
            assert view | other == rows | other == other | view
            assert view & other == rows & other
            assert view ^ other == rows ^ other
            assert (view <= other) == (rows <= other)
            assert (view == other) == (rows == other)
            assert isinstance(view - other, frozenset)
        assert view == session.relations()[name]  # a view equals a view
    gone = next(iter(before["VARPOINTSTO"] - views["VARPOINTSTO"]))
    assert gone not in views["VARPOINTSTO"]
    assert ("nowhere",) not in views["VARPOINTSTO"]


def test_relation_base_is_refrozen_past_its_share():
    session = moved_call_session(padding=12)
    store = session._relations["VARPOINTSTO"]
    base = store.base
    views = session.relations()
    copy = frozen_copy(views)
    one = EditScript([InsertInstruction("Main.main/0", Alloc("z0", "Main"))])
    session.apply(one)
    assert store.base is base and store.added  # below the share: overlay
    grown = int(REFREEZE_SHARE * len(base)) + 1
    session.apply(EditScript([
        InsertInstruction("Main.main/0", Alloc(f"z{i}", "Main"))
        for i in range(1, grown + 1)
    ]))
    assert store.base is not base  # past the share: refrozen
    assert not store.added and not store.removed
    assert views == copy
    now = session.relations()["VARPOINTSTO"]
    assert now == store.base and len(now) == len(base) + grown + 1
    assert session.check_against_scratch() == []


def test_methods_added_to_one_class_keep_sketch_order():
    # The derived program takes the added methods in sketch order, as a
    # build does: not in the order of the touched ids.
    session = make_session()
    names = ["zb", "za", "zd", "zc"]
    apply_and_check(session, EditScript([
        AddMethod("Main", name, instructions=[Return("this")]) for name in names
    ]))
    assert list(session.program.classes["Main"].methods)[-4:] == [
        f"{name}/0" for name in names
    ]
