"""The edit vocabulary: invertibility, JSON round-trips, rollback."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.facts.encoder import encode_program
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.edits import (
    AddClass,
    AddEntryPoint,
    AddField,
    AddMethod,
    DeleteInstruction,
    EditError,
    EditScript,
    Footprint,
    InsertInstruction,
    RemoveClass,
    RemoveField,
    RemoveMethod,
    edit_from_json,
    random_edit_script,
)
from repro.ir.instructions import Alloc, Move, Return
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


def sketch_of(name: str) -> ProgramSketch:
    return ProgramSketch.from_program(PROGRAMS[name]())


def digest_of(sketch: ProgramSketch) -> str:
    return encode_program(sketch.build()).digest()


# ----------------------------------------------------------------------
# Apply-then-revert restores the exact fact digest (property test)
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PROGRAMS)),
    edits=st.integers(min_value=1, max_value=4),
)
def test_apply_then_revert_restores_fact_digest(seed, name, edits):
    sketch = sketch_of(name)
    before = digest_of(sketch)
    script = random_edit_script(sketch, random.Random(seed), edits=edits)
    inverse = script.apply(sketch)
    inverse.apply(sketch)
    assert digest_of(sketch) == before


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PROGRAMS)),
)
def test_material_edit_changes_fact_digest(seed, name):
    # random_edit_script only emits *material* edits — every generated
    # script must move the fact digest (that is what makes the digest
    # round-trip above a real statement and not a vacuous one).
    sketch = sketch_of(name)
    before = digest_of(sketch)
    script = random_edit_script(sketch, random.Random(seed), edits=1)
    script.apply(sketch)
    assert digest_of(sketch) != before


def test_single_nonidentity_edit_changes_digest_each_kind():
    for kind in ("alloc", "move", "new-call", "new-entry", "delete"):
        sketch = sketch_of("kitchen-sink")
        before = digest_of(sketch)
        script = random_edit_script(
            sketch, random.Random(7), edits=1, kinds=(kind,)
        )
        assert len(script) >= 1, kind
        script.apply(sketch)
        assert digest_of(sketch) != before, kind


# ----------------------------------------------------------------------
# JSON round-trips
# ----------------------------------------------------------------------
@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    name=st.sampled_from(sorted(PROGRAMS)),
)
def test_script_json_round_trip_is_semantics_preserving(seed, name):
    sketch = sketch_of(name)
    script = random_edit_script(sketch, random.Random(seed), edits=3)
    restored = EditScript.from_json(script.to_json())

    a, b = sketch.clone(), sketch.clone()
    script.apply(a)
    restored.apply(b)
    assert digest_of(a) == digest_of(b)


def test_edit_from_json_rejects_junk():
    with pytest.raises(EditError, match="unknown edit op"):
        edit_from_json({"op": "explode"})
    with pytest.raises(EditError, match="missing key"):
        edit_from_json({"op": "add-class"})
    with pytest.raises(EditError, match="index must be an integer"):
        edit_from_json(
            {"op": "delete-instruction", "method_id": "Main.main/0", "index": "0"}
        )
    with pytest.raises(EditError):
        edit_from_json("not an object")


# ----------------------------------------------------------------------
# Targeted invariants
# ----------------------------------------------------------------------
def test_failed_script_rolls_back_earlier_edits():
    sketch = sketch_of("tiny")
    before = digest_of(sketch)
    script = EditScript(
        [
            AddClass("ZRoll"),
            RemoveClass("NoSuchClassAnywhere"),  # fails
        ]
    )
    with pytest.raises(EditError, match="no such class"):
        script.apply(sketch)
    assert "ZRoll" not in sketch.classes
    assert digest_of(sketch) == before


def test_add_method_inverse_removes_entry_point_too():
    sketch = sketch_of("tiny")
    before = digest_of(sketch)
    add = AddMethod(
        next(iter(sketch.classes)),
        "zEntry",
        is_static=True,
        instructions=[Alloc("zv", next(iter(sketch.classes))), Return("zv")],
    )
    script = EditScript([add])
    inv1 = script.apply(sketch)
    entry = EditScript([AddEntryPoint(add.method.id)])
    inv2 = entry.apply(sketch)
    assert digest_of(sketch) != before
    inv2.apply(sketch)
    inv1.apply(sketch)
    assert digest_of(sketch) == before


def test_insert_delete_instruction_are_inverse():
    sketch = sketch_of("boxes")
    method = sketch.methods[0]
    before = digest_of(sketch)
    ins = InsertInstruction(method.id, Move("zm", method.local_vars()[0]))
    inverse = EditScript([ins]).apply(sketch)
    assert isinstance(inverse.edits[0], DeleteInstruction)
    inverse.apply(sketch)
    assert digest_of(sketch) == before


def test_remove_class_refuses_while_methods_remain():
    sketch = sketch_of("tiny")
    owner = sketch.methods[0].class_name
    with pytest.raises(EditError, match="still declares methods"):
        RemoveClass(owner).apply(sketch)


def test_duplicate_class_refused():
    sketch = sketch_of("tiny")
    existing = next(iter(sketch.classes))
    with pytest.raises(EditError, match="already declared"):
        AddClass(existing).apply(sketch)


# ----------------------------------------------------------------------
# Footprints: what an application touched
# ----------------------------------------------------------------------
def test_footprint_names_what_an_application_touched():
    sketch = sketch_of("kitchen-sink")
    aux = AddMethod("Main", "aux", is_static=True,
                    instructions=[Alloc("r", "Dog"), Return("r")])
    inverse = EditScript([
        aux,
        AddEntryPoint("Main.aux/0"),
        InsertInstruction("Main.main/0", Alloc("z", "Cat")),
        AddField("Sound", "zf"),
    ]).apply(sketch)
    assert inverse.footprint == Footprint(
        bodies={"Main.main/0"},
        methods={"Main.aux/0": ("aux/0", True)},
        entry_points=True,
    )
    # Removing an entry-point method touches the method and the entry
    # points; the compound edit that restores both reports the same.
    removal = EditScript([RemoveMethod("Main.aux/0"), RemoveField("Sound", "zf")])
    undo = removal.apply(sketch)
    expected = Footprint(methods={"Main.aux/0": ("aux/0", True)}, entry_points=True)
    assert undo.footprint == expected
    assert undo.apply(sketch).footprint == expected
    assert EditScript([AddClass("ZNew")]).apply(sketch).footprint == Footprint(
        classes=True
    )
    assert EditScript([AddClass("ZOther")]).footprint == Footprint()
