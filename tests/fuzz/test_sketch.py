"""Sketch lift/build and JSON round-trips must be semantics-preserving."""

import pytest

from repro import encode_program, policy_by_name
from repro.analysis.solver import solve
from repro.fuzz.oracles import solver_relations
from repro.fuzz.sketch import (
    MethodSketch,
    ProgramSketch,
    instruction_from_json,
    instruction_to_json,
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


def relations(program, flavor="2objH"):
    facts = encode_program(program)
    policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
    return solver_relations(solve(program, policy, facts=facts))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_lift_and_rebuild_preserves_analysis(name):
    original = PROGRAMS[name]()
    rebuilt = ProgramSketch.from_program(original).build()
    assert relations(rebuilt) == relations(original)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_json_round_trip_preserves_analysis(name):
    original = PROGRAMS[name]()
    sketch = ProgramSketch.from_program(original)
    restored = ProgramSketch.from_json(sketch.to_json())
    assert relations(restored.build()) == relations(original)


def test_clone_is_deep_for_mutation_purposes():
    sketch = ProgramSketch.from_program(build_tiny_program())
    copy = sketch.clone()
    copy.methods[0].instructions.clear()
    copy.entry_points.append("Fake.main/0")
    assert sketch.methods[0].instructions
    assert "Fake.main/0" not in sketch.entry_points


def test_instruction_round_trip_covers_every_op():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    ops = set()
    for m in sketch.methods:
        for instr in m.instructions:
            blob = instruction_to_json(instr)
            ops.add(blob["op"])
            assert instruction_from_json(blob) == instr


def test_instruction_from_json_rejects_junk():
    with pytest.raises(ValueError):
        instruction_from_json({"op": "teleport", "target": "x"})
    with pytest.raises(ValueError):
        instruction_from_json({"op": "alloc", "target": "x"})  # no class


def test_count_instructions_matches_methods():
    sketch = ProgramSketch.from_program(build_tiny_program())
    assert sketch.count_instructions() == sum(
        len(m.instructions) for m in sketch.methods
    )


def test_method_by_id_matches_id_parts():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    for m in sketch.methods:
        assert sketch.method_by_id(m.id) is m
    dotted = MethodSketch("a.b.C", "m", ("x", "y"), is_static=True)
    sketch.methods.append(dotted)
    assert sketch.method_by_id("a.b.C.m/2") is dotted
    assert sketch.method_by_id("a.b.C.m/1") is None
    assert sketch.method_by_id("b.C.m/2") is None


@pytest.mark.parametrize(
    "method_id",
    ["Main.nowhere/0", "Main.main/1", "Main.main", "main/0", ".main/0",
     "Main./0", "Main.main/", "Main.main/x", "Main.main/00", "Main.main/-0",
     "Main.main/٠", ""],
)
def test_method_by_id_is_none_for_unknown_or_malformed_ids(method_id):
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    assert sketch.method_by_id("Main.main/0") is not None
    assert sketch.method_by_id(method_id) is None
