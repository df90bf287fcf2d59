"""Tests for single-variable, context-insensitive demand queries.

Each query goes through `repro.query.QueryEngine.query` one variable at a
time (the batch path is covered in `test_query_engine`).  A demand query
must return *exactly* the whole-program context-insensitive points-to set
of the queried variable — catch handlers included — while visiting only
the variable's backward slice.
"""

import pytest

from repro import ProgramBuilder, analyze, encode_program
from repro.query import QueryEngine
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)


def make_engine(program):
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    return facts, insens, QueryEngine(program, facts=facts, insens=insens)


@pytest.mark.parametrize(
    "builder",
    [build_tiny_program, build_box_program, build_kitchen_sink_program],
    ids=["tiny", "boxes", "kitchen-sink"],
)
def test_demand_equals_whole_program(builder):
    program = builder()
    facts, insens, engine = make_engine(program)
    for var, expected in insens.var_points_to.items():
        answer = engine.query(var, "insens")
        assert answer.points_to == frozenset(expected), var
    # and vars with empty points-to stay empty
    for var, meth in facts.varinmeth:
        if meth in insens.reachable_methods and var not in insens.var_points_to:
            assert engine.query(var, "insens").points_to == frozenset(), var


def test_footprint_is_a_slice():
    """Querying one box's content must not visit unrelated pattern code."""
    from repro.benchgen import BenchmarkSpec, HubSpec, generate

    spec = BenchmarkSpec(
        name="slice",
        util_classes=10,
        util_methods_per_class=6,
        strategy_clusters=(4,),
        box_groups=(4,),
        sink_groups=(),
        hubs=(HubSpec(readers=10, elements=10, chain=4),),
    )
    program = generate(spec)
    facts, insens, engine = make_engine(program)
    total_vars = len(facts.varinmeth)
    answer = engine.query("BoxDriver0.drive/0/g0", "insens")
    assert answer.points_to == frozenset(
        insens.var_points_to["BoxDriver0.drive/0/g0"]
    )
    assert answer.slice_variables < total_vars / 5


def test_catch_query_over_approximates():
    """A catch handler's answer covers every heap the whole-program
    analysis gives it, and adds none."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "boom", [])
        m.catch("h", "Exc")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    demand = engine.query("Main.main/0/h", "insens").points_to
    whole = frozenset(insens.var_points_to["Main.main/0/h"])
    assert demand >= whole
    assert demand == whole
