"""Tests for the demand-driven points-to baseline.

The headline property: on catch-free programs, a demand query returns
*exactly* the whole-program context-insensitive points-to set of the
queried variable — checked on the fixture programs and property-based over
random programs — while visiting only the variable's backward slice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ProgramBuilder, analyze, encode_program
from repro.baselines.demand import DemandPointsTo
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)


def make_engine(program):
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    return facts, insens, DemandPointsTo.from_insensitive_result(
        program, facts, insens
    )


@pytest.mark.parametrize(
    "builder",
    [build_tiny_program, build_box_program, build_kitchen_sink_program],
    ids=["tiny", "boxes", "kitchen-sink"],
)
def test_demand_equals_whole_program(builder):
    program = builder()
    facts, insens, engine = make_engine(program)
    for var, expected in insens.var_points_to.items():
        answer = engine.query(var)
        assert answer.points_to == frozenset(expected), var
    # and vars with empty points-to stay empty
    for var, meth in facts.varinmeth:
        if meth in insens.reachable_methods and var not in insens.var_points_to:
            assert engine.query(var).points_to == frozenset(), var


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
    answer = engine.query("BoxDriver0.drive/0/g0")
    assert answer.points_to == frozenset(
        insens.var_points_to["BoxDriver0.drive/0/g0"]
    )
    assert answer.visited_variables < total_vars / 5


def test_dispatch_filter_matches_solver():
    """`this` only receives receivers that actually dispatch to the method."""
    b = ProgramBuilder()
    b.klass("A")
    b.klass("B")
    for cls in ("A", "B"):
        with b.method(cls, "me", []) as m:
            m.ret("this")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("a", "A")
        m.alloc("bb", "B")
        m.move("x", "a")
        m.move("x", "bb")
        m.vcall("x", "me", [], target="r")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    assert engine.query("A.me/0/this").points_to == frozenset(
        {"Main.main/0/new A/0"}
    )
    assert engine.query("A.me/0/this").points_to == frozenset(
        insens.var_points_to["A.me/0/this"]
    )


def test_catch_query_over_approximates():
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
    demand = engine.query("Main.main/0/h").points_to
    assert demand >= frozenset(insens.var_points_to["Main.main/0/h"])


def test_exception_slop_attributes_the_catch_over_approximation():
    """`exception_slop` counts exactly the heaps the every-throw catch
    edge added — here a heap the real analysis intercepts mid-chain —
    so query-vs-exhaustive deltas stay attributable."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Lib", "mid", [], static=True) as m:
        m.scall("Lib", "boom", [])
        m.catch("g", "Exc")  # intercepts: nothing escapes to Main
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "mid", [])
        m.catch("h", "Exc")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    answer = engine.query("Main.main/0/h")
    whole = frozenset(insens.var_points_to.get("Main.main/0/h", ()))
    # The baseline ignores interception, so the boom heap leaks into h —
    # and the slop counter owns up to exactly that excess.
    assert answer.points_to > whole
    assert answer.exception_slop == len(answer.points_to - whole)


def test_stores_in_unreachable_methods_do_not_leak():
    """Regression (found by the property test below): a static or field
    store in a method the call graph never reaches must not feed loads
    in reachable code."""
    b = ProgramBuilder()
    b.klass("A", fields=["f"])
    b.klass("Util", static_fields=["sf"])
    with b.method("Util", "dead", [], static=True) as m:
        m.alloc("v", "A")
        m.static_store("Util", "sf", "v")
        m.store("v", "f", "v")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("v", "A")
        m.static_load("v", "Util", "sf")
        m.load("w", "v", "f")
    program = b.build(entry="Main.main/0")
    _facts, insens, engine = make_engine(program)
    for var in ("Main.main/0/v", "Main.main/0/w"):
        whole = frozenset(insens.var_points_to.get(var, ()))
        assert engine.query(var).points_to == whole, var


def test_exception_slop_is_zero_without_catch_edges():
    for builder in (build_tiny_program, build_box_program):
        program = builder()
        _facts, insens, engine = make_engine(program)
        for var in insens.var_points_to:
            assert engine.query(var).exception_slop == 0, var


# Property-based: reuse the random-program strategy.  The catch-handler
# over-approximation (see the demand module docstring) propagates to every
# variable downstream of a handler, so exactness is asserted only on
# catch-free programs; with handlers present the demand answer must still
# be a superset of the whole-program result (soundness direction).
from tests.analysis.test_properties import programs  # noqa: E402


@given(programs())
@settings(max_examples=40, deadline=None)
def test_demand_matches_insensitive_on_random_programs(program):
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    engine = DemandPointsTo.from_insensitive_result(program, facts, insens)
    exact = not facts.catchclause
    for var, expected in insens.var_points_to.items():
        answer = engine.query(var).points_to
        if exact:
            assert answer == frozenset(expected), var
        else:
            assert answer >= frozenset(expected), var
