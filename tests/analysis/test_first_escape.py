"""Exceptional flow materialises on the first escape.

Until an exception escapes some activation the packed solver builds no
throw node and no throw consumer on a call edge.  The first escape gives
every call edge linked so far its callee's throw node and the consumer
re-raising in its caller, and every later edge gets both as it is
linked.  These tests pin that state wherever the first escape happens:
in the initial solve (while propagating, and while a callee is first
reached by the call being linked), during ``extend`` and during a
``rederive`` edit.  The relations and the tuple count must equal the
reference solver's, which builds exceptional flow for every edge.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import ProgramBuilder
from repro.analysis.reference_solver import reference_solve
from repro.analysis.solver import _THROW, _VAR, PointsToSolver, _call_invos
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.fuzz.oracles import reference_relations, solver_relations
from repro.fuzz.sketch import ProgramSketch
from repro.incremental import (
    DeleteInstruction,
    EditScript,
    IncrementalSession,
    InsertInstruction,
)
from repro.ir.instructions import Throw
from tests.conftest import build_kitchen_sink_program, build_tiny_program
from tests.incremental.test_rederive import build_exception_program

FLAVORS = ("insens", "2objH", "2callH")


def build_thrown_on_first_reach():
    """A callee that allocates and throws, so its exception escapes while
    the static call reaching it is still being linked; one call edge is
    linked before it and a virtual one after."""
    b = ProgramBuilder()
    b.klass("Exc")
    b.klass("Box", fields=["v"])
    with b.method("Box", "put", ["x"]) as m:
        m.store("this", "v", "x")
    with b.method("Helper", "id", ["p"], static=True) as m:
        m.ret("p")
    with b.method("Thrower", "go", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("o", "Box")
        m.scall("Helper", "id", ["o"], target="r")
        m.scall("Thrower", "go", [])
        m.vcall("r", "put", ["o"])
        m.catch("h", "Exc")
    return b.build(entry="Main.main/0")


def build_caught_where_thrown():
    """Every exception is caught in the method that throws it."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Worker", "run", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
        m.catch("h", "Exc")
        m.ret("h")
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Worker", "run", [], target="r")
    return b.build(entry="Main.main/0")


def _solver(program, analysis):
    facts = encode_program(program)
    policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
    return PointsToSolver(program, policy, facts=facts)


def assert_exceptional_flow(solver):
    """Before the first escape no throw node exists and every throw
    consumer is a throw instruction's, on a variable.  After it, each call
    edge has its callee's throw node, holding exactly one consumer per
    edge that re-raises in the edge's caller."""
    on_throw_nodes = Counter(
        (node, consumer)
        for node, consumers in solver._throw_cons.items()
        if solver._owner(node)[0] == _THROW
        for consumer in consumers
    )
    if not solver._escaped:
        assert not solver._throw_nodes
        assert all(solver._owner(node)[0] == _VAR for node in solver._throw_cons)
        return
    callers = {
        invo: meth
        for meth, mb in solver._bodies.items()
        for invo in _call_invos(mb)
    }
    want = Counter(
        (solver._throw_nodes[callee << 32 | ec], (callers[invo], cc))
        for invo, cc, callee, ec in solver._call_graph
    )
    assert on_throw_nodes == want


def assert_equals_reference(program, analysis):
    """A packed solve equals the reference solve; returns its solver."""
    solver = _solver(program, analysis)
    raw = solver.solve()
    facts = encode_program(program)
    policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
    ref = reference_solve(program, policy, facts=facts)
    assert solver_relations(raw) == reference_relations(ref)
    assert raw.tuple_count == ref.tuple_count
    assert_exceptional_flow(solver)
    return solver


@pytest.mark.parametrize("analysis", FLAVORS)
@pytest.mark.parametrize(
    "build",
    (build_tiny_program, build_kitchen_sink_program, build_caught_where_thrown),
)
def test_no_escape_builds_no_exceptional_flow(build, analysis):
    solver = assert_equals_reference(build(), analysis)
    assert not solver._escaped
    assert not solver._throw_nodes
    assert len(solver.snapshot().throw_nodes) == 0
    if build is not build_caught_where_thrown:  # no throw instruction
        assert solver._call_graph and not solver._throw_cons


@pytest.mark.parametrize("analysis", FLAVORS)
@pytest.mark.parametrize(
    "build", (build_exception_program, build_thrown_on_first_reach)
)
def test_first_escape_in_the_initial_solve(build, analysis):
    solver = assert_equals_reference(build(), analysis)
    assert solver._escaped
    raw = solver.snapshot()
    throws = solver_relations(raw)[4]
    assert throws
    # Every escape has its activation's throw node.
    escaped = {(meth, ctx) for meth, ctx, _heap, _hctx in throws}
    names = {
        (raw.meths.value(meth), raw.ctxs.value(ctx))
        for meth, ctx in raw.throw_nodes
    }
    assert escaped <= names


def _session(build, analysis):
    return IncrementalSession(
        ProgramSketch.from_program(build()), analysis=analysis
    )


@pytest.mark.parametrize("analysis", FLAVORS)
def test_first_escape_during_extend_then_its_deletion(analysis):
    session = _session(build_tiny_program, analysis)
    assert not session._solver._escaped
    main = session.sketch.method_by_id("Main.main/0")
    at = len(main.instructions)
    out = session.apply(EditScript([InsertInstruction("Main.main/0", Throw("a"))]))
    assert out.tier == "monotonic", out.reason
    assert out.result_added["THROWPOINTSTO"]
    assert session.check_against_scratch() == []
    assert session._solver._escaped
    assert_exceptional_flow(session._solver)

    out = session.apply(EditScript([DeleteInstruction("Main.main/0", at)]))
    assert out.tier == "rederive", out.reason
    assert out.result_removed["THROWPOINTSTO"]
    assert session.check_against_scratch() == []
    assert_exceptional_flow(session._solver)


@pytest.mark.parametrize("analysis", FLAVORS)
def test_first_escape_during_a_rederive(analysis):
    """A deletion and a throw in one script: the retraction runs first on
    a solver without exceptional flow, then the escape materialises it."""
    session = _session(build_tiny_program, analysis)
    main = session.sketch.method_by_id("Main.main/0")
    last = len(main.instructions) - 1
    out = session.apply(EditScript([
        DeleteInstruction("Main.main/0", last),
        InsertInstruction("Main.main/0", Throw("b")),
    ]))
    assert out.tier == "rederive", out.reason
    assert out.result_added["THROWPOINTSTO"]
    assert session.check_against_scratch() == []
    assert session._solver._escaped
    assert_exceptional_flow(session._solver)
