"""Tests for the three paper precision metrics."""

import pytest

from repro import ProgramBuilder, analyze, encode_program
from repro.clients import measure_precision
from repro.clients.precision import casts_that_may_fail, polymorphic_vcall_sites
from tests.conftest import (
    MATRIX_FLAVORS,
    MATRIX_PROGRAMS,
    matrix_program,
    matrix_result,
)


@pytest.fixture(scope="module")
def poly_setup():
    """One mono site, one poly site, one unreachable cast, one failing and
    one safe cast."""
    b = ProgramBuilder()
    b.klass("Animal", abstract=True)
    b.klass("Dog", super_name="Animal")
    b.klass("Cat", super_name="Animal")
    for cls in ("Dog", "Cat"):
        with b.method(cls, "speak", []) as m:
            m.ret("this")
    with b.method("Dead", "code", [], static=True) as m:
        m.alloc("x", "Dog")
        m.cast("y", "x", "Cat")  # unreachable: never counted
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("d", "Dog")
        m.alloc("c", "Cat")
        m.vcall("d", "speak", [], target="r1")  # mono
        m.move("any", "d")
        m.move("any", "c")
        m.vcall("any", "speak", [], target="r2")  # poly
        m.cast("ok", "d", "Dog")  # safe
        m.cast("bad", "any", "Cat")  # may fail (any includes Dog)
    program = b.build(entry="Main.main/0")
    facts = encode_program(program)
    return program, facts, analyze(program, "insens", facts=facts)


class TestPolymorphicSites:
    def test_counts_only_poly_vcalls(self, poly_setup):
        _, facts, result = poly_setup
        poly = polymorphic_vcall_sites(result, facts)
        assert poly == {"Main.main/0/invo/1"}

    def test_static_calls_never_counted(self):
        b = ProgramBuilder()
        with b.method("U", "f", [], static=True) as m:
            m.ret()
        with b.method("Main", "main", [], static=True) as m:
            m.scall("U", "f", [])
        p = b.build(entry="Main.main/0")
        facts = encode_program(p)
        assert polymorphic_vcall_sites(analyze(p, "insens", facts=facts), facts) == frozenset()


class TestCasts:
    def test_failing_and_safe_casts(self, poly_setup):
        _, facts, result = poly_setup
        failing = casts_that_may_fail(result, facts)
        assert failing == {"Main.main/0/bad"}

    def test_unreachable_casts_not_counted(self, poly_setup):
        _, facts, result = poly_setup
        assert "Dead.code/0/y" not in casts_that_may_fail(result, facts)


class TestReport:
    def test_measure_precision_row(self, poly_setup):
        _, facts, result = poly_setup
        report = measure_precision(result, facts)
        assert report.polymorphic_call_sites == 1
        assert report.casts_may_fail == 1
        assert report.reachable_methods == 3  # main + 2 speaks
        row = report.row()
        assert row["poly-vcalls"] == 1 and row["casts-may-fail"] == 1

    def test_dominates(self, poly_setup):
        _, facts, result = poly_setup
        a = measure_precision(result, facts)
        assert a.dominates(a)
        better = type(a)(
            analysis="x",
            polymorphic_call_sites=0,
            reachable_methods=a.reachable_methods,
            casts_may_fail=0,
        )
        assert better.dominates(a)
        assert not a.dominates(better)


def reference_precision(result, facts):
    """The three clients over the full context-sensitive relations,
    projected to string sets here: (poly sites, reachable methods,
    failing casts)."""
    var_pts = {}
    for var, _ctx, heap, _hctx in result.iter_var_points_to():
        var_pts.setdefault(var, set()).add(heap)
    targets = {}
    for invo, _cc, meth, _ec in result.iter_call_graph():
        targets.setdefault(invo, set()).add(meth)
    reachable = {meth for meth, _ctx in result.iter_reachable()}
    is_subtype = facts.program.hierarchy.is_subtype
    poly = {
        invo
        for invo, meths in targets.items()
        if invo in facts.vcall_invos and len(meths) >= 2
    }
    failing = {
        to
        for to, type_name, frm, meth in facts.cast
        if meth in reachable
        and any(
            not is_subtype(facts.heap_type[heap], type_name)
            for heap in var_pts.get(frm, ())
        )
    }
    return poly, reachable, failing


@pytest.mark.parametrize("flavor", ("insens",) + MATRIX_FLAVORS)
@pytest.mark.parametrize("name", MATRIX_PROGRAMS)
def test_packed_clients_equal_string_reference(name, flavor):
    _program, facts = matrix_program(name)
    result = matrix_result(name, flavor)
    poly, reachable, failing = reference_precision(result, facts)
    assert polymorphic_vcall_sites(result, facts) == poly
    assert casts_that_may_fail(result, facts) == failing
    report = measure_precision(result, facts)
    assert (
        report.polymorphic_call_sites,
        report.reachable_methods,
        report.casts_may_fail,
    ) == (len(poly), len(reachable), len(failing))
