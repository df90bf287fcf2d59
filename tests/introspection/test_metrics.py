"""Tests for the Section 3 cost metrics: hand-computed values on a small
program, plus fast-path vs Datalog-query equivalence."""

import pytest

from repro import ProgramBuilder, analyze, encode_program
from repro.introspection import compute_metrics, compute_metrics_datalog
from tests.conftest import (
    MATRIX_FLAVORS,
    MATRIX_PROGRAMS,
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
    matrix_program,
    matrix_result,
)

METRIC_ATTRS = (
    "in_flow",
    "total_pts_volume",
    "max_var_pts",
    "max_field_pts",
    "total_field_pts",
    "max_var_field_pts",
    "pointed_by_vars",
    "pointed_by_objs",
)


@pytest.fixture(scope="module")
def metric_setup():
    """A program with known, hand-checkable metric values.

    Main.main: h = new Holder; a = new A; b = new B;
               h.f = a; h.f = b; h.g = a;
               x = h.f;
               id(a) -> u   (static call)
    """
    b = ProgramBuilder()
    b.klass("Holder", fields=["f", "g"])
    b.klass("A")
    b.klass("B")
    with b.method("Util", "id", ["p"], static=True) as m:
        m.ret("p")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("h", "Holder")
        m.alloc("a", "A")
        m.alloc("b", "B")
        m.store("h", "f", "a")
        m.store("h", "f", "b")
        m.store("h", "g", "a")
        m.load("x", "h", "f")
        m.scall("Util", "id", ["a"], target="u")
    program = b.build(entry="Main.main/0")
    facts = encode_program(program)
    result = analyze(program, "insens", facts=facts)
    return program, facts, result, compute_metrics(result, facts)


H = "Main.main/0/new Holder/0"
A = "Main.main/0/new A/1"
B = "Main.main/0/new B/2"
MAIN = "Main.main/0"
ID = "Util.id/1"


class TestHandComputedValues:
    def test_in_flow(self, metric_setup):
        _, _, _, m = metric_setup
        # one call site, one argument `a` pointing to 1 object
        assert list(m.in_flow.values()) == [1]

    def test_total_pts_volume(self, metric_setup):
        _, _, _, m = metric_setup
        # main: h->1, a->1, b->1, x->2 (f holds A and B), u->1  => 6
        assert m.total_pts_volume[MAIN] == 6
        # id: p->1, ret flows back, so p is its only local with pts
        assert m.total_pts_volume[ID] == 1

    def test_max_var_pts(self, metric_setup):
        _, _, _, m = metric_setup
        assert m.max_var_pts[MAIN] == 2  # x

    def test_field_pts(self, metric_setup):
        _, _, _, m = metric_setup
        # Holder.f -> {A, B}; Holder.g -> {A}
        assert m.max_field_pts[H] == 2
        assert m.total_field_pts[H] == 3
        assert H not in m.pointed_by_objs

    def test_max_var_field_pts(self, metric_setup):
        _, _, _, m = metric_setup
        # main's h points to Holder whose max field pts is 2
        assert m.max_var_field_pts[MAIN] == 2
        # id's locals point only to A (no fields)
        assert ID not in m.max_var_field_pts

    def test_pointed_by_vars(self, metric_setup):
        _, _, _, m = metric_setup
        # A is pointed by: a, x, u, p(id) = 4 vars
        assert m.pointed_by_vars[A] == 4
        # B: b, x
        assert m.pointed_by_vars[B] == 2
        # Holder: h
        assert m.pointed_by_vars[H] == 1

    def test_pointed_by_objs(self, metric_setup):
        _, _, _, m = metric_setup
        # A sits in Holder.f and Holder.g -> 2 object-field pairs
        assert m.pointed_by_objs[A] == 2
        assert m.pointed_by_objs[B] == 1

    def test_object_weight(self, metric_setup):
        _, _, _, m = metric_setup
        assert m.object_weight(H) == 3 * 1
        assert m.object_weight(A) == 0  # A has no fields holding anything

    def test_defaults_are_zero(self, metric_setup):
        _, _, _, m = metric_setup
        assert m.in_flow.get("nonexistent", 0) == 0
        assert m.object_weight("nonexistent") == 0


@pytest.mark.parametrize(
    "builder",
    [build_tiny_program, build_box_program, build_kitchen_sink_program],
    ids=["tiny", "boxes", "kitchen-sink"],
)
def test_fast_path_equals_datalog_queries(builder):
    """compute_metrics (Python folds) and compute_metrics_datalog (the
    paper's aggregation queries) must agree on every metric."""
    program = builder()
    facts = encode_program(program)
    result = analyze(program, "insens", facts=facts)
    fast = compute_metrics(result, facts)
    datalog = compute_metrics_datalog(result, facts)
    for attr in METRIC_ATTRS:
        assert getattr(fast, attr) == getattr(datalog, attr), attr


@pytest.mark.parametrize("flavor", MATRIX_FLAVORS)
@pytest.mark.parametrize("name", MATRIX_PROGRAMS)
def test_fast_path_equals_datalog_on_sensitive_results(name, flavor):
    """The same agreement on context-sensitive results, where pair ids
    are not heap ids and a heap may own several pairs, so the masks are
    projected onto heaps before they are counted."""
    _program, facts = matrix_program(name)
    result = matrix_result(name, flavor)
    fast = compute_metrics(result, facts)
    datalog = compute_metrics_datalog(result, facts)
    for attr in METRIC_ATTRS:
        assert getattr(fast, attr) == getattr(datalog, attr), attr


def test_sensitive_matrix_exercises_both_mask_spaces():
    """The matrix above holds results whose pairs map one-to-one onto
    heaps (pair bits are used as they are) and results with heaps under
    several contexts (pair bits are projected)."""
    injective = []
    for flavor in MATRIX_FLAVORS:
        pair_heap = matrix_result("lusearch", flavor).raw.pair_heap
        assert any(pid != heap for pid, heap in enumerate(pair_heap)), flavor
        injective.append(len(set(pair_heap)) == len(pair_heap))
    assert True in injective and False in injective
    assert not injective[MATRIX_FLAVORS.index("2objH-IntroA")]
