"""Tests for the packed points-to representation and budget exactness.

Covers the solver internals: dense (heap, hctx) pair ids, the
incremental cast-filter index (including the staleness case where a heap
is minted *after* the filter was first computed), exact tuple-budget
semantics, the periodic clock check of the time budget, the
:class:`BudgetExceeded` payload fields, and first-reach body compilation
(a solver over a slice compiles only what the slice reaches).
"""

import pytest

from repro import BudgetExceeded, ProgramBuilder, analyze
from repro.analysis.reference_solver import reference_solve
from repro.analysis.solver import _CLOCK_CHECK_PERIOD, PointsToSolver, solve
from repro.benchgen import BenchmarkSpec, HubSpec, generate
from repro.benchgen.dacapo import build_benchmark
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import FactBase, encode_program
from repro.facts.io import load_facts, save_facts
from repro.fuzz.oracles import reference_relations, solver_relations
from repro.query import QueryPlanner
from tests.conftest import build_kitchen_sink_program


def raw_solve(program, analysis, **kwargs):
    """``solve`` with a named policy (the solver itself takes objects)."""
    facts = kwargs.pop("facts", None)
    if facts is None:
        facts = encode_program(program)
    policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
    return solve(program, policy, facts=facts, **kwargs)


def hub_program(readers=12, elements=10, chain=4):
    spec = BenchmarkSpec(
        name="packedtest",
        util_classes=0,
        strategy_clusters=(),
        box_groups=(),
        sink_groups=(),
        hubs=(HubSpec(readers=readers, elements=elements, chain=chain),),
    )
    return generate(spec)


class TestPackedRepresentation:
    def test_raw_solution_pts_are_pair_id_bitmasks(self):
        b = ProgramBuilder()
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("x", "java.lang.Object")
        program = b.build(entry="Main.main/0")
        raw = raw_solve(program, "insens")
        node = raw.var_nodes[
            (raw.vars.intern("Main.main/0/x"), raw.ctxs.intern(()))
        ]
        mask = raw.pts[node]
        assert isinstance(mask, int) and mask > 0
        # iter_pids materializes the set bits; pair()/iter_pts() recover
        # the (heap, hctx) view.
        (pid,) = raw.iter_pids(node)
        assert mask == 1 << pid
        assert raw.pts_size(node) == 1
        heap_i, hctx_i = raw.pair(pid)
        assert raw.heaps.value(heap_i) == "Main.main/0/new java.lang.Object/0"
        assert raw.pair(pid) in set(raw.iter_pts(node))

    def test_pair_tables_are_parallel(self):
        raw = raw_solve(hub_program(), "2objH")
        assert len(raw.pair_heap) == len(raw.pair_hctx)
        for pid in range(len(raw.pair_heap)):
            assert raw.pair(pid) == (raw.pair_heap[pid], raw.pair_hctx[pid])


class TestIncrementalFilterIndex:
    def test_heap_minted_after_filter_is_cached_still_flows(self):
        """Staleness regression: the cast filter for A is computed while
        only ``new A`` exists; ``Maker.make`` only becomes reachable (and
        its ``new B`` pair only minted) once the receiver object reaches
        the call site, strictly later.  The late pair must still pass the
        (already cached) filter."""
        b = ProgramBuilder()
        b.klass("A")
        b.klass("B", super_name="A")
        b.klass("Maker")
        with b.method("Maker", "make", []) as m:
            m.alloc("nb", "B")
            m.ret("nb")
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("a", "A")
            m.move("x", "a")
            m.cast("y", "x", "A")
            m.alloc("mk", "Maker")
            m.vcall("mk", "make", [], target="r")
            m.move("x", "r")
        program = b.build(entry="Main.main/0")
        result = analyze(program, "insens")
        assert set(result.points_to("Main.main/0/y")) == {
            "Main.main/0/new A/0",
            "Maker.make/0/new B/0",
        }

    def test_filter_still_excludes_incompatible_late_heaps(self):
        b = ProgramBuilder()
        b.klass("A")
        b.klass("B", super_name="A")
        b.klass("C")  # not a subtype of A
        b.klass("Maker")
        with b.method("Maker", "make", []) as m:
            m.alloc("nc", "C")
            m.ret("nc")
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("b", "B")
            m.move("x", "b")
            m.cast("y", "x", "A")
            m.alloc("mk", "Maker")
            m.vcall("mk", "make", [], target="r")
            m.move("x", "r")
        program = b.build(entry="Main.main/0")
        result = analyze(program, "insens")
        assert set(result.points_to("Main.main/0/y")) == {
            "Main.main/0/new B/0"
        }


class TestTupleBudgetExactness:
    def test_budget_equal_to_total_passes(self):
        """The check is strict (``count > max_tuples``): a budget equal
        to the exact derived-tuple count must not trip."""
        program = hub_program()
        total = raw_solve(program, "2objH").tuple_count
        raw = raw_solve(program, "2objH", max_tuples=total)
        assert raw.tuple_count == total

    def test_budget_one_below_total_trips_at_total(self):
        program = hub_program()
        total = raw_solve(program, "2objH").tuple_count
        with pytest.raises(BudgetExceeded) as info:
            raw_solve(program, "2objH", max_tuples=total - 1)
        # Derivation order is deterministic, so the trip happens exactly
        # when the count first exceeds the budget — at ``total``.
        assert info.value.tuples == total

    def test_exception_payload_fields(self):
        program = hub_program()
        with pytest.raises(BudgetExceeded) as info:
            raw_solve(program, "2objH", max_tuples=100)
        exc = info.value
        assert exc.reason == "tuple budget exceeded"
        assert isinstance(exc.tuples, int) and exc.tuples > 100
        assert isinstance(exc.seconds, float) and exc.seconds >= 0.0
        assert "tuple budget" in str(exc)


class TestTimeBudgetCadence:
    def test_clock_checked_every_period(self):
        """The wall clock is consulted once per ``_CLOCK_CHECK_PERIOD``
        charged tuples, so even a zero time budget cannot trip on a
        program that derives fewer tuples than one period."""
        b = ProgramBuilder()
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("x", "java.lang.Object")
            m.move("y", "x")
        program = b.build(entry="Main.main/0")
        raw = raw_solve(program, "insens", max_seconds=0.0)
        assert raw.tuple_count < _CLOCK_CHECK_PERIOD

    def test_zero_time_budget_trips_past_one_period(self):
        program = hub_program(readers=30, elements=30, chain=8)
        with pytest.raises(BudgetExceeded) as info:
            raw_solve(program, "2objH", max_seconds=0.0)
        exc = info.value
        assert exc.reason == "time budget exceeded"
        # The trip can only happen on a period boundary.
        assert exc.tuples >= _CLOCK_CHECK_PERIOD
        assert "time budget" in str(exc)


class TestHeapTypeFacts:
    def test_heaptype_without_alloc_fact_does_not_crash(self):
        """Regression: ``_compile_facts`` used to look the heap up in the
        interner (KeyError) instead of interning it; a heaptype fact may
        legitimately mention a heap with no alloc fact in hand-built or
        file-loaded fact bases."""
        b = ProgramBuilder()
        b.klass("A")
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("x", "A")
        program = b.build(entry="Main.main/0")
        facts = encode_program(program)
        facts.heaptype.append(("phantom#heap", "A"))
        raw = PointsToSolver(
            program, policy_by_name("insens"), facts=facts
        ).solve()
        assert raw.tuple_count > 0

    @pytest.mark.parametrize("analysis", ["insens", "2objH"])
    def test_reloaded_fact_base_matches_reference(self, analysis, tmp_path):
        """A fact base saved with ``facts.io`` and rebuilt from the files
        solves to the reference solver's string-level relations: nothing
        the packed solver reads is lost in the round trip."""
        program = build_kitchen_sink_program()
        save_facts(encode_program(program), tmp_path)
        facts = FactBase.from_relations(program, load_facts(tmp_path))
        policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
        packed = solver_relations(solve(program, policy, facts=facts))
        reference = reference_relations(
            reference_solve(program, policy, facts=facts)
        )
        assert packed == reference
        assert packed[0], "no VARPOINTSTO derived"


class TestSlicedConstruction:
    """A solver over a demand slice costs O(slice), not O(program): it
    groups only the sliced rows and compiles a method body (interning its
    heaps) only when the sliced solve reaches the method."""

    VAR = "BoxDriver0.drive/0/item2"

    @pytest.fixture(scope="class")
    def sliced(self):
        program = build_benchmark("antlr")
        facts = encode_program(program)
        insens = analyze(program, "insens", facts=facts)
        plan = QueryPlanner(program, facts, insens.call_graph).plan([self.VAR])
        return program, facts, plan, plan.sliced_facts(program, facts)

    def test_compiles_only_slice_methods(self, sliced):
        program, facts, plan, sliced_facts = sliced
        assert len(plan.methods) * 10 < len(list(program.methods()))
        solver = PointsToSolver(
            program,
            policy_by_name("2objH", alloc_class_of=facts.alloc_class_of),
            facts=sliced_facts,
        )
        assert not solver._bodies, "construction compiled a body"
        raw = solver.solve()
        assert raw.var_nodes, "the sliced solve derived nothing"
        assert 0 < len(solver._bodies) <= len(plan.methods)
        allocated = {heap for _var, heap, _meth in sliced_facts.alloc}
        assert set(solver.heaps.values()) <= allocated

    def test_slice_shares_the_fact_index(self, sliced):
        _program, facts, _plan, sliced_facts = sliced
        assert sliced_facts.index() is facts.index()
        assert sliced_facts.index().heap_type is facts.heap_type


class TestVcallDispatchKeying:
    def test_vcall_dispatches_keyed_by_bare_invo(self):
        """``RawSolution.vcall_dispatches`` maps the *invocation-site id*
        (not a (invo, ctx) pair) to the union of dispatched callees."""
        b = ProgramBuilder()
        b.klass("Maker")
        with b.method("Maker", "make", []) as m:
            m.ret()
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("mk", "Maker")
            m.vcall("mk", "make", [])
        program = b.build(entry="Main.main/0")
        raw = raw_solve(program, "2objH")
        assert raw.vcall_dispatches
        for invo, meths in raw.vcall_dispatches.items():
            assert isinstance(invo, int)
            assert raw.invos.value(invo)  # a valid interned invocation id
            assert all(isinstance(meth, int) for meth in meths)
