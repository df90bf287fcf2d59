"""Tests for the demand-driven query engine (`repro.query`).

The headline property is *per-flavor exactness*: a sliced demand query
returns exactly the whole-program projection of the queried variable —
for every supported flavor, exceptions included — while touching only a
slice of the fact base.  On top of that sit the memoization contracts
(repeat queries and repeat batches solve nothing) and the budget
contracts (same ``BudgetExceeded`` as the whole-program path; a blown
batch member cannot starve its siblings or poison the memo).
"""

import random

import pytest
from hypothesis import given, settings

from repro import ProgramBuilder, analyze, encode_program
from repro.analysis import BudgetExceeded
from repro.introspection import HeuristicA, HeuristicB, run_introspective
from repro.query import (
    QUERY_FLAVORS,
    QueryEngine,
    QueryPlanner,
    SLICED_RELATIONS,
)
from repro.obs import Tracer
from tests.conftest import (
    MATRIX_FLAVORS,
    MATRIX_PROGRAMS,
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
    matrix_program,
    matrix_result,
)


def build_throwing_program():
    """Cross-method exception flow: the heap reaching ``h`` travels a
    throw -> (transitive call) -> catch path the slice must keep."""
    b = ProgramBuilder()
    b.klass("Exc")
    b.klass("Other")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Lib", "mid", [], static=True) as m:
        m.scall("Lib", "boom", [])
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "mid", [])
        m.catch("h", "Exc")
        m.alloc("o", "Other")
        m.move("copy", "h")
    return b.build(entry="Main.main/0")


def build_dispatch_program():
    """``this`` only receives receivers that dispatch to the method:
    ``A.me/0/this`` holds the ``A`` heap alone, never the ``B`` one."""
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
    return b.build(entry="Main.main/0")


def build_unreachable_store_program():
    """Regression: a static or field store in a method the call graph
    never reaches must not feed loads in reachable code."""
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
    return b.build(entry="Main.main/0")


def build_intercepted_catch_program():
    """``Lib.mid`` catches every exception ``Lib.boom`` throws, so
    nothing reaches ``Main.main/0/h``: a catch edge from every throw
    would leak the ``boom`` heap into it."""
    b = ProgramBuilder()
    b.klass("Exc")
    with b.method("Lib", "boom", [], static=True) as m:
        m.alloc("e", "Exc")
        m.throw("e")
    with b.method("Lib", "mid", [], static=True) as m:
        m.scall("Lib", "boom", [])
        m.catch("g", "Exc")
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Lib", "mid", [])
        m.catch("h", "Exc")
    return b.build(entry="Main.main/0")


def whole_program_result(program, facts, flavor):
    """The comparator the engine must reproduce, per flavor."""
    if flavor.startswith("introspective-"):
        heuristic = {"A": HeuristicA, "B": HeuristicB}[flavor[-1]]()
        return run_introspective(program, "2objH", heuristic, facts=facts).result
    return analyze(program, flavor, facts=facts)


@pytest.mark.parametrize(
    "builder",
    [
        build_tiny_program,
        build_box_program,
        build_kitchen_sink_program,
        build_throwing_program,
        build_dispatch_program,
        build_unreachable_store_program,
        build_intercepted_catch_program,
    ],
    ids=[
        "tiny",
        "boxes",
        "kitchen-sink",
        "throwing",
        "dispatch",
        "unreachable-store",
        "intercepted-catch",
    ],
)
@pytest.mark.parametrize("flavor", QUERY_FLAVORS)
def test_query_equals_whole_program_per_flavor(builder, flavor):
    """Every variable's query answer equals the whole-program projection
    — the acceptance contract, asserted for every supported flavor."""
    program = builder()
    facts = encode_program(program)
    engine = QueryEngine(program, facts=facts)
    whole = whole_program_result(program, facts, flavor)
    variables = sorted({var for var, _meth in facts.varinmeth})
    outcomes = engine.query_batch(variables, flavor)
    assert [o.var for o in outcomes] == variables
    for outcome in outcomes:
        assert outcome.error is None, outcome.var
        assert outcome.answer.points_to == frozenset(
            whole.points_to(outcome.var)
        ), (outcome.var, flavor)


# Property-based: reuse the random-program strategy.  Catch handlers
# included, every variable's insensitive query answer is exactly its
# whole-program insensitive set.
from tests.analysis.test_properties import programs  # noqa: E402


@given(programs())
@settings(max_examples=40, deadline=None)
def test_query_matches_insensitive_on_random_programs(program):
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    engine = QueryEngine(program, facts=facts, insens=insens)
    for var in sorted({var for var, _meth in facts.varinmeth}):
        assert engine.query(var, "insens").points_to == frozenset(
            insens.points_to(var)
        ), var


#: The matrix's refined flavors, plus the engine's own introspective
#: flavor (the matrix's introspective cell uses scaled constants).
COVER_FLAVORS = tuple(
    f for f in MATRIX_FLAVORS if not f.endswith("-IntroA")
) + ("introspective-A",)


@pytest.mark.parametrize("flavor", COVER_FLAVORS)
@pytest.mark.parametrize("name", MATRIX_PROGRAMS)
def test_every_planned_variable_equals_whole_program(name, flavor):
    """The planner's guarantee the cover index rests on: a plan's sliced
    solve is exact for *every* planned variable, not just the queried
    one."""
    program, facts = matrix_program(name)
    if flavor.startswith("introspective-"):
        whole = whole_program_result(program, facts, flavor)
    else:
        whole = matrix_result(name, flavor)
    engine = QueryEngine(program, facts=facts)
    policy = engine.policy(flavor)
    variables = sorted({var for var, _meth in facts.varinmeth})
    picked = random.Random(2014).sample(variables, min(8, len(variables)))
    for var in picked:
        plan = engine.plan(var)
        sliced = analyze(
            program, policy, facts=plan.sliced_facts(program, facts)
        )
        for v in plan.variables:
            assert sliced.points_to(v) == whole.points_to(v), (var, v)


def test_slice_is_a_real_slice():
    """Querying one box group's result must not drag in the hub code."""
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
    facts = encode_program(program)
    engine = QueryEngine(program, facts=facts)
    whole = analyze(program, "2objH", facts=facts)
    answer = engine.query("BoxDriver0.drive/0/g0", "2objH")
    assert answer.points_to == frozenset(
        whole.points_to("BoxDriver0.drive/0/g0")
    )
    assert 0.0 < answer.footprint < 0.25
    assert answer.slice_variables < len(facts.varinmeth) / 4


class TestMemoization:
    def test_repeat_query_is_memoized_and_solves_nothing(self):
        program = build_box_program()
        engine = QueryEngine(program)
        first = engine.query("Main.main/0/g1", "2objH")
        assert first.memoized is False
        solves = engine.solves
        again = engine.query("Main.main/0/g1", "2objH")
        assert again is first  # answer-memo hit, verbatim
        assert engine.solves == solves

    def test_identical_slice_signature_shares_one_solve(self):
        """A variable planned by an earlier query's closure shares that
        query's fixpoint through the cover index."""
        program = build_box_program()
        engine = QueryEngine(program)
        # g1's producer: planned in g1's closure
        assert "Box.get/0/r" in engine.plan("Main.main/0/g1").variables
        engine.query("Main.main/0/g1", "2objH")
        solves = engine.solves
        answer = engine.query("Box.get/0/r", "2objH")
        assert engine.solves == solves
        assert answer.memoized is True

    def test_repeat_batch_runs_zero_new_solves(self):
        program = build_box_program()
        engine = QueryEngine(program)
        variables = ["Main.main/0/g0", "Main.main/0/g1", "Main.main/0/g2"]
        engine.query_batch(variables, "2typeH")
        solves = engine.solves
        outcomes = engine.query_batch(variables, "2typeH")
        assert engine.solves == solves
        assert all(o.answer is not None for o in outcomes)

    def test_batch_union_seeds_individual_plans(self):
        """After a batch, each member's solo query is answered from the
        union solve's cover entries."""
        program = build_box_program()
        engine = QueryEngine(program)
        variables = ["Main.main/0/g0", "Main.main/0/g2"]
        engine.query_batch(variables, "2objH")
        solves = engine.solves
        for var in variables:
            engine._answer_memo.clear()  # force the cover-index path
            answer = engine.query(var, "2objH")
            assert answer.memoized is True
        assert engine.solves == solves

    def test_covered_query_runs_no_solve(self):
        """A variable some earlier solve planned is answered from that
        solve: no new fixpoint, ``memoized``, exact, with its own plan's
        slice figures."""
        program = build_box_program()
        engine = QueryEngine(program)
        whole = analyze(program, "2objH", facts=engine.facts)
        engine.query("Main.main/0/g1", "2objH")
        plan = engine.plan("Main.main/0/g1")
        others = sorted(plan.variables - {"Main.main/0/g1"})
        assert others
        solves = engine.solves
        for var in others:
            answer = engine.query(var, "2objH")
            assert answer.memoized is True, var
            assert answer.points_to == frozenset(whole.points_to(var)), var
            plan = engine.plan(var)
            assert answer.slice_variables == len(plan.variables)
            assert answer.slice_tuples == plan.kept_tuples
        assert engine.solves == solves

    def test_clear_memos_drops_the_cover_index(self):
        program = build_box_program()
        engine = QueryEngine(program)
        engine.query("Main.main/0/g1", "2objH")
        covered = len(engine.plan("Main.main/0/g1").variables)
        assert engine.memo_entries == covered
        engine.clear_memos()
        assert engine.memo_entries == 0
        solves = engine.solves
        answer = engine.query("Box.get/0/r", "2objH")
        assert answer.memoized is False
        assert engine.solves == solves + 1

    def test_flavors_do_not_share_memo_entries(self):
        program = build_tiny_program()
        engine = QueryEngine(program)
        engine.query("Main.main/0/r1", "insens")
        solves = engine.solves
        engine.query("Main.main/0/r1", "2objH")
        assert engine.solves == solves + 1

    def test_clear_memos_keeps_plans_warm(self):
        program = build_tiny_program()
        engine = QueryEngine(program)
        engine.query("Main.main/0/r1", "2objH")
        assert engine.memo_entries > 0 and engine.answered > 0
        plans = dict(engine._plans)
        engine.clear_memos()
        assert engine.memo_entries == 0 and engine.answered == 0
        assert engine._plans == plans


def cold_answer(program, var, flavor="2objH"):
    return QueryEngine(program).query(var, flavor).points_to


class TestBudgets:
    def test_budget_trip_matches_whole_program_exception(self):
        """A starved query raises the very same exception type with the
        same fields (`reason`/`tuples`/`seconds`) as a whole-program
        budget trip — clients need not special-case the demand path."""
        program = build_box_program()
        facts = encode_program(program)
        with pytest.raises(BudgetExceeded) as whole_exc:
            analyze(program, "2objH", facts=facts, max_tuples=1)
        engine = QueryEngine(program, facts=facts)
        with pytest.raises(BudgetExceeded) as query_exc:
            engine.query("Main.main/0/g1", "2objH", max_tuples=1)
        assert query_exc.value.reason == whole_exc.value.reason
        assert query_exc.value.tuples > 1
        assert query_exc.value.seconds >= 0.0

    def test_failed_solve_never_populates_memo(self):
        program = build_box_program()
        engine = QueryEngine(program)
        with pytest.raises(BudgetExceeded):
            engine.query("Main.main/0/g1", "2objH", max_tuples=1)
        assert engine.memo_entries == 0
        assert engine.answered == 0
        # A retry with room succeeds: no partial result was cached.
        whole = analyze(program, "2objH", facts=engine.facts)
        answer = engine.query("Main.main/0/g1", "2objH")
        assert answer.points_to == frozenset(
            whole.points_to("Main.main/0/g1")
        )

    def test_covered_query_keeps_its_own_tuple_budget(self):
        """A cover entry answers only budgets its solve fitted; a tighter
        one gets the variable's own solve, which raises or answers just
        as on a cold engine."""
        program = build_box_program()
        engine = QueryEngine(program)
        engine.query("Main.main/0/g1", "2objH")
        assert "Box.get/0/r" in engine.plan("Main.main/0/g1").variables
        with pytest.raises(BudgetExceeded):
            engine.query("Box.get/0/r", "2objH", max_tuples=1)
        cold = QueryEngine(program, facts=engine.facts)
        with pytest.raises(BudgetExceeded):
            cold.query("Box.get/0/r", "2objH", max_tuples=1)
        # the answer memo keeps the budget too
        with pytest.raises(BudgetExceeded):
            engine.query("Main.main/0/g1", "2objH", max_tuples=1)

    def test_tight_budget_that_fits_gets_an_own_solve(self):
        """A budget below the covering solve's count but at the
        variable's own count answers from a fresh solve, which then
        serves that budget from the index."""
        program = build_box_program()
        facts = encode_program(program)
        var = "Box.set/1/x"  # planned in g1's closure, with a smaller one
        engine = QueryEngine(program, facts=facts)
        engine.query("Main.main/0/g1", "2objH")
        assert var in engine.plan("Main.main/0/g1").variables
        sliced = engine.plan(var).sliced_facts(program, facts)
        own = analyze(
            program, engine.policy("2objH"), facts=sliced
        ).stats().tuple_count
        assert own < engine._cover[("2objH", "Main.main/0/g1")].tuples
        solves = engine.solves
        answer = engine.query(var, "2objH", max_tuples=own)
        assert answer.memoized is False
        assert engine.solves == solves + 1
        assert answer.points_to == cold_answer(program, var)
        again = engine.query(var, "2objH", max_tuples=own)
        assert again is answer
        assert engine.solves == solves + 1
        with pytest.raises(BudgetExceeded):
            engine.query(var, "2objH", max_tuples=own - 1)

    def test_budget_tripped_batch_adds_no_cover_entry(self):
        program = build_box_program()
        engine = QueryEngine(program)
        variables = ["Main.main/0/g0", "Main.main/0/g1"]
        engine.query_batch(variables, "2objH", max_tuples=1)
        assert engine.memo_entries == 0
        assert engine.solves == 0

    def test_blown_batch_member_cannot_starve_siblings(self):
        """A budget the union-solve blows but each solo slice fits must
        still answer every variable (fallback to per-variable solves).

        Needs two near-disjoint slices so the union genuinely costs more
        than the dearest member — a box group and a hub qualify."""
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
        facts = encode_program(program)
        variables = ["BoxDriver0.drive/0/g0", "Hub0.fetch/0/r"]
        # Find a budget between the largest solo slice and the union.
        probe = QueryEngine(program, facts=facts)
        solo_costs = []
        for var in variables:
            probe.clear_memos()
            sliced = probe.plan(var).sliced_facts(program, facts)
            result = analyze(program, probe.policy("insens"), facts=sliced)
            solo_costs.append(result.stats().tuple_count)
        union_plan = probe.planner.plan(variables)
        union_cost = analyze(
            program,
            probe.policy("insens"),
            facts=union_plan.sliced_facts(program, facts),
        ).stats().tuple_count
        budget = (max(solo_costs) + union_cost) // 2
        if not max(solo_costs) < budget < union_cost:
            pytest.skip("fixture slices too uniform to wedge a budget")
        engine = QueryEngine(program, facts=facts)
        outcomes = engine.query_batch(variables, "insens", max_tuples=budget)
        whole = analyze(program, "insens", facts=facts)
        for outcome in outcomes:
            assert outcome.error is None, outcome.var
            assert outcome.answer.points_to == frozenset(
                whole.points_to(outcome.var)
            )

    def test_batch_reports_error_slots_in_order(self):
        program = build_box_program()
        engine = QueryEngine(program)
        variables = ["Main.main/0/g0", "Main.main/0/g1"]
        outcomes = engine.query_batch(variables, "2objH", max_tuples=1)
        assert [o.var for o in outcomes] == variables
        for outcome in outcomes:
            assert outcome.answer is None
            assert outcome.error is not None
            payload = outcome.to_json()
            assert set(payload["error"]) == {"reason", "tuples", "seconds"}
        # The failures poisoned nothing: a roomy repeat answers clean.
        outcomes = engine.query_batch(variables, "2objH")
        assert all(o.error is None for o in outcomes)


class TestPlanner:
    def test_plan_signature_is_deterministic(self):
        program = build_kitchen_sink_program()
        facts = encode_program(program)
        insens = analyze(program, "insens", facts=facts)
        a = QueryPlanner(program, facts, insens.call_graph).plan(
            ["Main.main/0/g"]
        )
        b = QueryPlanner(program, facts, insens.call_graph).plan(
            ["Main.main/0/g"]
        )
        assert a.signature == b.signature
        assert a.kept_tuples == b.kept_tuples

    def test_sliced_facts_only_shrink_sliced_relations(self):
        program = build_kitchen_sink_program()
        facts = encode_program(program)
        engine = QueryEngine(program, facts=facts)
        plan = engine.plan("Main.main/0/g")
        sliced = plan.sliced_facts(program, facts)
        for relation in SLICED_RELATIONS:
            assert len(getattr(sliced, relation)) <= len(
                getattr(facts, relation)
            ), relation
        # Auxiliary relations are shared by reference, not copied.
        assert sliced.subtype is facts.subtype

    def test_unknown_variable_answers_empty(self):
        """The planner's documented contract: an unknown variable plans
        an empty slice and answers the empty set, it does not raise."""
        program = build_tiny_program()
        engine = QueryEngine(program)
        answer = engine.query("Main.main/0/nope")
        assert answer.points_to == frozenset()
        assert answer.slice_tuples == 0

    def test_unknown_flavor_is_rejected(self):
        program = build_tiny_program()
        engine = QueryEngine(program)
        with pytest.raises(ValueError):
            engine.policy("introspective-C")


def test_traced_answers_equal_untraced():
    """Tracing records the query spans and changes no answer."""
    program = build_kitchen_sink_program()
    facts = encode_program(program)
    insens = analyze(program, "insens", facts=facts)
    variables = sorted({var for var, _meth in facts.varinmeth})
    tracer = Tracer()
    traced = QueryEngine(program, facts=facts, insens=insens, tracer=tracer)
    plain = QueryEngine(program, facts=facts, insens=insens)
    for flavor in ("2objH", "introspective-A"):
        for engine in (traced, plain):
            engine.query(variables[0], flavor)
            engine.query_batch(variables, flavor)
        for var in variables:
            assert (
                traced.query(var, flavor).points_to
                == plain.query(var, flavor).points_to
            ), (flavor, var)
    assert traced.solves == plain.solves
    summary = tracer.summary()
    for name in ("query.plan", "query.slice", "query.solve", "analysis.solve"):
        assert summary[name]["count"] > 0, name
    assert summary["query.solve"]["count"] == traced.solves


def test_answer_json_round_trip_fields():
    program = build_tiny_program()
    engine = QueryEngine(program)
    payload = engine.query("Main.main/0/r1", "2objH").to_json()
    assert set(payload) == {
        "var",
        "flavor",
        "points_to",
        "slice_variables",
        "slice_methods",
        "slice_tuples",
        "footprint",
        "seconds",
        "memoized",
    }
    assert payload["points_to"] == sorted(payload["points_to"])
