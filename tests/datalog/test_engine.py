"""Tests for the Datalog engine: recursion, negation, strata, builtins."""

import pytest

from repro.datalog import (
    Atom,
    Engine,
    EvaluationBudgetExceeded,
    FilterAtom,
    FunAtom,
    NegAtom,
    Rule,
    RuleError,
    RuleProgram,
    V,
    count,
    parse_program,
    stratify,
)
from repro.obs import Tracer


def run(text, facts, max_rows=None):
    engine = Engine(parse_program(text), max_rows=max_rows)
    engine.load(facts)
    engine.run()
    return engine


class TestBasicEvaluation:
    def test_copy_rule(self):
        e = run("out(X) :- inp(X).", {"inp": [(1,), (2,)]})
        assert e.query("out") == {(1,), (2,)}

    def test_join(self):
        e = run(
            "gp(X, Z) :- parent(X, Y), parent(Y, Z).",
            {"parent": [("a", "b"), ("b", "c"), ("b", "d")]},
        )
        assert e.query("gp") == {("a", "c"), ("a", "d")}

    def test_transitive_closure(self):
        e = run(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- edge(X, Y), path(Y, Z).
            """,
            {"edge": [(i, i + 1) for i in range(20)]},
        )
        assert len(e.query("path")) == 20 * 21 // 2

    def test_cyclic_graph_terminates(self):
        e = run(
            """
            path(X, Y) :- edge(X, Y).
            path(X, Z) :- path(X, Y), edge(Y, Z).
            """,
            {"edge": [("a", "b"), ("b", "a")]},
        )
        assert e.query("path") == {
            ("a", "b"),
            ("b", "a"),
            ("a", "a"),
            ("b", "b"),
        }

    def test_constants_in_body(self):
        e = run(
            "hit(X) :- edge(root, X).",
            {"edge": [("root", "a"), ("other", "b")]},
        )
        assert e.query("hit") == {("a",)}

    def test_constants_in_head(self):
        e = run("tag(fixed, X) :- inp(X).", {"inp": [(1,)]})
        assert e.query("tag") == {("fixed", 1)}

    def test_repeated_variable_in_atom(self):
        e = run("loop(X) :- edge(X, X).", {"edge": [("a", "a"), ("a", "b")]})
        assert e.query("loop") == {("a",)}

    def test_wildcards_do_not_join(self):
        e = run(
            "src(X) :- edge(X, _), edge(_, X).",
            {"edge": [("a", "b"), ("b", "c")]},
        )
        assert e.query("src") == {("b",)}

    def test_mutual_recursion(self):
        e = run(
            """
            even(X) :- zero(X).
            even(Y) :- odd(X), succ(X, Y).
            odd(Y) :- even(X), succ(X, Y).
            """,
            {"zero": [(0,)], "succ": [(i, i + 1) for i in range(6)]},
        )
        assert e.query("even") == {(0,), (2,), (4,), (6,)}
        assert e.query("odd") == {(1,), (3,), (5,)}

    def test_empty_edb(self):
        e = run("out(X) :- inp(X).", {})
        assert e.query("out") == set()


class TestNegation:
    def test_stratified_negation(self):
        e = run(
            """
            reach(X) :- root(X).
            reach(Y) :- reach(X), edge(X, Y).
            dead(X) :- node(X), !reach(X).
            """,
            {
                "root": [("a",)],
                "edge": [("a", "b")],
                "node": [("a",), ("b",), ("c",)],
            },
        )
        assert e.query("dead") == {("c",)}

    def test_negation_in_cycle_rejected(self):
        with pytest.raises(RuleError, match="not stratifiable"):
            Engine(
                parse_program(
                    """
                    p(X) :- inp(X), !q(X).
                    q(X) :- inp(X), !p(X).
                    """
                )
            )

    def test_unsafe_negation_rejected(self):
        with pytest.raises(RuleError, match="unsafe negation"):
            parse_program("p(X) :- inp(X), !q(Y).")

    def test_negation_on_edb(self):
        e = run(
            "only(X) :- a(X), !b(X).",
            {"a": [(1,), (2,)], "b": [(2,)]},
        )
        assert e.query("only") == {(1,)}


class TestStratification:
    def test_strata_ordering(self):
        program = parse_program(
            """
            p(X) :- e(X).
            q(X) :- p(X).
            r(X) :- q(X), !p(X).
            """
        )
        strata = stratify(program)
        assert strata["e"] < strata["p"] <= strata["q"] < strata["r"]

    def test_scc_shares_stratum(self):
        program = parse_program(
            """
            p(X) :- e(X).
            p(X) :- q(X).
            q(X) :- p(X).
            """
        )
        strata = stratify(program)
        assert strata["p"] == strata["q"]

    def test_multihead_spanning_strata_rejected(self):
        # head h2 is negated by a rule above, so it must be in a lower
        # stratum than h1 which depends on that rule's output -> conflict.
        rules = [
            Rule([Atom("h2", V.x)], [Atom("e", V.x)]),
            Rule([Atom("mid", V.x)], [Atom("e", V.x), NegAtom(Atom("h2", V.x))]),
            Rule([Atom("h1", V.x), Atom("h2", V.x)], [Atom("mid", V.x)]),
        ]
        with pytest.raises(RuleError):
            Engine(RuleProgram(rules, edb=["e"]))


class TestBuiltins:
    def test_function_atom_binds_output(self):
        double = FunAtom(lambda x: x * 2, ins=(V.x,), out=V.y, name="double")
        program = RuleProgram(
            [Rule([Atom("out", V.x, V.y)], [Atom("inp", V.x), double])],
            edb=["inp"],
        )
        e = Engine(program)
        e.load({"inp": [(1,), (3,)]})
        e.run()
        assert e.query("out") == {(1, 2), (3, 6)}

    def test_function_atom_joins_when_output_bound(self):
        double = FunAtom(lambda x: x * 2, ins=(V.x,), out=V.y, name="double")
        program = RuleProgram(
            [
                Rule(
                    [Atom("ok", V.x)],
                    [Atom("pair", V.x, V.y), double],
                )
            ],
            edb=["pair"],
        )
        e = Engine(program)
        e.load({"pair": [(1, 2), (1, 3)]})
        e.run()
        assert e.query("ok") == {(1,)}

    def test_unbound_function_input_rejected(self):
        double = FunAtom(lambda x: x * 2, ins=(V.z,), out=V.y)
        with pytest.raises(RuleError, match="unbound function inputs"):
            RuleProgram(
                [Rule([Atom("out", V.y)], [Atom("inp", V.x), double])],
                edb=["inp"],
            )

    def test_filter_atom(self):
        positive = FilterAtom(lambda x: x > 0, args=(V.x,), name="positive")
        program = RuleProgram(
            [Rule([Atom("pos", V.x)], [Atom("inp", V.x), positive])],
            edb=["inp"],
        )
        e = Engine(program)
        e.load({"inp": [(-1,), (0,), (5,)]})
        e.run()
        assert e.query("pos") == {(5,)}


class TestAggregates:
    def test_count_groups(self):
        e = run(
            "deg(X, N) :- agg<N = count()>(edge(X, Y)).",
            {"edge": [("a", 1), ("a", 2), ("b", 1)]},
        )
        assert e.query("deg") == {("a", 2), ("b", 1)}

    def test_count_over_derived_relation(self):
        e = run(
            """
            pair(X, Y) :- e1(X, Y).
            pair(X, Y) :- e2(X, Y).
            n(X, N) :- agg<N = count()>(pair(X, Y)).
            """,
            {"e1": [("a", 1), ("a", 2)], "e2": [("a", 2), ("a", 3)]},
        )
        assert e.query("n") == {("a", 3)}  # distinct tuples, not sum

    def test_count_with_join_body(self):
        program = RuleProgram(
            [],
            aggregates=[
                count(
                    "m",
                    [V.x],
                    V.n,
                    [Atom("edge", V.x, V.y), Atom("mark", V.y)],
                )
            ],
            edb=["edge", "mark"],
        )
        e = Engine(program)
        e.load({"edge": [("a", 1), ("a", 2), ("a", 3)], "mark": [(1,), (3,)]})
        e.run()
        assert e.query("m") == {("a", 2)}

    def test_aggregate_over_aggregate_strata(self):
        e = run(
            """
            deg(X, N) :- agg<N = count()>(edge(X, Y)).
            byn(N, K) :- agg<K = count()>(deg(X, N)).
            """,
            {"edge": [("a", 1), ("a", 2), ("b", 1), ("c", 2)]},
        )
        assert e.query("byn") == {(2, 1), (1, 2)}

    def test_wildcard_in_aggregate_rejected(self):
        with pytest.raises(RuleError, match="wildcard"):
            parse_program("n(X, N) :- agg<N = count()>(edge(X, _)).")


class TestBudget:
    def test_budget_exceeded(self):
        with pytest.raises(EvaluationBudgetExceeded):
            run(
                """
                path(X, Y) :- edge(X, Y).
                path(X, Z) :- edge(X, Y), path(Y, Z).
                """,
                {"edge": [(i, i + 1) for i in range(100)]},
                max_rows=50,
            )

    @pytest.mark.parametrize("max_rows", [350, 700])
    def test_traced_trip_keeps_the_tripping_round(self, max_rows):
        """The round in which the budget trips still records its span, so
        a trace shows where evaluation stopped."""
        tracer = Tracer()
        engine = Engine(
            parse_program(
                """
                path(X, Y) :- edge(X, Y).
                path(X, Z) :- edge(X, Y), path(Y, Z).
                """
            ),
            max_rows=max_rows,
            tracer=tracer,
        )
        engine.load({"edge": [(i, i + 1) for i in range(100)]})
        with pytest.raises(EvaluationBudgetExceeded):
            engine.run()
        rounds = [s.attrs["round"] for s in tracer.spans()
                  if s.name == "datalog.round"]
        assert rounds == list(range(1, engine.rounds + 1))


class TestRuleValidation:
    def test_unsafe_head_rejected(self):
        with pytest.raises(RuleError, match="unsafe head"):
            parse_program("p(X, Y) :- inp(X).")

    def test_empty_body_rejected(self):
        with pytest.raises(RuleError, match="non-empty body"):
            Rule([Atom("p", V.x)], [])

    def test_wildcard_in_head_rejected(self):
        with pytest.raises(RuleError, match="wildcard"):
            Rule([Atom("p", V("_"))], [Atom("q", V.x)]).validate()

    def test_edb_idb_overlap_rejected(self):
        with pytest.raises(RuleError, match="both EDB and IDB"):
            RuleProgram(
                [Rule([Atom("p", V.x)], [Atom("q", V.x)])], edb=["p", "q"]
            )
