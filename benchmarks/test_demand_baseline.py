"""Demand-driven queries: query footprint vs whole-program analysis.

The demand-driven literature's selling point is footprint: answering one
``pts(v)`` query explores only ``v``'s backward flow slice.  On the jython
analog (the largest program, ~1,600 methods), client-style queries (box
contents, strategy results) each visit a small fraction of the program's
variables while returning exactly the whole-program insensitive answer —
whereas an all-points client would issue thousands of such queries, which
is the regime where the paper's introspective analysis (one two-pass run)
is the right tool.  The queries run on :class:`repro.query.QueryEngine`,
the same sliced solver the service's ``POST /queries`` uses; a query's
footprint is its planned slice.
"""

import pytest

from repro.query import QueryEngine


QUERIES = [
    "BoxDriver0.drive/0/g0",
    "BoxDriver1.drive/0/g3",
    "StrategyDriver0.drive/0/r1",
    "SinkDriver0.drive/0/x",
]


def run_queries(cache):
    program, facts = cache.program("jython")
    insens = cache.insens("jython")
    engine = QueryEngine(program, facts=facts, insens=insens)
    answers = {var: engine.query(var, "insens") for var in QUERIES}
    return facts, insens, answers


def test_demand_footprint(benchmark, cache):
    facts, insens, answers = benchmark.pedantic(
        run_queries, args=(cache,), rounds=1, iterations=1
    )
    total_vars = len(facts.varinmeth)
    print()
    for var, answer in answers.items():
        fraction = answer.slice_variables / total_vars
        print(
            f"{var:35s} {len(answer.points_to)} heaps, "
            f"{answer.slice_variables}/{total_vars} vars "
            f"({100 * fraction:.1f}%)"
        )
        # exactness against the whole-program insensitive result
        expected = frozenset(insens.var_points_to.get(var, set()))
        assert answer.points_to == expected, var
        # footprint: a genuine slice, not the whole program
        assert fraction < 0.25, var

    # client-style queries together still cover a minority of the program
    union = max(a.slice_variables for a in answers.values())
    assert union < total_vars / 2
