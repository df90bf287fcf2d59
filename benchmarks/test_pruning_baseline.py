"""Pruning baseline vs introspective analysis (the Section 5 argument).

[Liang & Naik, PLDI 2011] prune the input to the precise analysis based on
what affected a *client query*; the paper argues this complements — but
cannot replace — introspective analysis, because all-points analyses admit
no pruning.  This benchmark quantifies both halves on the hsqldb analog
(where full 2objH exceeds the budget):

* **narrow query** (one small-tier box cast): pruning keeps a small
  fraction of the program and the precise pass on the pruned program is
  *cheaper than even the introspective pass* — pruning wins when you only
  need one answer;
* **all-points query** (every cast source in the program): the relevance
  closure keeps essentially everything, the "pruned" precise pass explodes
  exactly like the full analysis — while introspective analysis still
  terminates with near-full precision, which is the paper's core claim.
"""

import pytest

from repro.baselines import keep_set, prune_and_analyze
from repro.harness import EXPERIMENT_BUDGET, scaled_heuristic_b
from repro.introspection import run_introspective


def narrow_query(facts):
    """The source variable of the first small-tier box cast."""
    for to, _type, frm, meth in facts.cast:
        if "BoxDriver0" in meth:
            return {frm}
    raise AssertionError("no box cast found")


def all_points_query(facts):
    """Every cast source variable: the all-points client."""
    return {frm for _to, _type, frm, _meth in facts.cast}


def run_comparison(cache):
    program, facts = cache.program("hsqldb")
    insens = cache.insens("hsqldb")
    narrow = prune_and_analyze(
        program,
        narrow_query(facts),
        analysis="2objH",
        facts=facts,
        insens=insens,
        max_tuples=EXPERIMENT_BUDGET,
    )
    broad = prune_and_analyze(
        program,
        all_points_query(facts),
        analysis="2objH",
        facts=facts,
        insens=insens,
        max_tuples=EXPERIMENT_BUDGET,
    )
    intro = run_introspective(
        program,
        "2objH",
        scaled_heuristic_b(),
        pack=cache.pack("hsqldb"),
        pass1=insens,
        max_tuples=EXPERIMENT_BUDGET,
    )
    return program, facts, insens, narrow, broad, intro


def test_pruning_vs_introspective(benchmark, cache):
    program, facts, insens, narrow, broad, intro = benchmark.pedantic(
        run_comparison, args=(cache,), rounds=1, iterations=1
    )

    # Narrow query: pruning keeps a small fraction and terminates cheaply.
    assert not narrow.timed_out
    assert narrow.kept_fraction < 0.1
    assert not intro.timed_out
    narrow_cost = narrow.result.stats().tuple_count
    intro_cost = intro.result.stats().tuple_count
    assert narrow_cost < intro_cost  # pruning wins on single queries

    # All-points query: relevance must keep every cast's flow — including
    # the pathological hub, whose rider cast makes the hub machinery
    # relevant — so the "pruned" precise pass explodes exactly like the
    # full analysis, while IntroB terminates on the whole program.
    assert broad.kept_fraction > 10 * narrow.kept_fraction
    assert broad.timed_out

    print()
    print(f"narrow query : {narrow.summary()}, {narrow_cost} tuples")
    print(f"all-points   : {broad.summary()}")
    print(
        f"introspectiveB: {intro_cost} tuples on the whole program "
        f"(full 2objH: TIMEOUT)"
    )
