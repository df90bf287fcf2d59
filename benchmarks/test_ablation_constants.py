"""Ablation: robustness of the heuristic constants.

The paper (Section 3): "The point of picking clear-cut reference numbers is
to argue that the value of the technique does not come from excessive
tuning ... even relatively large variations of these numbers make scarcely
any difference in the total picture of results."

We sweep each heuristic's constants by 2x in both directions around the
experiment defaults and check that the *scalability outcome* is invariant:
the introspective 2objH analysis keeps terminating on hsqldb (where the
full analysis cannot) at every setting, and keeps its precision ordering
relative to insens.
"""

import pytest

from repro.clients import measure_precision
from repro.harness import EXPERIMENT_BUDGET
from repro.introspection import HeuristicA, HeuristicB, run_introspective

A_SWEEP = [
    HeuristicA(K=20, L=20, M=5),
    HeuristicA(K=40, L=40, M=10),  # experiment defaults
    HeuristicA(K=80, L=80, M=20),
]
B_SWEEP = [
    HeuristicB(P=75, Q=125),
    HeuristicB(P=150, Q=250),  # experiment defaults
    HeuristicB(P=300, Q=500),
]


def run_sweep(cache):
    program, facts = cache.program("hsqldb")
    pass1 = cache.insens("hsqldb")
    outcomes = []
    for heuristic in A_SWEEP + B_SWEEP:
        outcomes.append(
            run_introspective(
                program,
                "2objH",
                heuristic,
                pack=cache.pack("hsqldb"),
                pass1=pass1,
                max_tuples=EXPERIMENT_BUDGET,
            )
        )
    return program, facts, pass1, outcomes


def test_constant_robustness(benchmark, cache):
    program, facts, pass1, outcomes = benchmark.pedantic(
        run_sweep, args=(cache,), rounds=1, iterations=1
    )
    insens_precision = measure_precision(pass1, facts)

    print()
    for heuristic, outcome in zip(A_SWEEP + B_SWEEP, outcomes):
        # Scalability is invariant across the sweep.
        assert not outcome.timed_out, heuristic.describe()
        precision = measure_precision(outcome.result, facts)
        # Precision never degrades below the insensitive baseline.
        assert precision.dominates(insens_precision), heuristic.describe()
        print(
            f"{heuristic.describe():32s} "
            f"{outcome.result.stats().tuple_count:>8d} tuples  "
            f"{precision.row()}"
        )

    # The knob still matters in the expected *direction*: the most
    # aggressive A setting excludes at least as much as the laxest.
    tight, _default, loose = outcomes[0], outcomes[1], outcomes[2]
    assert (
        len(tight.decision.excluded_sites)
        >= len(loose.decision.excluded_sites)
    )
