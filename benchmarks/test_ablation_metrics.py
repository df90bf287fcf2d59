"""Ablation: each Section 3 metric used *alone* as the exclusion criterion.

The paper composes its heuristics from six cost metrics but does not
evaluate them individually ("our emphasis is not on the sophistication of
the metrics").  This ablation fills that gap on two pathologies with
different shapes:

* **hsqldb / 2objH** — a receiver-driven hub explosion.  Method-volume
  (#2) and max var-field (#4) tame it alone; in-flow (#1) does not (the
  hot calls pass no heavy arguments), and no object-shaped metric (#5, #6,
  #3x#5) suffices alone — coarsening RECORD leaves the calling-context
  multiplication intact.
* **xalan / 2callH** — an argument-driven static-chain explosion.  Here
  in-flow (#1) and volume (#2) tame it, while max var-field (#4) misses
  (the payloads' fields are empty), and object metrics again fail.

Volume (#2) is the only single metric covering both shapes, but the paper's
*pairings* (A: #1+#4 for sites, #5 for objects; B: #2 for sites, #3x#5 for
objects) are what make the heuristics robust across pathology shapes —
this ablation is the evidence.
"""

import pytest

from repro.harness import EXPERIMENT_BUDGET
from repro.introspection import CustomHeuristic, run_introspective

SINGLE_METRIC_HEURISTICS = {
    "m1-inflow": CustomHeuristic(
        exclude_object=lambda h, m: False,
        exclude_site=lambda i, me, m: m.in_flow.get(i, 0) > 40,
        label="m1-inflow",
    ),
    "m2-volume": CustomHeuristic(
        exclude_object=lambda h, m: False,
        exclude_site=lambda i, me, m: m.total_pts_volume.get(me, 0) > 150,
        label="m2-volume",
    ),
    "m4-var-field": CustomHeuristic(
        exclude_object=lambda h, m: False,
        exclude_site=lambda i, me, m: m.max_var_field_pts.get(me, 0) > 10,
        label="m4-var-field",
    ),
    "m5-pointed-by-vars": CustomHeuristic(
        exclude_object=lambda h, m: m.pointed_by_vars.get(h, 0) > 40,
        exclude_site=lambda i, me, m: False,
        label="m5-pointed-by-vars",
    ),
    "m6-pointed-by-objs": CustomHeuristic(
        exclude_object=lambda h, m: m.pointed_by_objs.get(h, 0) > 40,
        exclude_site=lambda i, me, m: False,
        label="m6-pointed-by-objs",
    ),
    "m3x5-weight": CustomHeuristic(
        exclude_object=lambda h, m: m.object_weight(h) > 250,
        exclude_site=lambda i, me, m: False,
        label="m3x5-weight",
    ),
}

#: metric -> set of (benchmark, flavor) it tames alone.
EXPECTED_TAMES = {
    "m1-inflow": {("xalan", "2callH")},
    "m2-volume": {("hsqldb", "2objH"), ("xalan", "2callH")},
    "m4-var-field": {("hsqldb", "2objH")},
    "m5-pointed-by-vars": set(),
    "m6-pointed-by-objs": set(),
    "m3x5-weight": set(),
}

CASES = (("hsqldb", "2objH"), ("xalan", "2callH"))


def run_ablation(cache):
    outcomes = {}
    for bench, flavor in CASES:
        program, _facts = cache.program(bench)
        pass1 = cache.insens(bench)
        for name, heuristic in SINGLE_METRIC_HEURISTICS.items():
            outcomes[(name, bench, flavor)] = run_introspective(
                program,
                flavor,
                heuristic,
                pack=cache.pack(bench),
                pass1=pass1,
                max_tuples=EXPERIMENT_BUDGET,
            )
    return outcomes


def test_single_metric_ablation(benchmark, cache):
    outcomes = benchmark.pedantic(run_ablation, args=(cache,), rounds=1, iterations=1)

    print()
    for (name, bench, flavor), outcome in outcomes.items():
        tamed = not outcome.timed_out
        expected = (bench, flavor) in EXPECTED_TAMES[name]
        cost = (
            "TIMEOUT"
            if outcome.timed_out
            else f"{outcome.result.stats().tuple_count} tuples"
        )
        print(f"{bench}/{flavor:7s} {name:22s} {cost}")
        assert tamed == expected, (name, bench, flavor)

    # No object-shaped metric tames either pathology alone.
    for name in ("m5-pointed-by-vars", "m6-pointed-by-objs", "m3x5-weight"):
        assert EXPECTED_TAMES[name] == set()
    # Volume is the only universal single metric.
    assert EXPECTED_TAMES["m2-volume"] == set(CASES)
