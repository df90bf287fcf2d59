#!/usr/bin/env python
"""Composing a custom introspection heuristic from the Section 3 metrics.

The paper emphasizes that its metrics are "simple and easy to compose so
that one can create parameterizable analyses".  This example builds one
from scratch — excluding objects by the paper's sixth metric
(pointed-by-objs, which Heuristics A and B never use) combined with a
per-method volume cap — and compares it against the two reference
heuristics on a pathological program.

Run:  python examples/custom_heuristic.py
"""

from repro import BudgetExceeded, PackedProgram, analyze
from repro.benchgen import BenchmarkSpec, HubSpec, generate
from repro.clients import measure_precision
from repro.harness import scaled_heuristic_a, scaled_heuristic_b
from repro.introspection import CustomHeuristic, run_introspective

BUDGET = 12_000


def build_program():
    spec = BenchmarkSpec(
        name="custom-demo",
        util_classes=10,
        strategy_clusters=(4, 8),
        box_groups=(5, 10),
        sink_groups=(3, 6),
        hubs=(HubSpec(readers=40, elements=40, chain=8),),
    )
    return generate(spec)


def main() -> None:
    program = build_program()
    pack = PackedProgram(program)
    insens = analyze(program, "insens", pack=pack, max_tuples=BUDGET)

    my_heuristic = CustomHeuristic(
        # metric #3 x #5 product (Heuristic B's object score) with a much
        # lower threshold: coarsen every moderately heavy object
        exclude_object=lambda heap, m: m.object_weight(heap) > 100,
        # metric #2 (max-var variant): methods with one enormous points-to
        # set are context-multiplication bombs
        exclude_site=lambda invo, meth, m: m.max_var_pts.get(meth, 0) > 30,
        label="weight+max-var",
    )

    print(f"program: {program.summary()}")
    print(f"insens: {insens.stats().tuple_count} tuples")
    try:
        full = analyze(program, "2objH", pack=pack, max_tuples=BUDGET)
        print(f"full 2objH: {full.stats().tuple_count} tuples\n")
    except BudgetExceeded as exc:
        print(f"full 2objH: TIMEOUT ({exc})\n")
    header = f"{'heuristic':28s} {'tuples':>9s} {'excl sites':>10s} {'excl objs':>9s}  precision"
    print(header)
    print("-" * len(header))
    for heuristic in (scaled_heuristic_a(), scaled_heuristic_b(), my_heuristic):
        outcome = run_introspective(
            program, "2objH", heuristic, pack=pack, pass1=insens, max_tuples=BUDGET
        )
        stats = outcome.refinement_stats
        tuples = (
            "TIMEOUT"
            if outcome.timed_out
            else f"{outcome.result.stats().tuple_count}"
        )
        precision = (
            "-"
            if outcome.timed_out
            else measure_precision(outcome.result, pack).row()
        )
        print(
            f"{heuristic.describe():28s} {tuples:>9s} "
            f"{stats.excluded_call_sites:>10d} {stats.excluded_objects:>9d}  "
            f"{precision}"
        )


if __name__ == "__main__":
    main()
