#!/usr/bin/env python
"""The paper's headline workflow: rescuing an analysis that will not scale.

We build the `hsqldb` DaCapo analog: a program with a large shared-container
hub that makes 2-object-sensitivity explode (the paper's Figure 1
bimodality), then apply introspective context-sensitivity:

1. run the context-insensitive analysis (always cheap);
2. compute the Section 3 cost metrics over its result;
3. exclude the program elements the heuristic flags (a small minority);
4. re-run with the dual context policy.

Both paper heuristics are shown — A "dials in" scalability aggressively, B
preserves nearly all precision — together with what each costs in the three
precision metrics.

Run:  python examples/introspective_tuning.py
"""

from repro import BudgetExceeded, PackedProgram, analyze
from repro.benchgen import build_benchmark
from repro.clients import measure_precision
from repro.harness import (
    EXPERIMENT_BUDGET,
    scaled_heuristic_a,
    scaled_heuristic_b,
)
from repro.introspection import run_introspective

BENCHMARK = "hsqldb"


def main() -> None:
    program = build_benchmark(BENCHMARK)
    pack = PackedProgram(program)
    print(f"benchmark {BENCHMARK}: {program.summary()}")
    print(f"tuple budget (the 90-minute-timeout analog): {EXPERIMENT_BUDGET}\n")

    insens = analyze(program, "insens", pack=pack, max_tuples=EXPERIMENT_BUDGET)
    print(f"insens        : {insens.stats().tuple_count:>8} tuples  "
          f"{measure_precision(insens, pack).row()}")

    try:
        full = analyze(program, "2objH", pack=pack, max_tuples=EXPERIMENT_BUDGET)
        print(f"2objH         : {full.stats().tuple_count:>8} tuples")
    except BudgetExceeded as exc:
        print(f"2objH         : TIMEOUT ({exc})")

    for heuristic in (scaled_heuristic_a(), scaled_heuristic_b()):
        outcome = run_introspective(
            program,
            "2objH",
            heuristic,
            pack=pack,
            pass1=insens,
            max_tuples=EXPERIMENT_BUDGET,
        )
        stats = outcome.refinement_stats
        print(f"\n{outcome.name} — {heuristic.describe()}")
        print(
            f"  not refined: {stats.excluded_call_sites}/{stats.total_call_sites} "
            f"call sites ({stats.call_site_percent:.1f}%), "
            f"{stats.excluded_objects}/{stats.total_objects} objects "
            f"({stats.object_percent:.1f}%)"
        )
        if outcome.timed_out:
            print("  second pass: TIMEOUT")
        else:
            result = outcome.result
            print(f"  second pass: {result.stats().tuple_count:>8} tuples")
            print(f"  precision  : {measure_precision(result, pack).row()}")

    print(
        "\nHeuristic A buys across-the-board scalability; Heuristic B keeps\n"
        "most of the full analysis's precision while still terminating —\n"
        "the paper's 'knob' between scalability and precision."
    )


if __name__ == "__main__":
    main()
