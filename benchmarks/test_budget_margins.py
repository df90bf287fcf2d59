"""The paper's shapes on both sides of the budget.

The Figure 5-7 matrix (six hard analogs; insens, and 2objH/2typeH/2callH
each full, IntroA and IntroB) is exact at one tuple budget,
``EXPERIMENT_BUDGET``.  Nine of its 60 cells trip that budget: they are
the reproduction's "did not terminate" runs, the analog of the paper's
90-minute / 24 GB timeouts.  Here they do terminate.  Run under a cap of
20 times the budget, each finishes in seconds, so "did not terminate"
means "needs more than the budget", not "diverges".

This module pins how far both sides sit from the budget:

* every tripped cell finishes under the cap, above 1.5 times the budget,
  at exactly the tuple count pinned below;
* every other cell finishes at the budget, under a third of it.

So the matrix's trip/finish pattern holds for any budget between the
largest finishing cell and the smallest tripped one, not just at the one
budget the figures use.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import pytest

from repro.benchgen import HARD_BENCHMARKS, build_benchmark
from repro.facts.encoder import encode_program
from repro.harness import EXPERIMENT_BUDGET
from repro.harness.runner import (
    RunOutcome,
    run_analysis,
    run_introspective_analysis,
    scaled_heuristic_a,
    scaled_heuristic_b,
)

Cell = Tuple[str, str, Optional[str]]

#: The cells that trip the budget, with their tuple count when they
#: finish under :data:`CAP`.
TRIPPED: Dict[Cell, int] = {
    ("jython", "2callH", None): 2_720_892,
    ("hsqldb", "2callH", None): 1_095_696,
    ("jython", "2objH", None): 795_740,
    ("jython", "2callH", "B"): 647_160,
    ("xalan", "2callH", None): 614_536,
    ("jython", "2typeH", None): 575_390,
    ("hsqldb", "2objH", None): 520_500,
    ("bloat", "2callH", None): 441_502,
    ("jython", "2objH", "B"): 263_166,
}

CAP = 20 * EXPERIMENT_BUDGET


def _cells():
    for bench in HARD_BENCHMARKS:
        yield bench, "insens", None
        for analysis in ("2objH", "2typeH", "2callH"):
            for variant in ("A", "B", None):
                yield bench, analysis, variant


def _name(cell: Cell) -> str:
    bench, analysis, variant = cell
    return f"{bench}/{analysis}" + (f"-Intro{variant}" if variant else "")


def _run(cell: Cell, max_tuples: int) -> RunOutcome:
    bench, analysis, variant = cell
    program = build_benchmark(bench)
    facts = encode_program(program)
    if variant is None:
        return run_analysis(
            program, analysis, facts=facts, benchmark=bench,
            max_tuples=max_tuples,
        )
    heuristic = scaled_heuristic_a() if variant == "A" else scaled_heuristic_b()
    return run_introspective_analysis(
        program, analysis, heuristic, facts=facts, benchmark=bench,
        max_tuples=max_tuples,
    )


def _report(label: str, cell: Cell, outcome: RunOutcome, seconds: float) -> None:
    tuples = outcome.tuples
    share = f"{tuples / EXPERIMENT_BUDGET:.2f}x" if tuples else "-"
    print(f"{label} {_name(cell):<24} {tuples or 'TRIP':>10} {share:>7} {seconds:6.2f}s")


def test_tripped_cells_finish_above_one_and_a_half_budgets():
    assert len(TRIPPED) == 9
    print()
    for cell, want in TRIPPED.items():
        start = time.perf_counter()
        outcome = _run(cell, CAP)
        _report("tripped ", cell, outcome, time.perf_counter() - start)
        assert not outcome.timed_out, (_name(cell), outcome.reason)
        assert outcome.tuples == want, _name(cell)
        assert outcome.tuples > 1.5 * EXPERIMENT_BUDGET, _name(cell)


@pytest.mark.parametrize("bench", HARD_BENCHMARKS)
def test_finishing_cells_stay_under_a_third_of_the_budget(bench):
    cells = [cell for cell in _cells() if cell[0] == bench]
    assert len(cells) == 10
    print()
    for cell in cells:
        if cell in TRIPPED:
            continue
        start = time.perf_counter()
        outcome = _run(cell, EXPERIMENT_BUDGET)
        _report("finishes", cell, outcome, time.perf_counter() - start)
        assert not outcome.timed_out, (_name(cell), outcome.reason)
        assert outcome.tuples < EXPERIMENT_BUDGET / 3, _name(cell)
