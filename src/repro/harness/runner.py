"""Budgeted analysis runs: the one code path from a program to an outcome.

:func:`run_analysis` and :func:`run_introspective_analysis` turn
(program, analysis, heuristic, budget) into a :class:`RunOutcome`:
solve (or pass 1, cost metrics, heuristic and pass 2), then the precision
clients, all reading one :class:`~repro.analysis.PackedProgram` that
compiles the program straight from the IR, each method once, with no
string fact base.  Every analysis run goes through them:

* the figure drivers in :mod:`repro.harness.experiments`;
* the service's :func:`repro.service.workers.execute_job`, which folds the
  outcome into a job payload;
* ``repro analyze`` / ``repro bench NAME`` (``cli._run_and_report``);
* the end-to-end benchmark's ``paper-matrix`` workload (``bench/``).

The paper ran on a 24 GB machine with a 90-minute timeout; our stand-in is
a *tuple budget* (total derived tuples — the quantity that actually
explodes) plus a wall-clock guard; ``None`` means unlimited.  A trip, in
any pass, is an outcome and not an exception: ``timed_out`` is set and
``reason`` carries the :class:`~repro.analysis.solver.BudgetExceeded`
message ("TIMEOUT" bars in the figures).

``EXPERIMENT_BUDGET`` and the *scaled* heuristic constants used by every
figure experiment live here so the whole evaluation uses one consistent
configuration (see EXPERIMENTS.md for the scaling rationale: our synthetic
benchmarks are ~two orders of magnitude smaller than DaCapo-on-JDK, so the
paper's K=L=100, M=200, P=Q=10000 scale down proportionally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..analysis import (
    AnalysisResult,
    AnalysisStats,
    BudgetExceeded,
    PackedProgram,
    analyze,
)
from ..clients.precision import PrecisionReport, measure_precision
from ..contexts.policies import ContextPolicy

# Runs here read a packed program; the end-to-end benchmark
# (bench/workloads.py) times ``runner.encode_program`` as its
# ``facts.encode`` layer, so the name stays importable from this module.
from ..facts.encoder import encode_program  # noqa: F401
from ..introspection.driver import IntrospectiveOutcome, run_introspective
from ..introspection.heuristics import Heuristic, HeuristicA, HeuristicB
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from ..utils import Stopwatch

__all__ = [
    "EXPERIMENT_BUDGET",
    "EXPERIMENT_TIME_LIMIT",
    "RunOutcome",
    "run_analysis",
    "run_introspective_analysis",
    "scaled_heuristic_a",
    "scaled_heuristic_b",
]

#: Tuple budget standing in for the paper's 90-minute timeout.
EXPERIMENT_BUDGET = 150_000

#: Wall-clock guard (seconds) — generous; the tuple budget trips first.
EXPERIMENT_TIME_LIMIT = 120.0


def scaled_heuristic_a() -> HeuristicA:
    """Heuristic A with constants scaled to the synthetic benchmark sizes."""
    return HeuristicA(K=40, L=40, M=10)


def scaled_heuristic_b() -> HeuristicB:
    """Heuristic B with constants scaled to the synthetic benchmark sizes."""
    return HeuristicB(P=150, Q=250)


@dataclass
class RunOutcome:
    """One analysis run, timed and measured — or a recorded timeout.

    ``introspective`` is set once pass 1 finished, so it is also set on a
    pass-2 timeout; ``reason`` is the trip's message on any timeout.
    """

    benchmark: str
    analysis: str
    seconds: float
    timed_out: bool
    stats: Optional[AnalysisStats] = None
    precision: Optional[PrecisionReport] = None
    result: Optional[AnalysisResult] = None
    introspective: Optional[IntrospectiveOutcome] = None
    reason: Optional[str] = None

    @property
    def tuples(self) -> Optional[int]:
        return self.stats.tuple_count if self.stats else None

    def cell(self) -> str:
        """Short table-cell rendering."""
        if self.timed_out:
            return "TIMEOUT"
        return f"{self.seconds:.2f}s/{self.stats.tuple_count}t"


def _measured(
    benchmark: str,
    analysis: str,
    seconds: float,
    result: AnalysisResult,
    pack: PackedProgram,
    tracer: Tracer,
    introspective: Optional[IntrospectiveOutcome] = None,
) -> RunOutcome:
    """The outcome of a finished run, with its precision clients measured."""
    with tracer.span("clients.precision"):
        precision = measure_precision(result, pack)
    return RunOutcome(
        benchmark=benchmark,
        analysis=analysis,
        seconds=seconds,
        timed_out=False,
        stats=result.stats(),
        precision=precision,
        result=result,
        introspective=introspective,
    )


def run_analysis(
    program: Program,
    analysis: Union[str, ContextPolicy],
    pack: Optional[PackedProgram] = None,
    benchmark: str = "?",
    max_tuples: Optional[int] = EXPERIMENT_BUDGET,
    max_seconds: Optional[float] = EXPERIMENT_TIME_LIMIT,
    tracer: Tracer = NULL_TRACER,
) -> RunOutcome:
    """Run one plain analysis under the experiment budget, over ``pack``
    (a fresh packed program of ``program`` when not given)."""
    if pack is None:
        pack = PackedProgram(program)
    watch = Stopwatch()
    try:
        result = analyze(
            program,
            analysis,
            pack=pack,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
            tracer=tracer,
        )
    except BudgetExceeded as exc:
        return RunOutcome(
            benchmark=benchmark,
            analysis=analysis if isinstance(analysis, str) else analysis.name,
            seconds=watch.elapsed(),
            timed_out=True,
            reason=str(exc),
        )
    return _measured(
        benchmark, result.analysis_name, watch.elapsed(), result, pack, tracer
    )


def run_introspective_analysis(
    program: Program,
    analysis: str,
    heuristic: Heuristic,
    pack: Optional[PackedProgram] = None,
    pass1: Optional[AnalysisResult] = None,
    benchmark: str = "?",
    max_tuples: Optional[int] = EXPERIMENT_BUDGET,
    max_seconds: Optional[float] = EXPERIMENT_TIME_LIMIT,
    tracer: Tracer = NULL_TRACER,
) -> RunOutcome:
    """Run one introspective variant under the experiment budget.

    ``seconds`` is pass 2 only (the paper's convention, see
    :mod:`repro.introspection.driver`), or the time to a pass-1 trip.
    ``pack`` and ``pass1`` are as in
    :func:`~repro.introspection.driver.run_introspective`.
    """
    if pack is None:
        pack = PackedProgram(program)
    watch = Stopwatch()
    try:
        outcome = run_introspective(
            program,
            analysis,
            heuristic,
            pack=pack,
            pass1=pass1,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
            tracer=tracer,
        )
    except BudgetExceeded as exc:
        return RunOutcome(
            benchmark=benchmark,
            analysis=f"{analysis}-Intro{heuristic.name}",
            seconds=watch.elapsed(),
            timed_out=True,
            reason=str(exc),
        )
    if outcome.result is None:
        return RunOutcome(
            benchmark=benchmark,
            analysis=outcome.name,
            seconds=outcome.seconds,
            timed_out=True,
            introspective=outcome,
            reason=outcome.reason,
        )
    return _measured(
        benchmark,
        outcome.name,
        outcome.seconds,
        outcome.result,
        pack,
        tracer,
        introspective=outcome,
    )
