"""The points-to analysis engines.

High-level entry point::

    from repro.analysis import analyze
    result = analyze(program, "2objH")
    result.points_to("Main.main/0/x")

``analyze`` accepts an analysis name (see
:data:`repro.contexts.ANALYSIS_NAMES`) or a ready
:class:`~repro.contexts.policies.ContextPolicy` instance.
"""

from __future__ import annotations

from typing import Optional, Union

from ..contexts.policies import ContextPolicy, policy_by_name
from ..facts.encoder import FactBase
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from .pack import PackedProgram
from .results import AnalysisResult, AnalysisStats, PackedProjections
from .stats import CostReport, explain_costs
from .solver import BudgetExceeded, PointsToSolver, RawSolution, solve

__all__ = [
    "AnalysisResult",
    "AnalysisStats",
    "PackedProjections",
    "CostReport",
    "explain_costs",
    "BudgetExceeded",
    "PackedProgram",
    "PointsToSolver",
    "RawSolution",
    "analyze",
    "solve",
]


def analyze(
    program: Program,
    analysis: Union[str, ContextPolicy],
    facts: Optional[FactBase] = None,
    max_tuples: Optional[int] = None,
    max_seconds: Optional[float] = None,
    tracer: Tracer = NULL_TRACER,
    pack: Optional[PackedProgram] = None,
) -> AnalysisResult:
    """Run one points-to analysis over ``program`` and wrap the result.

    The solver reads ``facts`` when given (a slice's rows, say), else
    ``pack``, the run's :class:`PackedProgram` (a fresh one when none is
    given).  Raises :class:`BudgetExceeded` when a budget is given and
    exhausted.  Tracing must never change the computed result (the
    ``trace-transparency`` fuzz oracle enforces this).
    """
    if facts is None and pack is None:
        pack = PackedProgram(program)
    if isinstance(analysis, str):
        source = facts if facts is not None else pack
        policy = policy_by_name(analysis, alloc_class_of=source.alloc_class_of)
    else:
        policy = analysis
    with tracer.span("analysis.solve", analysis=policy.name):
        raw = solve(
            program,
            policy,
            facts=facts,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
            tracer=tracer,
            pack=pack,
        )
        tracer.annotate(tuples=raw.tuple_count)
    return AnalysisResult(raw, policy.name)
