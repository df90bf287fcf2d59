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
from ..facts.encoder import FactBase, encode_program
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from .results import AnalysisResult, AnalysisStats
from .stats import CostReport, explain_costs
from .solver import BudgetExceeded, PointsToSolver, RawSolution, solve

__all__ = [
    "AnalysisResult",
    "AnalysisStats",
    "CostReport",
    "explain_costs",
    "BudgetExceeded",
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
) -> AnalysisResult:
    """Run one points-to analysis over ``program`` and wrap the result.

    Raises :class:`BudgetExceeded` when a budget is given and exhausted.
    Tracing must never change the computed result (the
    ``trace-transparency`` fuzz oracle enforces this).
    """
    if facts is None:
        facts = encode_program(program, tracer=tracer)
    if isinstance(analysis, str):
        policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
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
        )
        tracer.annotate(tuples=raw.tuple_count)
    return AnalysisResult(raw, policy.name)
