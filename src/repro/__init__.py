"""repro — introspective context-sensitive points-to analysis.

A from-scratch Python reproduction of *Introspective Analysis:
Context-Sensitivity, Across the Board* (Smaragdakis, Kastrinis &
Balatsouras, PLDI 2014): a Doop-style points-to analysis framework with
pluggable context-sensitivity and the paper's two-pass introspective
refinement.

Quickstart::

    from repro import ProgramBuilder, analyze

    b = ProgramBuilder()
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("x", "java.lang.Object")
    program = b.build(entry="Main.main/0")
    result = analyze(program, "insens")
    print(result.points_to("Main.main/0/x"))

See ``repro.introspection.run_introspective`` for the paper's contribution
and ``repro.harness.experiments`` for the figure reproductions.
"""

from .analysis import (
    AnalysisResult,
    AnalysisStats,
    BudgetExceeded,
    PackedProgram,
    analyze,
)
from .contexts import (
    ANALYSIS_NAMES,
    ContextPolicy,
    IntrospectivePolicy,
    RefinementDecision,
    policy_by_name,
)
from .facts import FactBase, encode_program
from .ir import Program, ProgramBuilder, dump_program

__version__ = "1.0.0"

__all__ = [
    "ANALYSIS_NAMES",
    "AnalysisResult",
    "AnalysisStats",
    "BudgetExceeded",
    "ContextPolicy",
    "FactBase",
    "IntrospectivePolicy",
    "PackedProgram",
    "Program",
    "ProgramBuilder",
    "RefinementDecision",
    "analyze",
    "dump_program",
    "encode_program",
    "policy_by_name",
    "__version__",
]
