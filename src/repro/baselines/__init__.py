"""Baseline techniques the paper compares against (Section 5).

Demand-driven ``pts(v)`` queries, the other Section 5 comparison, are
answered by :class:`repro.query.QueryEngine`.
"""

from .pruning import (
    PruningOutcome,
    build_pruned_program,
    keep_set,
    prune_and_analyze,
    relevant_variables,
)

__all__ = [
    "PruningOutcome",
    "build_pruned_program",
    "keep_set",
    "prune_and_analyze",
    "relevant_variables",
]
