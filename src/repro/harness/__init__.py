"""Experiment harness: budgeted runs and per-figure reproduction drivers."""

from .experiments import (
    Figure1Result,
    Figure4Result,
    FlavorFigureResult,
    figure1,
    figure4,
    figure5,
    figure6,
    figure7,
    main,
)
from .reporting import render_bars, render_markdown_table, render_table
from .service_runner import (
    outcome_from_payload,
    run_matrix_via_service,
    run_via_service,
)
from .runner import (
    EXPERIMENT_BUDGET,
    EXPERIMENT_TIME_LIMIT,
    RunOutcome,
    run_analysis,
    run_introspective_analysis,
    scaled_heuristic_a,
    scaled_heuristic_b,
)

__all__ = [
    "EXPERIMENT_BUDGET",
    "EXPERIMENT_TIME_LIMIT",
    "Figure1Result",
    "Figure4Result",
    "FlavorFigureResult",
    "RunOutcome",
    "figure1",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "main",
    "outcome_from_payload",
    "render_bars",
    "render_markdown_table",
    "render_table",
    "run_analysis",
    "run_introspective_analysis",
    "run_matrix_via_service",
    "run_via_service",
    "scaled_heuristic_a",
    "scaled_heuristic_b",
]
