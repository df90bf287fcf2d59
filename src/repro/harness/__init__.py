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
    "render_bars",
    "render_markdown_table",
    "render_table",
    "run_analysis",
    "run_introspective_analysis",
    "scaled_heuristic_a",
    "scaled_heuristic_b",
]
