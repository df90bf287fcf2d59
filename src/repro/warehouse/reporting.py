"""Rendering the scored trajectory: a text table and a JSON artifact.

The JSON artifact (``repro-report/1``) is what CI uploads and what the
next invocation of ``repro report`` could diff against — the queryable
form of the performance trajectory.  The table is for humans reading the
same data in a terminal or a CI log.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from .receipt import receipt_digest
from .scoring import Cell, gate_failures, geomeans

__all__ = ["REPORT_SCHEMA", "render_table", "trajectory"]

REPORT_SCHEMA = "repro-report/1"


def _sample_json(sample) -> Dict[str, Any]:
    return {
        "value": round(sample.value, 6),
        "receipt": sample.digest[:12],
        "path": sample.path,
        "created_at": sample.created_at,
        "git_rev": sample.git_rev,
    }


def trajectory(
    receipts: List[Tuple[str, Dict[str, Any]]],
    cells: List[Cell],
    skipped: List[str],
    baseline_digest: Optional[str] = None,
    max_regression: Optional[float] = None,
) -> Dict[str, Any]:
    """The full scored trajectory as one JSON-able document."""
    failures = (
        gate_failures(cells, max_regression)
        if max_regression is not None
        else []
    )
    doc: Dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "inputs": [
            {
                "path": path,
                "receipt": receipt_digest(receipt)[:12],
                "kind": receipt["kind"],
                "created_at": receipt.get("created_at"),
                "git_rev": (receipt.get("provenance") or {}).get("git_rev"),
            }
            for path, receipt in receipts
        ],
        "skipped": list(skipped),
        "baseline": baseline_digest,
        "cells": [
            {
                "kind": cell.kind,
                "suite": cell.suite,
                "benchmark": cell.benchmark,
                "flavor": cell.flavor,
                "variant": cell.variant,
                "unit": cell.unit,
                "samples": [_sample_json(s) for s in cell.samples],
                "baseline": _sample_json(cell.baseline),
                "current": _sample_json(cell.current),
                "delta_percent": None
                if cell.delta_percent is None
                else round(cell.delta_percent, 3),
                "regression_percent": round(cell.regression_percent, 3),
            }
            for cell in cells
        ],
        "geomeans": geomeans(cells),
    }
    if max_regression is not None:
        doc["gate"] = {
            "max_regression_percent": max_regression,
            "passed": not failures,
            "failures": [cell.name for cell in failures],
        }
    return doc


def render_table(
    cells: List[Cell], max_regression: Optional[float] = None
) -> str:
    """Human-readable trajectory table (one line per cell)."""
    lines: List[str] = []
    header = (
        f"{'cell':58s} {'unit':10s} {'base':>9s} {'now':>9s} "
        f"{'delta%':>8s} {'n':>3s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    failing = (
        {id(c) for c in gate_failures(cells, max_regression)}
        if max_regression is not None
        else set()
    )
    for cell in cells:
        delta = (
            f"{cell.delta_percent:+8.2f}"
            if cell.delta_percent is not None
            else "     n/a"
        )
        mark = "  << REGRESSION" if id(cell) in failing else ""
        lines.append(
            f"{cell.name:58s} {cell.unit:10s} "
            f"{cell.baseline.value:9.3f} {cell.current.value:9.3f} "
            f"{delta} {len(cell.samples):3d}{mark}"
        )
    for name, value in geomeans(cells).items():
        lines.append(f"geomean {name}: {value}x")
    return "\n".join(lines)
