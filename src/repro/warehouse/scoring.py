"""Binning and scoring: receipts in, a gated trajectory out.

Every receipt decomposes into **cells** — the atomic comparable unit of
the perf trajectory, keyed by ``(kind, suite, benchmark, flavor,
variant)``:

* ``bench-solver`` / ``bench-datalog`` payloads contribute one cell per
  ``speedups`` entry (variant = the live engine, ``packed`` or
  ``compiled``), plus a ``traced`` cell when the report carries the
  trace-overhead twin (value = untraced/traced CPU ratio, so the old
  "<5% overhead" gate becomes an ordinary regression cell);
* ``bench-incremental`` cells use the edit kind as the variant;
* ``bench-demand`` cells carry per-query-vs-full-solve speedups with the
  query mode as the variant (``query`` answers one variable at a time,
  ``batch`` shares one union-solve);
* ``fuzz-campaign`` receipts contribute a throughput cell
  (programs/second, per seed);
* ``service-job`` receipts contribute a solver-throughput cell for
  uncached completed jobs.

All cell values share one orientation — **higher is better** — so a
regression is always a value drop and one threshold gates every kind.
Speedup-like cells (dimensionless ratios measured against a frozen
in-process baseline) are robust across hosts; throughput cells
(``per_second``) are host-relative and scored but reported separately.

Scoring orders each cell's samples by ``created_at`` (legacy adapted
receipts, which have none, sort first — they are the historical floor),
takes the earliest as the baseline (or the sample from an explicitly
chosen baseline receipt) and the latest as current, and computes
``delta_percent``.  The gate fails a cell when its regression reaches
``max_regression_percent``: a cell at exactly the threshold fails, one
epsilon under passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .receipt import receipt_digest

__all__ = [
    "Cell",
    "Sample",
    "cells_of",
    "gate_failures",
    "geomeans",
    "score",
]

#: Cell key: (kind, suite, benchmark, flavor, variant).
CellKey = Tuple[str, str, str, str, str]


@dataclass
class Sample:
    """One measured value of one cell, from one receipt."""

    value: float
    unit: str  # "speedup" (dimensionless ratio) or "per_second"
    digest: str  # full receipt digest
    path: str
    created_at: Optional[float]
    git_rev: Optional[str]
    order: int = 0  # ingestion tie-break

    @property
    def sort_key(self) -> Tuple[int, float, int]:
        if self.created_at is None:
            return (0, 0.0, self.order)
        return (1, float(self.created_at), self.order)


@dataclass
class Cell:
    """A cell's full trajectory plus its baseline-vs-current score."""

    kind: str
    suite: str
    benchmark: str
    flavor: str
    variant: str
    unit: str
    samples: List[Sample] = field(default_factory=list)
    baseline: Optional[Sample] = None
    current: Optional[Sample] = None
    delta_percent: Optional[float] = None

    @property
    def key(self) -> CellKey:
        return (self.kind, self.suite, self.benchmark, self.flavor, self.variant)

    @property
    def name(self) -> str:
        return (
            f"{self.kind}:{self.suite}:"
            f"{self.benchmark}/{self.flavor}/{self.variant}"
        )

    @property
    def regression_percent(self) -> float:
        if self.delta_percent is None:
            return 0.0
        return max(0.0, -self.delta_percent)


def cells_of(receipt: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Raw cell samples of one receipt: dicts of key fields + value/unit."""
    kind = receipt["kind"]
    identity = receipt["identity"]
    payload = receipt["payload"]
    out: List[Dict[str, Any]] = []

    def cell(
        suite: str,
        benchmark: str,
        flavor: str,
        variant: str,
        value: float,
        unit: str = "speedup",
    ) -> None:
        out.append(
            {
                "suite": suite,
                "benchmark": benchmark,
                "flavor": flavor,
                "variant": variant,
                "value": float(value),
                "unit": unit,
            }
        )

    if kind in ("bench-solver", "bench-datalog"):
        suite = str(identity.get("suite"))
        engines = payload.get("engines") or []
        live = str(engines[-1]) if engines else "live"
        for name, value in (payload.get("speedups") or {}).items():
            parts = name.split("/")
            if len(parts) == 2:
                bench, flavor = parts
                cell(suite, bench, flavor, live, value)
        trace = payload.get("trace")
        if trace and trace.get("traced_cpu_seconds"):
            ratio = trace["untraced_cpu_seconds"] / trace["traced_cpu_seconds"]
            cell(
                suite,
                str(trace.get("benchmark")),
                str(trace.get("flavor")),
                "traced",
                ratio,
            )
    elif kind in ("bench-incremental", "bench-demand"):
        # incremental: variant is the edit kind; demand: variant is the
        # query mode ("query" per-variable, "batch" shared union-solve).
        suite = str(identity.get("suite"))
        for name, value in (payload.get("speedups") or {}).items():
            parts = name.split("/")
            if len(parts) == 3:
                bench, flavor, variant = parts
                cell(suite, bench, flavor, variant, value)
    elif kind == "fuzz-campaign":
        stats = payload.get("stats") or {}
        seconds = stats.get("seconds") or 0.0
        programs = stats.get("programs") or 0
        if seconds > 0 and programs:
            cell(
                "campaign",
                "campaign",
                ",".join(identity.get("flavors") or []),
                f"seed={identity.get('seed')}",
                programs / seconds,
                unit="per_second",
            )
    elif kind == "service-job":
        stats = payload.get("stats") or {}
        seconds = stats.get("seconds") or 0.0
        tuples = stats.get("tuple_count") or 0
        if seconds > 0 and tuples and not payload.get("cached"):
            benchmark = identity.get("benchmark") or (
                f"source:{identity.get('source')}"
            )
            variant = (
                f"introspective-{identity['introspective']}"
                if identity.get("introspective")
                else "direct"
            )
            cell(
                "service",
                str(benchmark),
                str(identity.get("analysis")),
                variant,
                tuples / seconds,
                unit="per_second",
            )
    return out


def score(
    receipts: List[Tuple[str, Dict[str, Any]]],
    baseline_digest: Optional[str] = None,
) -> List[Cell]:
    """Bin every receipt's cells and score baseline-vs-current deltas.

    ``receipts`` is ``(path, receipt)`` in ingestion order;
    ``baseline_digest`` (full digest or any unique prefix) pins the
    baseline sample of every cell that receipt covers — other cells fall
    back to their earliest sample.
    """
    cells: Dict[CellKey, Cell] = {}
    for order, (path, receipt) in enumerate(receipts):
        digest = receipt_digest(receipt)
        created = receipt.get("created_at")
        git_rev = (receipt.get("provenance") or {}).get("git_rev")
        for raw in cells_of(receipt):
            key: CellKey = (
                receipt["kind"],
                raw["suite"],
                raw["benchmark"],
                raw["flavor"],
                raw["variant"],
            )
            cell = cells.get(key)
            if cell is None:
                cell = cells[key] = Cell(
                    kind=receipt["kind"],
                    suite=raw["suite"],
                    benchmark=raw["benchmark"],
                    flavor=raw["flavor"],
                    variant=raw["variant"],
                    unit=raw["unit"],
                )
            cell.samples.append(
                Sample(
                    value=raw["value"],
                    unit=raw["unit"],
                    digest=digest,
                    path=path,
                    created_at=created,
                    git_rev=git_rev,
                    order=order,
                )
            )
    scored = sorted(cells.values(), key=lambda c: c.key)
    for cell in scored:
        cell.samples.sort(key=lambda s: s.sort_key)
        cell.baseline = cell.samples[0]
        if baseline_digest:
            for sample in cell.samples:
                if sample.digest.startswith(baseline_digest):
                    cell.baseline = sample
                    break
        cell.current = cell.samples[-1]
        if cell.baseline.value > 0:
            cell.delta_percent = (
                cell.current.value / cell.baseline.value - 1.0
            ) * 100.0
    return scored


def geomeans(cells: List[Cell]) -> Dict[str, float]:
    """Geomean of current values per ``kind/suite/variant`` group.

    Only dimensionless ``speedup`` cells participate — averaging
    host-relative throughputs across hosts would manufacture a number
    with no referent.
    """
    groups: Dict[str, List[float]] = {}
    for cell in cells:
        if cell.unit != "speedup" or cell.current is None:
            continue
        if cell.current.value <= 0:
            continue
        groups.setdefault(
            f"{cell.kind}/{cell.suite}/{cell.variant}", []
        ).append(cell.current.value)
    return {
        name: round(math.exp(sum(map(math.log, vals)) / len(vals)), 3)
        for name, vals in sorted(groups.items())
    }


def gate_failures(cells: List[Cell], max_regression: float) -> List[Cell]:
    """Cells whose regression reaches the threshold (>= fails).

    Only cells with a genuine trajectory — baseline and current from
    different receipts — can fail: a cell seen once has nothing to
    regress against.  And only cells that actually moved down can fail:
    at the degenerate threshold 0 the gate means "any strict regression
    fails", not "everything fails".
    """
    failures = []
    for cell in cells:
        if cell.baseline is None or cell.current is None:
            continue
        if cell.baseline is cell.current:
            continue
        if cell.delta_percent is None or cell.delta_percent >= 0:
            continue
        if cell.regression_percent >= max_regression:
            failures.append(cell)
    return failures
