"""Schema adapters: every results artifact becomes a receipt.

The warehouse ingests two generations of evidence:

* native receipts (``repro-receipt/1``) written by the producers since
  the warehouse existed, and
* the three committed legacy artifacts — ``BENCH_solver.json``
  (``repro-bench-solver/1``), ``BENCH_datalog.json``
  (``repro-bench-datalog/1``) and ``BENCH_incremental.json``
  (``repro-bench-incremental/1``) — which predate it.  ``BENCH_demand.json``
  (``repro-bench-demand/1``) adapts through the same path.

:func:`adapt` dispatches on the ``schema`` field and wraps a legacy
report into a receipt without touching the report itself: the payload is
the report verbatim, the provenance block is lifted from the report's
own host keys (``git_rev`` and ``created_at`` stay ``null`` — legacy
artifacts recorded neither), and the identity is the report's
suite/flavor/engine header.  Adaptation is deterministic, so the same
artifact always maps to the same content address.

The ``receipt_from_*`` builders are the producer-side glue: they stamp
``created_at`` and a fresh host provenance (including the current git
rev), which is what distinguishes "this run, here, now" from an adapted
historical artifact.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .receipt import (
    RECEIPT_SCHEMA,
    host_provenance,
    make_receipt,
    validate_receipt,
)

__all__ = [
    "BENCH_SCHEMA_KINDS",
    "adapt",
    "ingest",
    "load_any",
    "receipt_from_bench_report",
    "receipt_from_fuzz_campaign",
    "receipt_from_service_job",
]

#: Legacy bench schema -> receipt kind.
BENCH_SCHEMA_KINDS: Dict[str, str] = {
    "repro-bench-solver/1": "bench-solver",
    "repro-bench-datalog/1": "bench-datalog",
    "repro-bench-incremental/1": "bench-incremental",
    "repro-bench-demand/1": "bench-demand",
}

#: Host keys a legacy report carries (harness.bench._provenance).
_REPORT_HOST_KEYS = ("python", "platform", "cpu_count", "gc_enabled")


def _bench_identity(report: Dict[str, Any]) -> Dict[str, Any]:
    """The suite/flavor/engine header of any ``BENCH_*.json`` report."""
    identity: Dict[str, Any] = {
        "suite": report.get("suite"),
        "flavors": report.get("flavors"),
        "engines": report.get("engines"),
        "workers": report.get("workers", 1),
    }
    if "edit_kinds" in report:
        identity["edit_kinds"] = report["edit_kinds"]
    return identity


def adapt(data: Dict[str, Any]) -> Dict[str, Any]:
    """Turn any known results artifact into a validated receipt.

    Native receipts pass through untouched; legacy bench reports are
    wrapped.  Raises ``ValueError`` for unknown schemas or malformed
    artifacts.
    """
    if not isinstance(data, dict):
        raise ValueError("artifact must be a JSON object")
    schema = data.get("schema")
    if schema == RECEIPT_SCHEMA:
        validate_receipt(data)
        return data
    kind = BENCH_SCHEMA_KINDS.get(schema)
    if kind is None:
        raise ValueError(
            f"unknown artifact schema {schema!r}; expected {RECEIPT_SCHEMA!r} "
            f"or one of: {', '.join(sorted(BENCH_SCHEMA_KINDS))}"
        )
    provenance = {key: data.get(key) for key in _REPORT_HOST_KEYS}
    provenance["git_rev"] = None
    return make_receipt(
        kind,
        identity=_bench_identity(data),
        payload=data,
        created_at=None,
        provenance=provenance,
    )


def load_any(path: str) -> Dict[str, Any]:
    """Load one file (receipt or legacy report) as a receipt."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        return adapt(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ingest(
    inputs: List[str],
) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
    """Load receipts from files and directories.

    Explicitly named files must adapt cleanly (``ValueError`` otherwise);
    inside a directory, ``*.json`` files with unrecognized schemas are
    skipped and reported in the second return value — a warehouse
    directory may sit next to unrelated artifacts.

    Returns ``(ordered (path, receipt) pairs, skipped paths)``.
    """
    receipts: List[Tuple[str, Dict[str, Any]]] = []
    skipped: List[str] = []
    for raw in inputs:
        path = Path(raw)
        if path.is_dir():
            # Sort by bare filename: Path ordering compares whole paths,
            # whose prefix can differ across filesystems/mounts for the
            # "same" store — filename order keeps table and trajectory
            # output byte-deterministic (ingestion order is the scorer's
            # tie-break for equal timestamps).
            for child in sorted(path.glob("*.json"), key=lambda p: p.name):
                try:
                    receipts.append((str(child), load_any(str(child))))
                except (ValueError, json.JSONDecodeError):
                    skipped.append(str(child))
        elif path.is_file():
            receipts.append((str(path), load_any(str(path))))
        else:
            raise ValueError(f"no such receipt file or directory: {raw}")
    return receipts, skipped


def receipt_from_bench_report(
    report: Dict[str, Any],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for a bench report produced *by this run* (fresh provenance).

    Unlike :func:`adapt`, this stamps ``created_at`` (now, unless given)
    and the current host/git provenance — the report's own host keys stay
    inside the payload, so nothing is lost if the two ever diverge.
    """
    kind = BENCH_SCHEMA_KINDS.get(report.get("schema"))
    if kind is None:
        raise ValueError(f"not a bench report: schema {report.get('schema')!r}")
    return make_receipt(
        kind,
        identity=_bench_identity(report),
        payload=report,
        created_at=time.time() if created_at is None else created_at,
    )


def receipt_from_fuzz_campaign(
    seed: int,
    flavors: List[str],
    budget_seconds: float,
    stats: Dict[str, Any],
    violations: List[str],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for one completed fuzz campaign (``repro fuzz``)."""
    return make_receipt(
        "fuzz-campaign",
        identity={
            "seed": seed,
            "flavors": list(flavors),
            "budget_seconds": budget_seconds,
        },
        payload={"stats": stats, "violations": list(violations)},
        created_at=time.time() if created_at is None else created_at,
    )


def receipt_from_service_job(
    snapshot: Dict[str, Any],
    result: Dict[str, Any],
    created_at: Optional[float] = None,
) -> Dict[str, Any]:
    """Receipt for one terminal service job (queue + run provenance).

    ``snapshot`` is ``Job.snapshot()`` and ``result`` the worker payload;
    the receipt keeps the timing split and solver stats but drops the
    bulky optional sections (points-to sets, traces) — the warehouse
    stores evidence about *performance*, not full results.
    """
    spec = snapshot.get("spec") or {}
    stats = result.get("stats")
    payload: Dict[str, Any] = {
        "job_id": snapshot.get("id"),
        "state": snapshot.get("state"),
        "cached": snapshot.get("cached", False),
        "queue_seconds": snapshot.get("queue_seconds"),
        "run_seconds": snapshot.get("run_seconds"),
        "total_seconds": snapshot.get("total_seconds"),
        "solve_seconds": result.get("solve_seconds"),
        "stages": result.get("stages"),
        "stats": stats,
        "pass1_reused": result.get("pass1_reused", False),
        "facts_digest": result.get("facts_digest"),
    }
    # Cluster-executed jobs carry the executing node's provenance
    # (worker id/url/name — see docs/cluster.md); plain single-process
    # jobs have no such stamp and the field is omitted.
    worker = result.get("worker")
    if worker is not None:
        payload["worker"] = worker
    return make_receipt(
        "service-job",
        identity={
            "analysis": spec.get("analysis"),
            "benchmark": spec.get("benchmark"),
            "source": (result.get("facts_digest") or "")[:12]
            if spec.get("benchmark") is None
            else None,
            "introspective": spec.get("introspective"),
        },
        payload=payload,
        created_at=time.time() if created_at is None else created_at,
    )
