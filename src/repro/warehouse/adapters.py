"""Receipt producers and the warehouse loader.

The ``receipt_from_*`` builders are the producer-side glue for results
that are not bench runs (the bench harness returns receipts itself):
they stamp ``created_at`` and a fresh host provenance (including the
current git rev) — "this run, here, now".  :func:`ingest` loads
receipts from files and directories for ``repro report``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from .receipt import load_receipt, make_receipt

__all__ = [
    "ingest",
    "receipt_from_fuzz_campaign",
    "receipt_from_service_job",
]


def _load(path: str) -> Dict[str, Any]:
    try:
        return load_receipt(path)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def ingest(
    inputs: List[str],
) -> Tuple[List[Tuple[str, Dict[str, Any]]], List[str]]:
    """Load receipts from files and directories.

    Explicitly named files must be valid receipts (``ValueError``
    otherwise, prefixed with the path); inside a directory, ``*.json``
    files that are not receipts are skipped and reported in the second
    return value — a warehouse directory may sit next to unrelated
    artifacts.

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
                    receipts.append((str(child), _load(str(child))))
                except ValueError:  # includes malformed JSON
                    skipped.append(str(child))
        elif path.is_file():
            receipts.append((str(path), _load(str(path))))
        else:
            raise ValueError(f"no such receipt file or directory: {raw}")
    return receipts, skipped


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
