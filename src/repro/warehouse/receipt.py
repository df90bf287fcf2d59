"""The results warehouse's unit of evidence: the receipt.

A receipt (``repro-receipt/1``) is one run's worth of measured results —
a benchmark suite, a fuzz campaign, a completed service job — wrapped
with everything needed to interpret the numbers later:

* ``kind`` — which producer wrote it (one of :data:`KINDS`);
* ``created_at`` — unix seconds when the run finished (``null`` for
  the committed receipts converted from pre-warehouse bench reports,
  which carry no timestamp; the scorer orders them before any stamped
  receipt);
* ``provenance`` — the host block
  (``python``/``platform``/``cpu_count``/``gc_enabled``) plus
  ``git_rev``, the commit the producing tree was at (``null`` when the
  run happened outside a git checkout);
* ``identity`` — the suite/flavor/engine coordinates of the run, enough
  to bin its cells without parsing the payload;
* ``payload`` — the producer's full report (for bench kinds, the
  per-kind payload documented in ``docs/performance.md``).

Receipts are content-addressed exactly like the fuzz corpus
(:mod:`repro.fuzz.corpus`): the file name is
``<kind>-<sha256[:12]>.json`` over the canonical JSON encoding, so
re-writing the same results is idempotent and any field mutation yields
a new address.  Files are written atomically (temp + ``os.replace``) —
an interrupted run can never leave a truncated receipt in the store.

This module is deliberately stdlib-only and imports nothing from the
rest of :mod:`repro`, so every layer (harness, fuzz, service, CLI) can
append receipts without import cycles.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..utils import atomic_write_text

__all__ = [
    "KINDS",
    "RECEIPT_SCHEMA",
    "canonical_bytes",
    "dump_receipt",
    "git_revision",
    "host_provenance",
    "iter_receipts",
    "load_receipt",
    "make_receipt",
    "receipt_digest",
    "receipt_filename",
    "validate_receipt",
    "write_receipt",
]

RECEIPT_SCHEMA = "repro-receipt/1"

#: Every producer that appends to the warehouse, by receipt ``kind``.
KINDS = (
    "bench-solver",
    "bench-datalog",
    "bench-incremental",
    "bench-demand",
    "fuzz-campaign",
    "service-job",
)

#: Host keys required in every provenance block.
PROVENANCE_KEYS = ("python", "platform", "cpu_count", "gc_enabled", "git_rev")


def canonical_bytes(obj: Any) -> bytes:
    """Canonical JSON encoding: sorted keys, no whitespace, UTF-8.

    Two objects that differ only in dict insertion order encode to the
    same bytes — the property the content address inherits (mirroring
    ``FactBase.digest``'s reorder-invariance).  Raises ``TypeError`` for
    anything that is not plain JSON data.
    """
    return json.dumps(
        obj,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def receipt_digest(receipt: Dict[str, Any]) -> str:
    """Full sha256 hex digest of a receipt's canonical encoding."""
    return hashlib.sha256(canonical_bytes(receipt)).hexdigest()


def receipt_filename(receipt: Dict[str, Any]) -> str:
    """Content-addressed file name: ``<kind>-<digest12>.json``."""
    return f"{receipt['kind']}-{receipt_digest(receipt)[:12]}.json"


def git_revision(start: Optional[str] = None) -> Optional[str]:
    """Commit hex of the checkout containing ``start`` (default: cwd).

    Resolved by reading ``.git`` directly — ``HEAD``, then the ref file
    or ``packed-refs`` — so it works without a ``git`` binary and costs
    microseconds.  Returns ``None`` anywhere this is not a git checkout
    (an installed package, a bare container); a receipt without a rev is
    still valid, just less traceable.
    """
    try:
        directory = Path(start) if start is not None else Path.cwd()
        for candidate in (directory, *directory.parents):
            git_dir = candidate / ".git"
            if not git_dir.is_dir():
                continue
            head = (git_dir / "HEAD").read_text().strip()
            if not head.startswith("ref: "):
                return head if head else None
            ref = head[len("ref: "):]
            ref_file = git_dir / ref
            if ref_file.is_file():
                return ref_file.read_text().strip() or None
            packed = git_dir / "packed-refs"
            if packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + ref):
                        return line.split(" ", 1)[0]
            return None
    except OSError:  # pragma: no cover - unreadable .git
        return None
    return None


def host_provenance(git_rev: Optional[str] = None) -> Dict[str, Any]:
    """Fresh provenance block for a receipt produced *now*, here."""
    import gc
    import platform

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "gc_enabled": gc.isenabled(),
        "git_rev": git_rev if git_rev is not None else git_revision(),
    }


def make_receipt(
    kind: str,
    identity: Dict[str, Any],
    payload: Dict[str, Any],
    created_at: Optional[float] = None,
    provenance: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble (and validate) one receipt dict.

    ``provenance=None`` stamps the current host; pass an explicit block
    for results measured elsewhere.
    """
    receipt: Dict[str, Any] = {
        "schema": RECEIPT_SCHEMA,
        "kind": kind,
        "created_at": created_at,
        "provenance": provenance if provenance is not None else host_provenance(),
        "identity": identity,
        "payload": payload,
    }
    validate_receipt(receipt)
    return receipt


def validate_receipt(data: Dict[str, Any]) -> None:
    """Raise ``ValueError`` unless ``data`` is a well-formed receipt."""
    if not isinstance(data, dict):
        raise ValueError("receipt must be a JSON object")
    if data.get("schema") != RECEIPT_SCHEMA:
        raise ValueError(
            f"bad schema {data.get('schema')!r}; expected {RECEIPT_SCHEMA!r}"
        )
    if data.get("kind") not in KINDS:
        raise ValueError(
            f"unknown kind {data.get('kind')!r}; known: {', '.join(KINDS)}"
        )
    created = data.get("created_at")
    if created is not None and not isinstance(created, (int, float)):
        raise ValueError("created_at must be a number or null")
    prov = data.get("provenance")
    if not isinstance(prov, dict):
        raise ValueError("provenance must be an object")
    missing = [key for key in PROVENANCE_KEYS if key not in prov]
    if missing:
        raise ValueError(f"provenance is missing: {', '.join(missing)}")
    identity = data.get("identity")
    if not isinstance(identity, dict) or not identity:
        raise ValueError("identity must be a non-empty object")
    if not isinstance(data.get("payload"), dict):
        raise ValueError("payload must be an object")
    extra = set(data) - {
        "schema", "kind", "created_at", "provenance", "identity", "payload",
    }
    if extra:
        raise ValueError(f"unknown receipt fields: {', '.join(sorted(extra))}")
    # The address must be computable: everything must be JSON-encodable.
    canonical_bytes(data)


def dump_receipt(receipt: Dict[str, Any]) -> str:
    """The exact on-disk text of a receipt (stable across round-trips)."""
    return json.dumps(receipt, indent=2, sort_keys=True) + "\n"


def write_receipt(receipt: Dict[str, Any], store_dir: str) -> str:
    """Append ``receipt`` to a warehouse directory; return the file path.

    Content-addressed and atomic: the same receipt always lands at the
    same path, and readers never see a partial file.
    """
    validate_receipt(receipt)
    directory = Path(store_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / receipt_filename(receipt)
    atomic_write_text(str(path), dump_receipt(receipt))
    return str(path)


def load_receipt(path: str) -> Dict[str, Any]:
    """Read and validate one receipt file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    validate_receipt(data)
    return data


def iter_receipts(store_dir: str) -> List[str]:
    """Sorted paths of every ``*.json`` file under a warehouse directory."""
    directory = Path(store_dir)
    if not directory.is_dir():
        return []
    return sorted(str(p) for p in directory.glob("*.json"))
