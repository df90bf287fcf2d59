"""The results warehouse: receipts in, scored trajectories out.

Every performance claim in this repository is a receipt; the warehouse
makes their trajectory a queryable, gateable artifact:

* :mod:`repro.warehouse.receipt` — the schema-versioned,
  content-addressed receipt (``repro-receipt/1``) every producer
  appends: bench suites, fuzz campaigns, completed service jobs;
* :mod:`repro.warehouse.adapters` — the fuzz and service receipt
  builders, and the file/directory loader behind ``repro report``;
* :mod:`repro.warehouse.scoring` — binning into (suite, flavor, engine)
  cells, geomean speedups, regression deltas vs a baseline;
* :mod:`repro.warehouse.reporting` — the ``repro report`` table and the
  ``repro-report/1`` trajectory JSON.

``repro report --gate --max-regression N`` is the general
perf-regression mechanism: exit 2 on any cell regressing by N% or more
against its baseline receipt.  See ``docs/warehouse.md``.
"""

from .adapters import (
    ingest,
    receipt_from_fuzz_campaign,
    receipt_from_service_job,
)
from .receipt import (
    KINDS,
    RECEIPT_SCHEMA,
    canonical_bytes,
    dump_receipt,
    git_revision,
    host_provenance,
    iter_receipts,
    load_receipt,
    make_receipt,
    receipt_digest,
    receipt_filename,
    validate_receipt,
    write_receipt,
)
from .reporting import REPORT_SCHEMA, render_table, trajectory
from .scoring import Cell, Sample, cells_of, gate_failures, geomeans, score

__all__ = [
    "Cell",
    "KINDS",
    "RECEIPT_SCHEMA",
    "REPORT_SCHEMA",
    "Sample",
    "canonical_bytes",
    "cells_of",
    "dump_receipt",
    "gate_failures",
    "geomeans",
    "git_revision",
    "host_provenance",
    "ingest",
    "iter_receipts",
    "load_receipt",
    "make_receipt",
    "receipt_digest",
    "receipt_filename",
    "receipt_from_fuzz_campaign",
    "receipt_from_service_job",
    "render_table",
    "score",
    "trajectory",
    "validate_receipt",
    "write_receipt",
]
