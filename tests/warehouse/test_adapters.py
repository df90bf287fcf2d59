"""Schema adapters over the four committed ``BENCH_*.json`` artifacts.

These are the repository's real historical evidence, so the assertions
here are pins, not smoke: exact binned cell counts per artifact, and
geomeans that must agree with the ``geomean_speedup*`` tables the
reports themselves carry (the warehouse recomputes them from raw cells —
agreement is the proof the binning is faithful).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.warehouse import (
    adapt,
    cells_of,
    gate_failures,
    geomeans,
    ingest,
    load_any,
    receipt_digest,
    receipt_from_bench_report,
    score,
)
from repro.warehouse.adapters import BENCH_SCHEMA_KINDS

REPO = Path(__file__).resolve().parents[2]
BENCH_PATHS = [
    str(REPO / name)
    for name in (
        "BENCH_solver.json",
        "BENCH_datalog.json",
        "BENCH_incremental.json",
    )
]

#: Pinned shape of each committed artifact once binned into cells:
#: (file, kind, cell count, {geomean group: value}).  The geomean values
#: are the ones the artifacts themselves record — 3 benchmarks x 3
#: flavors per suite, x 4 edit kinds (incremental).
COMMITTED = [
    (
        "BENCH_solver.json",
        "bench-solver",
        9,
        {"bench-solver/medium/packed": 3.922},
    ),
    (
        "BENCH_datalog.json",
        "bench-datalog",
        9,
        {"bench-datalog/medium/compiled": 20.424},
    ),
    (
        "BENCH_incremental.json",
        "bench-incremental",
        36,
        {
            "bench-incremental/medium/alloc": 17.102,
            "bench-incremental/medium/move": 16.995,
            "bench-incremental/medium/new-call": 16.5,
            "bench-incremental/medium/new-entry": 16.445,
        },
    ),
]


class TestAdaptCommittedArtifacts:
    @pytest.mark.parametrize(
        "name,kind,cell_count,pinned_geomeans",
        COMMITTED,
        ids=[row[0] for row in COMMITTED],
    )
    def test_artifact_binned_and_geomeaned(
        self, name, kind, cell_count, pinned_geomeans
    ):
        report = json.loads((REPO / name).read_text())
        receipt = adapt(report)
        assert receipt["kind"] == kind
        assert BENCH_SCHEMA_KINDS[report["schema"]] == kind
        # Provenance is the report's own host block, not this host's.
        for key in ("python", "platform", "cpu_count", "gc_enabled"):
            assert receipt["provenance"][key] == report[key]
        assert receipt["provenance"]["git_rev"] is None
        assert receipt["created_at"] is None  # legacy: sorts before any run
        assert receipt["payload"] is report  # verbatim, not a copy
        assert receipt["identity"]["suite"] == report["suite"]

        raw = cells_of(receipt)
        assert len(raw) == cell_count
        cells = score([(name, receipt)])
        computed = geomeans(cells)
        for group, value in pinned_geomeans.items():
            assert computed[group] == value

    def test_adaptation_is_deterministic(self):
        report = json.loads((REPO / "BENCH_solver.json").read_text())
        assert receipt_digest(adapt(report)) == receipt_digest(
            adapt(json.loads((REPO / "BENCH_solver.json").read_text()))
        )

    def test_native_receipt_passes_through_unchanged(self):
        report = json.loads((REPO / "BENCH_solver.json").read_text())
        receipt = receipt_from_bench_report(report, created_at=123.0)
        assert adapt(receipt) is receipt

    def test_fresh_receipt_differs_from_adapted_artifact(self):
        report = json.loads((REPO / "BENCH_solver.json").read_text())
        fresh = receipt_from_bench_report(report, created_at=123.0)
        assert fresh["created_at"] == 123.0
        assert receipt_digest(fresh) != receipt_digest(adapt(report))

    def test_unknown_schema_is_rejected(self):
        with pytest.raises(ValueError, match="unknown artifact schema"):
            adapt({"schema": "repro-bench-quantum/9"})


class TestIngestAll:
    def test_whole_committed_set_scores_to_54_single_sample_cells(self):
        receipts, skipped = ingest(BENCH_PATHS)
        assert skipped == []
        assert [r["kind"] for _, r in receipts] == [row[1] for row in COMMITTED]
        cells = score(receipts)
        assert len(cells) == sum(row[2] for row in COMMITTED)
        # One sample per cell: every baseline IS its current, so even a
        # zero-tolerance gate has nothing to fail.
        assert all(len(c.samples) == 1 for c in cells)
        assert all(c.delta_percent == 0.0 for c in cells)
        assert gate_failures(cells, 0.0) == []
        computed = geomeans(cells)
        for _, _, _, pinned in COMMITTED:
            for group, value in pinned.items():
                assert computed[group] == value

    def test_directory_ingest_is_byte_deterministic_under_shuffles(
        self, tmp_path, monkeypatch
    ):
        """Two stores holding the same receipts, written in different
        orders, must render the identical table and trajectory bytes —
        directory ingestion orders by filename, not by mtime or
        readdir() order (the scorer tie-breaks equal timestamps by
        ingestion order, so ingestion order must be reproducible)."""
        import random

        from repro.warehouse import receipt_from_bench_report, write_receipt
        from repro.warehouse.reporting import render_table, trajectory
        from repro.warehouse.scoring import score as score_cells

        base = json.loads((REPO / "BENCH_solver.json").read_text())
        receipts = []
        for i in range(6):
            report = dict(base)
            report["speedups"] = {
                k: round(v * (1 + i / 10), 3)
                for k, v in base["speedups"].items()
            }
            # Equal timestamps on purpose: force the ingestion-order
            # tie-break, the path a readdir()-ordered ingest would break.
            receipts.append(receipt_from_bench_report(report, created_at=5.0))

        outputs = []
        for run, order in (("fifo", receipts), ("shuffled", None)):
            batch = list(receipts)
            if order is None:
                random.Random(7).shuffle(batch)
            store = tmp_path / run / "store"
            store.mkdir(parents=True)
            for receipt in batch:
                write_receipt(receipt, str(store))
            # Relative ingest: identical path strings across both runs.
            monkeypatch.chdir(tmp_path / run)
            loaded, skipped = ingest(["store"])
            assert skipped == []
            cells = score_cells(loaded)
            table = render_table(cells, max_regression=60.0)
            doc = json.dumps(
                trajectory(loaded, cells, skipped, max_regression=60.0),
                sort_keys=True,
            )
            outputs.append((table, doc))
        assert outputs[0] == outputs[1]

    def test_directory_ingest_skips_unknown_schemas(self, tmp_path):
        known = tmp_path / "a.json"
        known.write_text((REPO / "BENCH_solver.json").read_text())
        (tmp_path / "b.json").write_text('{"schema": "other/1"}')
        (tmp_path / "c.json").write_text("{not json")
        receipts, skipped = ingest([str(tmp_path)])
        assert [p for p, _ in receipts] == [str(known)]
        assert sorted(skipped) == [str(tmp_path / "b.json"), str(tmp_path / "c.json")]

    def test_explicit_unknown_file_is_an_error(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="unknown artifact schema"):
            ingest([str(bad)])
        with pytest.raises(ValueError, match="no such receipt"):
            ingest([str(tmp_path / "missing.json")])

    def test_load_any_prefixes_errors_with_the_path(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="b.json"):
            load_any(str(bad))
