"""The committed receipt store and the loader behind ``repro report``.

The medium-suite evidence under ``benchmarks/receipts`` was converted
once from the four pre-warehouse root reports (named in the parametrize
ids below) without re-measuring, so the assertions here are pins, not
smoke: exact binned cell counts per receipt, and geomeans that must
agree with the ``geomean_speedup`` the reports themselves carry (the
warehouse recomputes them from raw cells — agreement is the proof the
binning is faithful).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.warehouse import (
    cells_of,
    gate_failures,
    geomeans,
    ingest,
    load_receipt,
    make_receipt,
    receipt_digest,
    receipt_filename,
    score,
)

REPO = Path(__file__).resolve().parents[2]
STORE = REPO / "benchmarks" / "receipts"

#: Pinned shape of each converted receipt once binned into cells:
#: (former root report, receipt file, kind, cell count, {group: value}).
#: 3 benchmarks x 3 flavors per suite, x 4 edit kinds (incremental).
COMMITTED = [
    (
        "BENCH_solver.json",
        "bench-solver-b82a7036a854.json",
        "bench-solver",
        9,
        {"bench-solver/medium/packed": 3.922},
    ),
    (
        "BENCH_datalog.json",
        "bench-datalog-a1771f533ee6.json",
        "bench-datalog",
        9,
        {"bench-datalog/medium/compiled": 20.424},
    ),
    (
        "BENCH_incremental.json",
        "bench-incremental-a4ccdf22364e.json",
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

#: Every geomean the whole committed store scores to.
STORE_GEOMEANS = {
    "bench-datalog/medium/compiled": 20.424,
    "bench-datalog/small/compiled": 9.291,
    "bench-demand/medium/batch": 51.123,
    "bench-demand/medium/query": 13.313,
    "bench-incremental/medium/alloc": 17.102,
    "bench-incremental/medium/move": 16.995,
    "bench-incremental/medium/new-call": 16.5,
    "bench-incremental/medium/new-entry": 16.445,
    "bench-solver/medium/packed": 3.922,
    "bench-solver/small/packed": 1.581,
    "bench-solver/small/traced": 1.049,
}


def _solver_receipt():
    return load_receipt(str(STORE / COMMITTED[0][1]))


class TestAdaptCommittedArtifacts:
    @pytest.mark.parametrize(
        "name,filename,kind,cell_count,pinned_geomeans",
        COMMITTED,
        ids=[row[0] for row in COMMITTED],
    )
    def test_artifact_binned_and_geomeaned(
        self, name, filename, kind, cell_count, pinned_geomeans
    ):
        receipt = load_receipt(str(STORE / filename))
        report = receipt["payload"]
        assert receipt["kind"] == kind
        # Content-addressed: the file name is the digest of its bytes.
        assert receipt_filename(receipt) == filename
        # Provenance is the report's own host block, not this host's.
        for key in ("python", "platform", "cpu_count", "gc_enabled"):
            assert receipt["provenance"][key] == report[key]
        assert receipt["provenance"]["git_rev"] is None
        assert receipt["created_at"] is None  # unstamped: sorts first
        assert receipt["identity"]["suite"] == report["suite"] == "medium"

        raw = cells_of(receipt)
        assert len(raw) == cell_count
        cells = score([(name, receipt)])
        computed = geomeans(cells)
        for group, value in pinned_geomeans.items():
            assert computed[group] == value
        if len(pinned_geomeans) == 1:  # one group: the report's own geomean
            assert computed[group] == report["geomean_speedup"]

    def test_native_receipt_passes_through_unchanged(self, tmp_path):
        path = STORE / COMMITTED[0][1]
        ((loaded_path, receipt),), skipped = ingest([str(path)])
        assert (loaded_path, skipped) == (str(path), [])
        assert receipt == json.loads(path.read_text())

    def test_fresh_receipt_differs_from_adapted_artifact(self):
        converted = _solver_receipt()
        fresh = make_receipt(
            converted["kind"],
            identity=converted["identity"],
            payload=converted["payload"],
            created_at=123.0,
        )
        assert receipt_digest(fresh) != receipt_digest(converted)
        # The unstamped conversion is every cell's historical floor.
        for cell in score([("fresh", fresh), ("converted", converted)]):
            assert [s.path for s in cell.samples] == ["converted", "fresh"]

    def test_unknown_schema_is_rejected(self, tmp_path):
        # A pre-warehouse bench report is no longer ingestible as-is.
        legacy = tmp_path / "BENCH_solver.json"
        legacy.write_text(json.dumps(_solver_receipt()["payload"]))
        with pytest.raises(ValueError, match="bad schema 'repro-bench-solver/1'"):
            ingest([str(legacy)])


class TestIngestAll:
    def test_whole_committed_set_scores_to_54_single_sample_cells(self):
        receipts, skipped = ingest([str(STORE / row[1]) for row in COMMITTED])
        assert skipped == []
        assert [r["kind"] for _, r in receipts] == [row[2] for row in COMMITTED]
        cells = score(receipts)
        assert len(cells) == sum(row[3] for row in COMMITTED)
        # One sample per cell: every baseline IS its current, so even a
        # zero-tolerance gate has nothing to fail.
        assert all(len(c.samples) == 1 for c in cells)
        assert all(c.delta_percent == 0.0 for c in cells)
        assert gate_failures(cells, 0.0) == []
        computed = geomeans(cells)
        for *_, pinned in COMMITTED:
            for group, value in pinned.items():
                assert computed[group] == value

    def test_committed_store_scores_to_the_pinned_trajectory(self):
        receipts, skipped = ingest([str(STORE)])
        assert skipped == []
        cells = score(receipts)
        assert len(cells) == 85
        assert geomeans(cells) == STORE_GEOMEANS
        assert gate_failures(cells, 60.0) == []

    def test_directory_ingest_is_byte_deterministic_under_shuffles(
        self, tmp_path, monkeypatch
    ):
        """Two stores holding the same receipts, written in different
        orders, must render the identical table and trajectory bytes —
        directory ingestion orders by filename, not by mtime or
        readdir() order (the scorer tie-breaks equal timestamps by
        ingestion order, so ingestion order must be reproducible)."""
        import random

        from repro.warehouse import write_receipt
        from repro.warehouse.reporting import render_table, trajectory

        base = _solver_receipt()
        receipts = []
        for i in range(6):
            payload = dict(base["payload"])
            payload["speedups"] = {
                k: round(v * (1 + i / 10), 3)
                for k, v in base["payload"]["speedups"].items()
            }
            # Equal timestamps on purpose: force the ingestion-order
            # tie-break, the path a readdir()-ordered ingest would break.
            receipts.append(
                make_receipt(
                    "bench-solver", base["identity"], payload, created_at=5.0
                )
            )

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
            cells = score(loaded)
            table = render_table(cells, max_regression=60.0)
            doc = json.dumps(
                trajectory(loaded, cells, skipped, max_regression=60.0),
                sort_keys=True,
            )
            outputs.append((table, doc))
        assert outputs[0] == outputs[1]

    def test_directory_ingest_skips_unknown_schemas(self, tmp_path):
        known = tmp_path / "a.json"
        known.write_text((STORE / COMMITTED[0][1]).read_text())
        (tmp_path / "b.json").write_text('{"schema": "other/1"}')
        (tmp_path / "c.json").write_text("{not json")
        receipts, skipped = ingest([str(tmp_path)])
        assert [p for p, _ in receipts] == [str(known)]
        assert sorted(skipped) == [str(tmp_path / "b.json"), str(tmp_path / "c.json")]

    def test_explicit_unknown_file_is_an_error(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="bad schema"):
            ingest([str(bad)])
        with pytest.raises(ValueError, match="no such receipt"):
            ingest([str(tmp_path / "missing.json")])

    def test_ingest_prefixes_errors_with_the_path(self, tmp_path):
        bad = tmp_path / "b.json"
        bad.write_text('{"schema": "other/1"}')
        with pytest.raises(ValueError, match="b.json"):
            ingest([str(bad)])
        broken = tmp_path / "c.json"
        broken.write_text("{not json")
        with pytest.raises(ValueError, match="c.json"):
            ingest([str(broken)])
