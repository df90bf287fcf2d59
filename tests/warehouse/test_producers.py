"""Every producer appends receipts: bench CLI, fuzz campaigns, service.

The tentpole contract is that the warehouse is fed *everywhere* results
are produced — ``repro bench/fuzz --receipt-dir``, and every completed
uncached service job — and that a fresh receipt plus the committed
receipts under ``benchmarks/receipts`` score into one trajectory.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.fuzz.runner import FuzzConfig, campaign_receipt, run_campaign
from repro.service import AnalysisService, JobSpec, JobState
from repro.warehouse import (
    cells_of,
    iter_receipts,
    load_receipt,
    receipt_from_service_job,
    score,
)

REPO = Path(__file__).resolve().parents[2]


class TestBenchCliReceipts:
    def test_bench_suite_appends_a_scoreable_receipt(self, tmp_path, capsys):
        store = tmp_path / "wh"
        rc = main(
            [
                "bench",
                "--suite", "tiny",
                "--repeat", "1",
                "--flavors", "insens",
                "--receipt-dir", str(store),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "receipt appended:" in out
        (path,) = iter_receipts(str(store))
        receipt = load_receipt(path)
        assert receipt["kind"] == "bench-solver"
        assert Path(path).name.startswith("bench-solver-")
        # Fresh producer receipts are stamped, unlike adapted artifacts.
        assert receipt["created_at"] is not None
        assert receipt["provenance"]["git_rev"] is not None
        assert receipt["payload"]["flavors"] == ["insens"]
        assert cells_of(receipt)  # binnable

    def test_fresh_receipt_scores_with_committed_artifacts(self, tmp_path, capsys):
        store = tmp_path / "wh"
        rc = main(
            [
                "bench",
                "--suite", "tiny",
                "--repeat", "1",
                "--flavors", "insens",
                "--receipt-dir", str(store),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(
            [
                "report",
                str(REPO / "benchmarks" / "receipts"),
                str(store),
                "--gate", "--max-regression", "99",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate passed" in out
        # Both generations are ingested: the committed medium-suite
        # evidence and the fresh receipt each contribute their own cells.
        assert "bench-solver:medium:" in out
        assert "bench-solver:tiny:" in out


class TestFuzzCampaignReceipts:
    def test_campaign_receipt_shape(self):
        config = FuzzConfig(seed=11, max_iterations=3, budget_seconds=60.0)
        outcome = run_campaign(config)
        receipt = campaign_receipt(config, outcome)
        assert receipt["kind"] == "fuzz-campaign"
        assert receipt["identity"]["seed"] == 11
        stats = receipt["payload"]["stats"]
        assert stats["programs"] == outcome.stats.programs
        assert stats["engine_runs"] == outcome.stats.engine_runs
        assert receipt["payload"]["violations"] == []
        cells = cells_of(receipt)
        assert [c["unit"] for c in cells] == ["per_second"]
        assert cells[0]["variant"] == "seed=11"

    def test_fuzz_cli_appends_receipt(self, tmp_path, capsys):
        store = tmp_path / "wh"
        rc = main(
            [
                "fuzz",
                "--seed", "7",
                "--iterations", "3",
                "--corpus-dir", str(tmp_path / "corpus"),
                "--receipt-dir", str(store),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "receipt appended:" in out
        (path,) = iter_receipts(str(store))
        receipt = load_receipt(path)
        assert receipt["kind"] == "fuzz-campaign"
        assert receipt["identity"]["seed"] == 7
        assert receipt["payload"]["stats"]["programs"] >= 3


def _run_job(service: AnalysisService, spec: JobSpec, timeout: float = 60.0):
    """Submit one job on a started inline service and wait it to terminal."""
    service.start()
    job = service.submit(spec)
    deadline = time.time() + timeout
    while not job.terminal and time.time() < deadline:
        time.sleep(0.02)
    assert job.terminal, f"job stuck in state {job.state!r}"
    return job


class TestServiceJobReceipts:
    def test_completed_uncached_job_leaves_one_receipt(self, tmp_path):
        store = tmp_path / "wh"
        service = AnalysisService(workers=0, receipt_dir=str(store))
        try:
            job = _run_job(service, JobSpec(benchmark="antlr", analysis="insens"))
            assert job.state == JobState.DONE
            (path,) = iter_receipts(str(store))
            receipt = load_receipt(path)
            assert receipt["kind"] == "service-job"
            assert receipt["identity"] == {
                "analysis": "insens",
                "benchmark": "antlr",
                "introspective": None,
                "source": None,
            }
            assert receipt["payload"]["stats"]["tuple_count"] > 0
            assert receipt["payload"]["cached"] is False
            (cell,) = cells_of(receipt)
            assert cell["unit"] == "per_second"
            assert cell["variant"] == "direct"
            assert cell["value"] > 0

            # The identical resubmission is a cache hit: no second receipt.
            again = _run_job(service, JobSpec(benchmark="antlr", analysis="insens"))
            assert again.state == JobState.DONE
            assert again.cached is True
            assert iter_receipts(str(store)) == [path]
        finally:
            service.stop()

    def test_timeout_job_leaves_no_receipt(self, tmp_path):
        store = tmp_path / "wh"
        service = AnalysisService(workers=0, receipt_dir=str(store))
        try:
            job = _run_job(
                service, JobSpec(benchmark="antlr", analysis="2objH", max_tuples=10)
            )
            assert job.state == JobState.TIMEOUT
            assert iter_receipts(str(store)) == []
        finally:
            service.stop()

    def test_receipt_failure_does_not_fail_the_job(self, tmp_path, caplog):
        # Receipts are advisory: a store path that cannot be created
        # (a file stands in its way) must not turn DONE into ERROR — but
        # the failure is logged and counted, not swallowed.
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("occupied")
        service = AnalysisService(workers=0, receipt_dir=str(blocked))
        try:
            with caplog.at_level("WARNING", logger="repro.service"):
                job = _run_job(
                    service, JobSpec(benchmark="antlr", analysis="insens")
                )
            assert job.state == JobState.DONE
        finally:
            service.stop()
        assert "repro_service_receipt_errors_total 1" in (
            service.telemetry.render().splitlines()
        )
        warnings = [
            r for r in caplog.records
            if r.name == "repro.service" and r.levelname == "WARNING"
        ]
        assert len(warnings) == 1
        assert job.id in warnings[0].getMessage()

    def test_source_job_identity_uses_facts_digest(self):
        snapshot = {
            "id": "j1",
            "state": "done",
            "cached": False,
            "spec": {"analysis": "2objH", "benchmark": None, "introspective": "A"},
            "queue_seconds": 0.1,
            "run_seconds": 1.0,
            "total_seconds": 1.1,
        }
        result = {
            "stats": {"tuple_count": 1000, "seconds": 0.5},
            "solve_seconds": 0.5,
            "stages": {},
            "facts_digest": "abcdef0123456789",
        }
        receipt = receipt_from_service_job(snapshot, result, created_at=5.0)
        assert receipt["identity"]["source"] == "abcdef012345"
        assert receipt["identity"]["benchmark"] is None
        (cell,) = cells_of(receipt)
        assert cell["benchmark"] == "source:abcdef012345"
        assert cell["variant"] == "introspective-A"
        assert cell["value"] == 2000.0
        # And it scores like any other receipt.
        (scored,) = score([("r.json", receipt)])
        assert scored.kind == "service-job"
