"""The regression gate: threshold semantics and CLI exit codes.

The contract (docs/warehouse.md): a cell whose regression *reaches*
``--max-regression N`` fails — exactly N% fails, N minus any epsilon
passes — and the gate exits 2 naming the offending cell.  The synthetic
values here are binary-exact (0.75, 0.875, 0.8125) so the boundary
assertions are equality checks, not tolerance checks.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.warehouse import gate_failures, make_receipt, score, trajectory

FLAVOR = "2objH"
CELL = f"bench-solver:small:minihub/{FLAVOR}/packed"


def _receipt(speedup: float) -> dict:
    """Minimal ``bench-solver`` receipt with one speedup cell.

    Unstamped (``created_at`` null), so ingestion order is the trajectory.
    """
    return make_receipt(
        "bench-solver",
        identity={"suite": "small", "flavors": [FLAVOR]},
        payload={
            "suite": "small",
            "engines": ["reference", "packed"],
            "speedups": {f"minihub/{FLAVOR}": speedup},
        },
        provenance={
            "python": "3.11.0",
            "platform": "linux",
            "cpu_count": 4,
            "gc_enabled": True,
            "git_rev": None,
        },
    )


def _score(*speedups: float):
    """Score a trajectory of single-cell receipts in ingestion order."""
    receipts = [
        (f"r{i}.json", _receipt(s)) for i, s in enumerate(speedups)
    ]
    return receipts, score(receipts)


class TestThresholdBoundary:
    def test_exactly_n_percent_fails(self):
        _, cells = _score(1.0, 0.75)  # exactly -25.0%
        (cell,) = cells
        assert cell.delta_percent == -25.0
        assert cell.regression_percent == 25.0
        failures = gate_failures(cells, 25.0)
        assert [c.name for c in failures] == [CELL]

    def test_epsilon_under_n_percent_passes(self):
        # Same 25.0% regression, threshold a hair higher: under by epsilon.
        _, cells = _score(1.0, 0.75)
        assert gate_failures(cells, 25.0 + 1e-9) == []
        # And a smaller (18.75%, binary-exact) regression under a 25 gate.
        _, cells = _score(1.0, 0.8125)
        (cell,) = cells
        assert cell.regression_percent == 18.75
        assert gate_failures(cells, 25.0) == []

    def test_improvement_never_fails(self):
        _, cells = _score(1.0, 1.5)
        (cell,) = cells
        assert cell.delta_percent == 50.0
        assert cell.regression_percent == 0.0
        assert gate_failures(cells, 0.0) == []

    def test_single_sample_cell_cannot_fail(self):
        # A cell seen once has no trajectory: baseline IS current.
        _, cells = _score(1.0)
        (cell,) = cells
        assert cell.baseline is cell.current
        assert gate_failures(cells, 0.0) == []

    def test_regression_measured_against_earliest_sample(self):
        # Middle sample dips below the gate; trajectory is baseline->latest.
        _, cells = _score(1.0, 0.5, 0.875)
        (cell,) = cells
        assert cell.delta_percent == -12.5
        assert len(cell.samples) == 3
        assert gate_failures(cells, 12.5) == [cell]
        assert gate_failures(cells, 12.5 + 1e-9) == []


class TestGateCli:
    def _write(self, tmp_path, name: str, speedup: float) -> str:
        path = tmp_path / name
        path.write_text(json.dumps(_receipt(speedup)) + "\n")
        return str(path)

    def test_regression_exits_two_and_names_the_cell(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", 1.0)
        cur = self._write(tmp_path, "cur.json", 0.75)
        rc = main(["report", base, cur, "--gate", "--max-regression", "25"])
        out = capsys.readouterr().out
        assert rc == 2
        assert f"GATE FAILURE: {CELL} regressed 25.00%" in out
        assert "baseline 1.000" in out and "current 0.750" in out
        assert "<< REGRESSION" in out  # marked in the table too

    def test_passing_set_exits_zero(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", 1.0)
        cur = self._write(tmp_path, "cur.json", 0.8125)
        rc = main(["report", base, cur, "--gate", "--max-regression", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "gate passed: no cell regressed >= 25.0% (1 cells)" in out
        assert "GATE FAILURE" not in out

    def test_json_trajectory_records_the_gate_verdict(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", 1.0)
        cur = self._write(tmp_path, "cur.json", 0.75)
        out_json = tmp_path / "trajectory.json"
        rc = main(
            [
                "report", base, cur,
                "--json", str(out_json),
                "--gate", "--max-regression", "25",
            ]
        )
        assert rc == 2
        doc = json.loads(out_json.read_text())
        assert doc["schema"] == "repro-report/1"
        assert [i["path"] for i in doc["inputs"]] == [base, cur]
        assert doc["gate"] == {
            "max_regression_percent": 25.0,
            "passed": False,
            "failures": [CELL],
        }
        (cell,) = doc["cells"]
        assert cell["delta_percent"] == -25.0
        assert cell["regression_percent"] == 25.0
        assert len(cell["samples"]) == 2

    def test_explicit_baseline_pins_the_comparison(self, tmp_path, capsys):
        first = self._write(tmp_path, "a_first.json", 1.0)
        mid = self._write(tmp_path, "b_mid.json", 0.5)
        cur = self._write(tmp_path, "c_cur.json", 0.875)
        # Against the earliest sample: -12.5%, gate at 12.5 fails...
        rc = main(
            ["report", first, mid, cur, "--gate", "--max-regression", "12.5"]
        )
        assert rc == 2
        capsys.readouterr()
        # ...but pinned to the mid receipt the trajectory is +75%.
        rc = main(
            [
                "report", first, mid, cur,
                "--baseline", mid,
                "--gate", "--max-regression", "12.5",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "+75.00" in out

    def test_no_ingestible_receipts_exits_two(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path)])
        assert rc == 2
        assert "no ingestible receipts" in capsys.readouterr().err

    def test_without_gate_reporting_never_fails(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", 1.0)
        cur = self._write(tmp_path, "cur.json", 0.5)
        rc = main(["report", base, cur])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-50.00" in out
        assert "GATE FAILURE" not in out


class TestTrajectoryDocument:
    def test_gate_block_only_present_when_gating(self):
        receipts, cells = _score(1.0, 0.75)
        doc = trajectory(receipts, cells, skipped=[])
        assert "gate" not in doc
        doc = trajectory(receipts, cells, skipped=[], max_regression=30.0)
        assert doc["gate"] == {
            "max_regression_percent": 30.0,
            "passed": True,
            "failures": [],
        }
