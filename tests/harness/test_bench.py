"""Tests for the engine benchmark harness (solver and Datalog columns)."""

from __future__ import annotations

import json

import pytest

from repro.analysis.reference_solver import reference_solve
from repro.analysis.solver import solve as packed_solve
from repro.benchgen.generator import generate
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.harness.bench import (
    BENCH_SCHEMA,
    DATALOG_BENCH_SCHEMA,
    DATALOG_ENGINES,
    DEFAULT_FLAVORS,
    ENGINES,
    datalog_suite_names,
    datalog_suite_specs,
    run_datalog_suite,
    run_suite,
    suite_names,
    suite_specs,
    write_report,
)

#: Every BENCH_*.json carries this provenance block so speedup numbers
#: stay interpretable across machines (docs/performance.md).
PROVENANCE_KEYS = {"python", "platform", "cpu_count", "gc_enabled"}


class TestSuiteRegistry:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(suite_names())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_specs("nope")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_suite("tiny", repeat=0)


class TestRunSuite:
    def test_tiny_suite_report_shape(self):
        messages = []
        report = run_suite(
            "tiny", repeat=1, progress=messages.append
        )
        assert report["schema"] == BENCH_SCHEMA
        assert report["suite"] == "tiny"
        assert report["flavors"] == list(DEFAULT_FLAVORS)
        assert report["engines"] == list(ENGINES)
        specs = suite_specs("tiny")
        expected = len(specs) * len(DEFAULT_FLAVORS) * len(ENGINES)
        assert len(report["entries"]) == expected
        for entry in report["entries"]:
            assert entry["engine"] in ENGINES
            assert entry["seconds"] >= 0
            assert entry["cpu_seconds"] >= 0
            assert entry["tuples"] > 0
        # One speedup cell per (benchmark, flavor); geomean over them.
        assert len(report["speedups"]) == len(specs) * len(DEFAULT_FLAVORS)
        assert report["geomean_speedup"] > 0
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_tuples_per_cell(self):
        report = run_suite("tiny", flavors=("2objH",), repeat=1)
        by_cell = {}
        for entry in report["entries"]:
            cell = (entry["benchmark"], entry["flavor"])
            by_cell.setdefault(cell, set()).add(entry["tuples"])
        assert all(len(counts) == 1 for counts in by_cell.values())

    def test_write_report_round_trips(self, tmp_path):
        report = run_suite("tiny", flavors=("2objH",), repeat=1)
        path = tmp_path / "BENCH_solver.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )


class TestDatalogSuite:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(datalog_suite_names())

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown datalog suite"):
            datalog_suite_specs("nope")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_datalog_suite("tiny", repeat=0)

    def test_tiny_suite_report_shape(self):
        messages = []
        report = run_datalog_suite("tiny", repeat=1, progress=messages.append)
        assert report["schema"] == DATALOG_BENCH_SCHEMA
        assert report["suite"] == "tiny"
        assert report["flavors"] == list(DEFAULT_FLAVORS)
        assert report["engines"] == list(DATALOG_ENGINES)
        specs = datalog_suite_specs("tiny")
        expected = len(specs) * len(DEFAULT_FLAVORS) * len(DATALOG_ENGINES)
        assert len(report["entries"]) == expected
        for entry in report["entries"]:
            assert entry["engine"] in DATALOG_ENGINES
            assert entry["seconds"] >= 0
            assert entry["cpu_seconds"] >= 0
            assert entry["rows"] > 0
        assert len(report["speedups"]) == len(specs) * len(DEFAULT_FLAVORS)
        assert report["geomean_speedup"] > 0
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_rows_per_cell(self):
        report = run_datalog_suite("tiny", flavors=("2objH",), repeat=1)
        by_cell = {}
        for entry in report["entries"]:
            cell = (entry["benchmark"], entry["flavor"])
            by_cell.setdefault(cell, set()).add(entry["rows"])
        assert all(len(counts) == 1 for counts in by_cell.values())

    def test_write_report_round_trips(self, tmp_path):
        report = run_datalog_suite("tiny", flavors=("2typeH",), repeat=1)
        path = tmp_path / "BENCH_datalog.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(json.dumps(report))


class TestProvenance:
    def test_every_report_kind_records_host_provenance(self):
        solver = run_suite("tiny", flavors=("2objH",), repeat=1)
        datalog = run_datalog_suite("tiny", flavors=("2objH",), repeat=1)
        for report in (solver, datalog):
            assert PROVENANCE_KEYS <= set(report)
            assert report["cpu_count"] >= 1
            assert isinstance(report["gc_enabled"], bool)
            assert report["workers"] == 1


class TestEngineEquivalence:
    """The packed solver is a representation change, not a semantic one:
    both engines must derive identical points-to sets at string level."""

    @pytest.mark.parametrize("flavor", DEFAULT_FLAVORS)
    def test_string_level_points_to_identical(self, flavor):
        (spec,) = suite_specs("tiny")
        program = generate(spec)
        facts = encode_program(program)
        policy = policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)
        packed = packed_solve(program, policy, facts=facts)
        reference = reference_solve(program, policy, facts=facts)
        assert packed.tuple_count == reference.tuple_count

        def var_pts_packed(raw):
            out = {}
            for (var_i, ctx_i), node in raw.var_nodes.items():
                key = (raw.vars.value(var_i), raw.ctxs.value(ctx_i))
                out[key] = {
                    (raw.heaps.value(h), raw.hctxs.value(hc))
                    for h, hc in raw.iter_pts(node)
                }
            return out

        def var_pts_reference(raw):
            out = {}
            for (var_i, ctx_i), node in raw.var_nodes.items():
                key = (raw.vars.value(var_i), raw.ctxs.value(ctx_i))
                out[key] = {
                    (raw.heaps.value(h), raw.hctxs.value(hc))
                    for h, hc in raw.pts[node]
                }
            return out

        assert var_pts_packed(packed) == var_pts_reference(reference)

        def call_graph(raw):
            return {
                (
                    raw.invos.value(invo),
                    raw.ctxs.value(cctx),
                    raw.meths.value(meth),
                    raw.ctxs.value(mctx),
                )
                for invo, cctx, meth, mctx in raw.call_graph
            }

        assert call_graph(packed) == call_graph(reference)

        def reachable(raw):
            return {
                (raw.meths.value(m), raw.ctxs.value(c))
                for m, c in raw.reachable
            }

        assert reachable(packed) == reachable(reference)


class TestWriteReportAtomicity:
    """A killed bench run must never leave a truncated ``BENCH_*.json``.

    ``write_report`` lands reports via temp file + ``os.replace``; these
    tests simulate the kill arriving mid-write (during the fsync, after
    bytes have been written to the temp file) and assert the previous
    report survives byte-for-byte with no temp debris left behind.
    """

    OLD = {"schema": BENCH_SCHEMA, "suite": "tiny", "speedups": {"a/f": 1.0}}

    def test_kill_mid_write_preserves_previous_report(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "BENCH_solver.json"
        write_report(self.OLD, str(path))
        before = path.read_bytes()

        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        new = {"schema": BENCH_SCHEMA, "suite": "tiny", "pad": "x" * 65536}
        with pytest.raises(KeyboardInterrupt):
            write_report(new, str(path))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_solver.json"]

    def test_kill_on_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        path = tmp_path / "BENCH_solver.json"

        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write_report(self.OLD, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_uninterrupted_write_replaces_the_report(self, tmp_path):
        path = tmp_path / "BENCH_solver.json"
        write_report(self.OLD, str(path))
        new = dict(self.OLD, suite="small")
        write_report(new, str(path))
        assert json.loads(path.read_text()) == new
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_solver.json"]


class TestDemandSuite:
    def test_repeat_and_queries_validated(self):
        from repro.harness.bench import run_demand_suite

        with pytest.raises(ValueError, match="repeat"):
            run_demand_suite("tiny", repeat=0)
        with pytest.raises(ValueError, match="queries"):
            run_demand_suite("tiny", queries=0)

    def test_tiny_suite_report_shape(self):
        from repro.harness.bench import DEMAND_BENCH_SCHEMA, run_demand_suite

        messages = []
        flavors = ("2objH", "2typeH")
        queries = 2
        report = run_demand_suite(
            "tiny",
            flavors=flavors,
            repeat=1,
            queries=queries,
            progress=messages.append,
        )
        assert report["schema"] == DEMAND_BENCH_SCHEMA
        assert report["engines"] == ["packed-full", "packed-slice"]
        assert PROVENANCE_KEYS <= set(report)
        assert report["workers"] == 1
        specs = suite_specs("tiny")
        assert set(report["warmup_seconds"]) == {s.name for s in specs}
        # One entry per (benchmark, flavor, sampled variable) ...
        assert len(report["entries"]) == len(specs) * len(flavors) * queries
        for entry in report["entries"]:
            assert entry["speedup"] > 0
            assert entry["query_seconds"] > 0
            assert entry["full_seconds"] > 0
            assert 0.0 < entry["footprint"] <= 1.0
        # ... and two speedup cells (query / batch) per (benchmark, flavor).
        assert len(report["speedups"]) == len(specs) * len(flavors) * 2
        assert report["geomean_speedup"] > 0
        assert 0.0 < report["median_footprint"] <= 1.0
        assert any("geomean" in m for m in messages)

    def test_report_adapts_into_warehouse_cells(self):
        from repro.harness.bench import run_demand_suite
        from repro.warehouse import cells_of, receipt_from_bench_report

        report = run_demand_suite(
            "tiny", flavors=("2objH",), repeat=1, queries=1
        )
        receipt = receipt_from_bench_report(report)
        assert receipt["kind"] == "bench-demand"
        cells = cells_of(receipt)
        assert len(cells) == len(report["speedups"])
        assert {c["variant"] for c in cells} == {"query", "batch"}
        assert all(c["unit"] == "speedup" for c in cells)

    def test_write_report_round_trips(self, tmp_path):
        from repro.harness.bench import run_demand_suite

        report = run_demand_suite(
            "tiny", flavors=("2objH",), repeat=1, queries=1
        )
        path = tmp_path / "BENCH_demand.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == report
