"""Tests for the engine benchmark harness: one loop, four kinds, receipts."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.analysis.reference_solver import reference_solve
from repro.analysis.solver import solve as packed_solve
from repro.benchgen.generator import generate
from repro.contexts.policies import policy_by_name
from repro.datalog.reference_engine import ReferenceEngine
from repro.facts.encoder import encode_program
from repro.fuzz.oracles import solver_relations
from repro.harness import bench
from repro.harness.bench import (
    BENCH_KINDS,
    DEFAULT_FLAVORS,
    best_of,
    run_bench,
    suite_names,
    suite_specs,
)
from repro.obs import NULL_TRACER
from repro.warehouse import (
    RECEIPT_SCHEMA,
    cells_of,
    load_receipt,
    make_receipt,
    receipt_filename,
    write_receipt,
)

#: Every receipt carries this provenance block so speedup numbers stay
#: interpretable across machines (docs/warehouse.md).
PROVENANCE_KEYS = {"python", "platform", "cpu_count", "gc_enabled", "git_rev"}


@pytest.fixture(scope="module")
def solver_receipt():
    return run_bench("solver", "tiny", repeat=1)


@pytest.fixture(scope="module")
def datalog_receipt():
    return run_bench("datalog", "tiny", repeat=1)


@pytest.fixture(scope="module")
def demand_receipt():
    return run_bench(
        "demand", "tiny", flavors=("2objH", "2typeH"), repeat=1, queries=2
    )


def _entries_by_cell(receipt, field):
    by_cell = {}
    for entry in receipt["payload"]["entries"]:
        cell = (entry["benchmark"], entry["flavor"])
        by_cell.setdefault(cell, set()).add(entry[field])
    return by_cell


class TestSuiteRegistry:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(suite_names())
        for kind in BENCH_KINDS:
            for suite in suite_names():
                assert suite_specs(suite, kind)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_specs("nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown bench kind"):
            run_bench("parallel", "tiny")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_bench("solver", "tiny", repeat=0)

    def test_empty_flavor_list_rejected(self):
        with pytest.raises(ValueError, match="no flavors"):
            run_bench("solver", "tiny", flavors=[])


class TestBestOf:
    def test_variants_interleave_and_keep_the_last_output(self):
        calls = []

        def measure(variant):
            calls.append(variant)
            return lambda: len(calls)

        timings, last = best_of(2, ("a", "b"), measure)
        assert calls == ["a", "b", "a", "b"]
        assert last == {"a": 3, "b": 4}
        for timing in timings.values():
            assert 0 <= timing.cpu_seconds < 1
            assert 0 <= timing.seconds < 1

    def test_gc_is_paused_while_the_clock_runs(self):
        import gc

        seen = []
        best_of(1, ("a",), lambda _v: lambda: seen.append(gc.isenabled()))
        assert seen == [False]
        assert gc.isenabled()


class TestRunSuite:
    def test_tiny_suite_report_shape(self):
        messages = []
        receipt = run_bench("solver", "tiny", repeat=1, progress=messages.append)
        assert receipt["schema"] == RECEIPT_SCHEMA
        assert receipt["kind"] == "bench-solver"
        assert receipt["identity"] == {
            "suite": "tiny",
            "flavors": list(DEFAULT_FLAVORS),
            "engines": ["reference", "packed"],
        }
        payload = receipt["payload"]
        assert payload["flavors"] == list(DEFAULT_FLAVORS)
        assert payload["engines"] == ["reference", "packed"]
        specs = suite_specs("tiny")
        assert len(payload["entries"]) == len(specs) * len(DEFAULT_FLAVORS) * 2
        for entry in payload["entries"]:
            assert entry["engine"] in ("reference", "packed")
            assert entry["seconds"] >= 0
            assert entry["cpu_seconds"] >= 0
            assert entry["tuples"] > 0
        # One speedup cell per (benchmark, flavor); geomean over them.
        assert len(payload["speedups"]) == len(specs) * len(DEFAULT_FLAVORS)
        assert payload["geomean_speedup"] > 0
        assert "trace" not in payload
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_tuples_per_cell(self, solver_receipt):
        by_cell = _entries_by_cell(solver_receipt, "tuples")
        assert by_cell and all(len(c) == 1 for c in by_cell.values())

    def test_write_report_round_trips(self, solver_receipt, tmp_path):
        path = write_receipt(solver_receipt, str(tmp_path))
        assert load_receipt(path) == json.loads(json.dumps(solver_receipt))

    def test_traced_variant_fills_the_trace_block(self):
        tracers = []
        receipt = run_bench(
            "solver",
            "tiny",
            flavors=("2objH", "2typeH"),
            repeat=1,
            on_trace=tracers.append,
        )
        payload = receipt["payload"]
        # The traced variant rides along on the first cell only, and is
        # not an engine: entries and speedups are unchanged by it.
        assert {e["engine"] for e in payload["entries"]} == {"reference", "packed"}
        trace = payload["trace"]
        assert (trace["benchmark"], trace["flavor"]) == ("micro", "2objH")
        assert trace["untraced_cpu_seconds"] > 0
        assert trace["traced_cpu_seconds"] > 0
        assert isinstance(trace["overhead_percent"], float)
        assert "solver.propagate" in trace["span_names"]
        (tracer,) = tracers
        assert trace["events"] == len(tracer.chrome_trace()["traceEvents"])
        variants = {c["variant"] for c in cells_of(receipt)}
        assert variants == {"packed", "traced"}

    def test_trace_overhead_alternates_pairs_and_takes_the_median_ratio(
        self, monkeypatch
    ):
        """Each pair runs back to back, which side goes first alternates,
        and the overhead is the median of the pairs' ratios (a slow
        pair does not move it)."""
        cpu = iter([1.0, 1.1, 1.1, 1.0, 1.0, 2.0, 9.0, 9.9, 1.0, 1.0])
        ran = []

        def timed(variant, _measure, last):
            ran.append(variant)
            last[variant] = variant
            return bench.Timing(0.0, next(cpu))

        monkeypatch.setattr(bench, "_timed", timed)
        last = {}
        untraced, traced, ratio = bench.trace_overhead(None, 5, last)
        assert ran == ["packed", "traced", "traced", "packed"] * 2 + [
            "packed", "traced"
        ]
        assert last == {"packed": "packed", "traced": "traced"}
        # Pairs (untraced, traced): (1, 1.1) (1, 1.1) (1, 2) (9.9, 9) (1, 1).
        assert ratio == pytest.approx(1.1)
        assert (untraced, traced) == (1.0, 1.1)
        assert bench.TRACE_OVERHEAD_PAIRS >= 5

    def test_tracing_is_solver_only(self):
        with pytest.raises(ValueError, match="solver"):
            run_bench("datalog", "tiny", on_trace=lambda _t: None)


class TestDatalogSuite:
    def test_known_suites(self):
        assert {"tiny", "small", "medium"} <= set(suite_names())
        assert suite_specs("tiny", "datalog")[0].name == "dl-micro"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            suite_specs("nope", "datalog")

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_bench("datalog", "tiny", repeat=0)

    def test_tiny_suite_report_shape(self):
        messages = []
        receipt = run_bench(
            "datalog", "tiny", flavors=("2objH",), repeat=1,
            progress=messages.append,
        )
        assert receipt["kind"] == "bench-datalog"
        payload = receipt["payload"]
        assert payload["suite"] == "tiny"
        assert payload["flavors"] == ["2objH"]
        assert payload["engines"] == ["reference", "compiled"]
        specs = suite_specs("tiny", "datalog")
        assert len(payload["entries"]) == len(specs) * 2
        for entry in payload["entries"]:
            assert entry["engine"] in ("reference", "compiled")
            assert entry["seconds"] >= 0
            assert entry["cpu_seconds"] >= 0
            assert entry["rows"] > 0
        assert len(payload["speedups"]) == len(specs)
        assert payload["geomean_speedup"] > 0
        assert any("geomean" in m for m in messages)

    def test_engines_agree_on_rows_per_cell(self, datalog_receipt):
        by_cell = _entries_by_cell(datalog_receipt, "rows")
        assert len(by_cell) == len(DEFAULT_FLAVORS)
        assert all(len(rows) == 1 for rows in by_cell.values())

    def test_write_report_round_trips(self, datalog_receipt, tmp_path):
        path = write_receipt(datalog_receipt, str(tmp_path))
        assert load_receipt(path) == json.loads(json.dumps(datalog_receipt))


class TestProvenance:
    def test_every_report_kind_records_host_provenance(
        self, solver_receipt, datalog_receipt, demand_receipt
    ):
        for receipt in (solver_receipt, datalog_receipt, demand_receipt):
            provenance = receipt["provenance"]
            assert PROVENANCE_KEYS <= set(provenance)
            assert provenance["cpu_count"] >= 1
            assert isinstance(provenance["gc_enabled"], bool)
            # Fresh runs are stamped, unlike the converted committed ones.
            assert receipt["created_at"] is not None


class TestEngineDisagreement:
    """Every kind's equality check turns a divergence into an error."""

    def test_packed_vs_reference_tuples(self, monkeypatch):
        def off_by_one(*args, **kwargs):
            raw = reference_solve(*args, **kwargs)
            return SimpleNamespace(tuple_count=raw.tuple_count + 1)

        monkeypatch.setattr(bench, "reference_solve", off_by_one)
        with pytest.raises(RuntimeError, match="disagreement on micro/2objH"):
            run_bench("solver", "tiny", flavors=("2objH",), repeat=1)

    def test_compiled_vs_reference_rows(self, monkeypatch):
        class ExtraRow(ReferenceEngine):
            def run(self):
                db = super().run()
                db.add_fact("BOGUS", ("row",))
                return db

        monkeypatch.setitem(
            bench._DATALOG_ENGINE_FACTORIES, "reference", ExtraRow
        )
        with pytest.raises(RuntimeError, match="disagreement on dl-micro/2objH"):
            run_bench("datalog", "tiny", flavors=("2objH",), repeat=1)

    def test_warm_vs_scratch_relations(self, monkeypatch):
        def lossy(raw):
            return (frozenset(),) + solver_relations(raw)[1:]

        monkeypatch.setattr(bench, "solver_relations", lossy)
        with pytest.raises(RuntimeError, match="diverged from scratch.*VARPOINTSTO"):
            run_bench("incremental", "tiny", flavors=("2objH",), repeat=1)

    def test_query_and_batch_vs_full_points_to(self, monkeypatch):
        monkeypatch.setattr(
            "repro.analysis.analyze",
            lambda *a, **k: SimpleNamespace(var_points_to={}),
        )
        with pytest.raises(RuntimeError, match="query/full disagreement"):
            run_bench("demand", "tiny", flavors=("2objH",), repeat=1)

    def test_traced_vs_untraced_tuples(self, monkeypatch):
        def tracing_changes_result(*args, tracer=NULL_TRACER, **kwargs):
            raw = packed_solve(*args, tracer=tracer, **kwargs)
            extra = 1 if tracer.enabled else 0
            return SimpleNamespace(tuple_count=raw.tuple_count + extra)

        monkeypatch.setattr(bench, "packed_solve", tracing_changes_result)
        with pytest.raises(RuntimeError, match="traced="):
            run_bench(
                "solver", "tiny", flavors=("2objH",), repeat=1,
                on_trace=lambda _t: None,
            )


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


def _receipt(**payload):
    return make_receipt(
        "bench-solver",
        identity={"suite": "tiny"},
        payload=payload,
        created_at=1.0,
        provenance={
            "python": "3.x",
            "platform": "test",
            "cpu_count": 1,
            "gc_enabled": True,
            "git_rev": None,
        },
    )


class TestWriteReportAtomicity:
    """A killed bench run must never leave a truncated receipt behind.

    ``write_receipt`` lands receipts via temp file + ``os.replace``; these
    tests simulate the kill arriving mid-write (during the fsync, after
    bytes have been written to the temp file) and assert the store keeps
    exactly its previous receipts, byte-for-byte, with no temp debris.
    """

    OLD = _receipt(speedups={"a/f": 1.0})

    def test_kill_mid_write_preserves_previous_report(
        self, tmp_path, monkeypatch
    ):
        old = write_receipt(self.OLD, str(tmp_path))
        before = open(old, "rb").read()

        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write_receipt(_receipt(pad="x" * 65536), str(tmp_path))
        assert open(old, "rb").read() == before
        assert [p.name for p in tmp_path.iterdir()] == [
            receipt_filename(self.OLD)
        ]

    def test_kill_on_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        def killed(_fd):
            raise KeyboardInterrupt

        monkeypatch.setattr("repro.utils.os.fsync", killed)
        with pytest.raises(KeyboardInterrupt):
            write_receipt(self.OLD, str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_uninterrupted_write_replaces_the_report(self, tmp_path):
        # Same receipt, same address: a rewrite replaces it in place.
        first = write_receipt(self.OLD, str(tmp_path))
        assert write_receipt(self.OLD, str(tmp_path)) == first
        new = _receipt(speedups={"a/f": 2.0})
        second = write_receipt(new, str(tmp_path))
        assert load_receipt(first) == self.OLD
        assert load_receipt(second) == new
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [receipt_filename(self.OLD), receipt_filename(new)]
        )


class TestDemandSuite:
    def test_repeat_and_queries_validated(self):
        with pytest.raises(ValueError, match="repeat"):
            run_bench("demand", "tiny", repeat=0)
        with pytest.raises(ValueError, match="queries"):
            run_bench("demand", "tiny", queries=0)

    def test_tiny_suite_report_shape(self, demand_receipt):
        assert demand_receipt["kind"] == "bench-demand"
        payload = demand_receipt["payload"]
        assert payload["engines"] == ["full", "query", "batch"]
        assert payload["flavors"] == ["2objH", "2typeH"]
        specs = suite_specs("tiny")
        # One entry per (benchmark, flavor, variant) ...
        assert len(payload["entries"]) == len(specs) * 2 * 3
        for entry in payload["entries"]:
            assert entry["cpu_seconds"] > 0
            assert entry["queries"] == 2
            assert 0.0 < entry["median_footprint"] <= 1.0
        # ... and two speedup cells (query / batch) per (benchmark, flavor).
        assert len(payload["speedups"]) == len(specs) * 2 * 2
        for key, value in payload["speedups"].items():
            assert key.rsplit("/", 1)[1] in ("query", "batch")
            assert value > 0
        assert payload["geomean_speedup"] > 0

    def test_report_adapts_into_warehouse_cells(self, demand_receipt):
        cells = cells_of(demand_receipt)
        assert len(cells) == len(demand_receipt["payload"]["speedups"])
        assert {c["variant"] for c in cells} == {"query", "batch"}
        assert all(c["unit"] == "speedup" for c in cells)

    def test_write_report_round_trips(self, demand_receipt, tmp_path):
        path = write_receipt(demand_receipt, str(tmp_path))
        assert load_receipt(path) == demand_receipt
