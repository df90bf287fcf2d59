"""Tests for the ``repro`` command-line interface."""

import pytest

from repro.cli import main

SOURCE = """
class Exc { }
class Box {
    field v;
    method set(x) { this.v = x; }
    method get()  { r = this.v; return r; }
}
class Main {
    static method main() {
        b = new Box();
        i = new Exc();
        b.set(i);
        g = b.get();
        c = (Exc) g;
        throw i;
    }
}
"""


@pytest.fixture
def source_file(tmp_path):
    path = tmp_path / "demo.mj"
    path.write_text(SOURCE)
    return str(path)


class TestAnalyze:
    def test_basic_run(self, source_file, capsys):
        assert main(["analyze", source_file, "--analysis", "insens"]) == 0
        out = capsys.readouterr().out
        assert "program:" in out and "stats:" in out

    def test_show_points_to(self, source_file, capsys):
        main(["analyze", source_file, "--show", "Main.main/0/g"])
        out = capsys.readouterr().out
        assert "pts(Main.main/0/g) = ['Main.main/0/new Exc/1']" in out

    def test_show_missing_var_prints_empty(self, source_file, capsys):
        main(["analyze", source_file, "--show", "Main.main/0/nope"])
        assert "pts(Main.main/0/nope) = {}" in capsys.readouterr().out

    def test_reports(self, source_file, capsys):
        main(
            [
                "analyze",
                source_file,
                "--precision",
                "--devirt",
                "--exceptions",
            ]
        )
        out = capsys.readouterr().out
        assert "precision:" in out
        assert "devirtualization:" in out
        assert "exceptions: escaping 1" in out

    def test_dump(self, source_file, capsys):
        main(["analyze", source_file, "--dump", "--analysis", "insens"])
        assert "g = b.get/0()" in capsys.readouterr().out

    def test_introspective(self, source_file, capsys):
        assert (
            main(["analyze", source_file, "--introspective", "A"]) == 0
        )
        out = capsys.readouterr().out
        assert "2objH-IntroA" in out and "not refined" in out

    def test_heuristic_constants_override(self, source_file, capsys):
        main(
            [
                "analyze",
                source_file,
                "--introspective",
                "B",
                "--heuristic-constants",
                "5,7",
            ]
        )
        assert "P=5, Q=7" in capsys.readouterr().out

    def test_budget_timeout_exit_code(self, source_file, capsys):
        assert main(["analyze", source_file, "--budget", "2"]) == 3
        assert "TIMEOUT" in capsys.readouterr().out

    def test_missing_file_exits_2_with_one_line_error(self, capsys):
        assert main(["analyze", "/no/such/file.mj"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read /no/such/file.mj")
        assert len(err.strip().splitlines()) == 1

    def test_directory_as_file_exits_2(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 2
        assert "error: cannot read" in capsys.readouterr().err


class TestHeuristicConstantsValidation:
    def test_wrong_arity_for_a(self, source_file, capsys):
        rc = main(
            [
                "analyze",
                source_file,
                "--introspective",
                "A",
                "--heuristic-constants",
                "1,2",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "--heuristic-constants" in err
        assert "K,L,M" in err

    def test_non_integer_constants_for_b(self, source_file, capsys):
        rc = main(
            [
                "analyze",
                source_file,
                "--introspective",
                "B",
                "--heuristic-constants",
                "x,y",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "integers" in err and "P,Q" in err

    def test_valid_constants_still_work(self, source_file, capsys):
        rc = main(
            [
                "analyze",
                source_file,
                "--introspective",
                "A",
                "--heuristic-constants",
                " 4 , 5 , 6 ",
            ]
        )
        assert rc == 0
        assert "K=4, L=5, M=6" in capsys.readouterr().out


class TestSaveFlags:
    def test_save_facts_and_solution(self, source_file, capsys, tmp_path):
        facts_dir = tmp_path / "facts"
        sol_dir = tmp_path / "solution"
        rc = main(
            [
                "analyze",
                source_file,
                "--analysis",
                "insens",
                "--save-facts",
                str(facts_dir),
                "--save-solution",
                str(sol_dir),
            ]
        )
        assert rc == 0
        assert (facts_dir / "ALLOC.facts").exists()
        assert (sol_dir / "VARPOINTSTO.csv").exists()
        out = capsys.readouterr().out
        assert ".facts files" in out and "relation files" in out


def _only_receipt(store):
    from repro.warehouse import iter_receipts, load_receipt

    (path,) = iter_receipts(str(store))
    return load_receipt(path)


class TestBenchSuite:
    """``repro bench`` with no benchmark name runs the engine comparison."""

    def test_tiny_suite_writes_report(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--suite",
                "tiny",
                "--repeat",
                "1",
                "--receipt-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "geomean" in out and "receipt appended:" in out
        receipt = _only_receipt(tmp_path)
        assert receipt["kind"] == "bench-solver"
        assert receipt["payload"]["suite"] == "tiny"
        assert receipt["payload"]["entries"]

    def test_flavor_subset(self, tmp_path, capsys):
        rc = main(
            [
                "bench",
                "--suite",
                "tiny",
                "--repeat",
                "1",
                "--flavors",
                "2objH",
                "--receipt-dir",
                str(tmp_path),
            ]
        )
        assert rc == 0
        assert _only_receipt(tmp_path)["payload"]["flavors"] == ["2objH"]

    def test_receipt_dir_defaults_to_the_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        rc = main(["bench", "--kind", "datalog", "--suite", "tiny",
                   "--repeat", "1", "--flavors", "2objH"])
        assert rc == 0
        assert _only_receipt(tmp_path)["kind"] == "bench-datalog"

    def test_unknown_suite_is_an_error(self, tmp_path, capsys):
        rc = main(
            ["bench", "--suite", "nope", "--receipt-dir", str(tmp_path)]
        )
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


class TestBench:
    def test_known_benchmark(self, capsys):
        assert main(["bench", "antlr", "--analysis", "insens"]) == 0
        out = capsys.readouterr().out
        assert "spec: antlr" in out and "stats:" in out

    def test_unknown_benchmark(self, capsys):
        assert main(["bench", "nope"]) == 2
        assert "unknown benchmark" in capsys.readouterr().out

    def test_introspective_timeout_exit_code(self, capsys):
        rc = main(
            [
                "bench",
                "hsqldb",
                "--analysis",
                "2objH",
                "--budget",
                "150000",
            ]
        )
        assert rc == 3

    def test_introspective_rescues(self, capsys):
        rc = main(
            [
                "bench",
                "hsqldb",
                "--analysis",
                "2objH",
                "--introspective",
                "B",
                "--heuristic-constants",
                "150,250",
                "--budget",
                "150000",
            ]
        )
        assert rc == 0


class TestList:
    def test_benchmarks_listed(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("antlr", "jython", "hsqldb"):
            assert name in out


class TestServe:
    def test_max_queue_depth_applies_without_journal(self, monkeypatch):
        import repro.service.api

        seen = {}
        monkeypatch.setattr(
            repro.service.api, "serve", lambda **kwargs: seen.update(kwargs)
        )
        main(["serve", "--port", "0", "--max-queue-depth", "3"])
        assert seen["max_queue_depth"] == 3
        assert seen["journal"] is None


class TestTrace:
    def test_analyze_trace_writes_chrome_json(self, source_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "out.json"
        rc = main(
            ["analyze", source_file, "--analysis", "2objH",
             "--trace", str(trace_path)]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote trace" in out
        assert "span" in out  # the summary table header
        trace = json.loads(trace_path.read_text())
        assert trace["displayTimeUnit"] == "ms"
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        # The whole pipeline is covered: frontend, facts, solver, clients.
        assert len(names) >= 6
        assert {"frontend.parse", "facts.encode", "solver.propagate",
                "clients.precision"} <= names

    def test_analyze_trace_default_filename(self, source_file, tmp_path,
                                            capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["analyze", source_file, "--trace"])
        assert rc == 0
        assert (tmp_path / "TRACE.json").exists()

    def test_untraced_run_writes_nothing(self, source_file, tmp_path,
                                         capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(["analyze", source_file])
        assert rc == 0
        assert not (tmp_path / "TRACE.json").exists()
        assert "wrote trace" not in capsys.readouterr().out

    def test_precision_row_printed_only_on_request(self, source_file,
                                                   capsys):
        # The runner measures every finished run; the row is opt-in.
        assert main(["analyze", source_file]) == 0
        assert "precision:" not in capsys.readouterr().out
        assert main(["analyze", source_file, "--precision"]) == 0
        assert "precision:" in capsys.readouterr().out

    def test_traced_run_records_precision_client(self, source_file,
                                                 tmp_path, capsys):
        import json

        trace_path = tmp_path / "out.json"
        assert main(["analyze", source_file, "--trace", str(trace_path)]) == 0
        assert "precision:" not in capsys.readouterr().out
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert "clients.precision" in names

    def test_bench_suite_trace_cell(self, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        rc = main(
            ["bench", "--suite", "tiny", "--repeat", "1",
             "--flavors", "2objH", "--receipt-dir", str(tmp_path / "wh"),
             "--trace", str(trace_path)]
        )
        assert rc == 0
        cell = _only_receipt(tmp_path / "wh")["payload"]["trace"]
        assert cell["benchmark"] == "micro"
        assert cell["flavor"] == "2objH"
        assert cell["untraced_cpu_seconds"] > 0
        assert cell["traced_cpu_seconds"] > 0
        assert isinstance(cell["overhead_percent"], float)
        assert "solver.propagate" in cell["span_names"]
        trace = json.loads(trace_path.read_text())
        assert len(trace["traceEvents"]) == cell["events"] > 0

    def test_bench_suite_without_trace_keeps_schema(self, tmp_path, capsys):
        rc = main(
            ["bench", "--suite", "tiny", "--repeat", "1",
             "--flavors", "2objH", "--receipt-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "trace" not in _only_receipt(tmp_path)["payload"]


class TestQuery:
    """``repro query``: the demand engine's command-line surface."""

    def test_single_variable_text_output(self, source_file, capsys):
        rc = main(
            ["query", "Main.main/0/g", "--source", source_file,
             "--flavor", "2objH"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "pts(Main.main/0/g) = ['Main.main/0/new Exc/1']" in out
        assert "slice:" in out and "of program" in out

    def test_json_output_carries_answer_schema(self, source_file, capsys):
        import json

        rc = main(
            ["query", "Main.main/0/g", "--source", source_file, "--json"]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"facts_digest", "flavor", "answers"}
        from pathlib import Path

        from repro import encode_program
        from repro.frontend import parse_source

        program = parse_source(Path(source_file).read_text())
        assert doc["facts_digest"] == encode_program(program).digest()
        (answer,) = doc["answers"]
        assert answer["var"] == "Main.main/0/g"
        assert answer["points_to"] == ["Main.main/0/new Exc/1"]

    def test_trace_records_query_spans(self, source_file, tmp_path, capsys):
        import json

        trace_path = tmp_path / "query.json"
        argv = ["query", "Main.main/0/g", "--source", source_file, "--json"]
        assert main(argv) == 0
        untraced = json.loads(capsys.readouterr().out)
        assert main(argv + ["--trace", str(trace_path)]) == 0
        captured = capsys.readouterr()
        traced = json.loads(captured.out)  # the summary went to stderr
        assert "wrote trace" in captured.err
        assert traced["answers"][0]["points_to"] == (
            untraced["answers"][0]["points_to"]
        )
        trace = json.loads(trace_path.read_text())
        names = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        assert {"query.plan", "query.slice", "query.solve"} <= names
        assert "analysis.solve" in names

    def test_batch_file_with_comments(self, source_file, tmp_path, capsys):
        batch = tmp_path / "vars.txt"
        batch.write_text("# queried variables\nMain.main/0/g\n\nMain.main/0/c\n")
        rc = main(["query", "--batch", str(batch), "--source", source_file])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pts(Main.main/0/g)" in out and "pts(Main.main/0/c)" in out

    def test_requires_exactly_one_program_selector(self, source_file, capsys):
        assert main(["query", "Main.main/0/g"]) == 2
        assert (
            main(
                ["query", "Main.main/0/g", "--source", source_file,
                 "--benchmark", "antlr"]
            )
            == 2
        )
        err = capsys.readouterr().err
        assert "exactly one of --benchmark or --source" in err

    def test_requires_some_variable(self, source_file, capsys):
        assert main(["query", "--source", source_file]) == 2
        assert "no variables" in capsys.readouterr().err

    def test_unknown_flavor_is_an_error(self, source_file, capsys):
        rc = main(
            ["query", "Main.main/0/g", "--source", source_file,
             "--flavor", "introspective-Z"]
        )
        assert rc == 2
        assert "introspective" in capsys.readouterr().err

    def test_blown_budget_exits_3(self, source_file, capsys):
        rc = main(
            ["query", "Main.main/0/g", "--source", source_file,
             "--flavor", "2objH", "--max-tuples", "1"]
        )
        assert rc == 3
        assert "TIMEOUT" in capsys.readouterr().out

    def test_benchmark_selector(self, capsys):
        rc = main(
            ["query", "U0.m0/1/g", "--benchmark", "antlr",
             "--flavor", "insens"]
        )
        assert rc == 0
        assert "pts(U0.m0/1/g)" in capsys.readouterr().out


class TestBenchDemand:
    def test_tiny_demand_suite_writes_report(self, tmp_path, capsys):
        rc = main(
            ["bench", "--kind", "demand", "--suite", "tiny", "--repeat", "1",
             "--queries", "2", "--flavors", "2objH",
             "--receipt-dir", str(tmp_path)]
        )
        assert rc == 0
        receipt = _only_receipt(tmp_path)
        assert receipt["kind"] == "bench-demand"
        payload = receipt["payload"]
        assert payload["suite"] == "tiny"
        assert {e["queries"] for e in payload["entries"]} == {2}
        assert payload["geomean_speedup"] > 0
        for key in payload["speedups"]:
            assert key.rsplit("/", 1)[1] in ("query", "batch")

    def test_demand_default_flavors_include_introspective(self, tmp_path):
        """With no --flavors, the demand suite covers an introspective
        variant (the paper's pairing: demand queries x introspection)."""
        rc = main(
            ["bench", "--kind", "demand", "--suite", "tiny", "--repeat", "1",
             "--queries", "1", "--receipt-dir", str(tmp_path)]
        )
        assert rc == 0
        assert "introspective-A" in _only_receipt(tmp_path)["payload"]["flavors"]

    def test_explicit_flavors_are_recorded_exactly(self, tmp_path):
        """An explicit --flavors list is never swapped for the kind's
        default sweep, even when it equals another kind's default."""
        rc = main(
            ["bench", "--kind", "demand", "--suite", "tiny", "--repeat", "1",
             "--queries", "1", "--flavors", "2objH,2typeH,2callH",
             "--receipt-dir", str(tmp_path)]
        )
        assert rc == 0
        receipt = _only_receipt(tmp_path)
        assert receipt["identity"]["flavors"] == ["2objH", "2typeH", "2callH"]
        assert {e["flavor"] for e in receipt["payload"]["entries"]} == {
            "2objH", "2typeH", "2callH"
        }
