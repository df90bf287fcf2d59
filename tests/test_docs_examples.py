"""Executable-documentation tests: code blocks in docs/ must stay true."""

import re
from pathlib import Path

import pytest

from repro import analyze, encode_program
from repro.clients import check_casts
from repro.datalog import Engine, parse_program
from repro.frontend import parse_source

DOCS = Path(__file__).resolve().parent.parent / "docs"


def extract_block(path: Path, language: str, index: int = 0) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", path.read_text(), re.S)
    assert len(blocks) > index, f"no {language} block #{index} in {path.name}"
    return blocks[index]


def payload_block(path: Path, engines: list) -> dict:
    """The one ``json`` block in ``path`` documenting the bench payload
    whose ``"engines"`` is ``engines`` (each kind has its own list).

    Selected by value, not position, so adding or deleting another
    section of a doc cannot silently re-point a payload test.
    """
    import json

    found = []
    for block in re.findall(r"```json\n(.*?)```", path.read_text(), re.S):
        try:
            data = json.loads(block)
        except json.JSONDecodeError:
            continue
        if isinstance(data, dict) and data.get("engines") == engines:
            found.append(data)
    assert len(found) == 1, (
        f"{len(found)} json blocks with engines {engines!r} in {path.name}"
    )
    return found[0]


def assert_payload_documented(doc: str, kind: str, **options) -> dict:
    """The doc's payload example for ``kind`` has exactly the keys of a
    real tiny-suite receipt's payload, of its entry for the same engine,
    and of its trace block."""
    from repro.harness.bench import run_bench

    real = run_bench(kind, "tiny", flavors=("2objH",), repeat=1, **options)
    payload = real["payload"]
    example = payload_block(DOCS / doc, payload["engines"])
    assert set(example) == set(payload)
    (documented,) = example["entries"]
    entry = next(
        e for e in payload["entries"] if e["engine"] == documented["engine"]
    )
    assert set(documented) == set(entry)
    if "trace" in payload:
        assert set(example["trace"]) == set(payload["trace"])
    return payload


class TestSurfaceLanguageDoc:
    def test_worked_example_claims(self):
        code = extract_block(DOCS / "surface-language.md", "java")
        program = parse_source(code)
        facts = encode_program(program)

        insens = analyze(program, "insens", facts=facts)
        assert len(insens.points_to("Main.main/0/got")) == 2
        assert len(check_casts(insens, facts).may_fail) == 1

        obj = analyze(program, "2objH", facts=facts)
        assert obj.points_to("Main.main/0/got") == {"Main.main/0/new Circle/2"}
        assert check_casts(obj, facts).may_fail == frozenset()


class TestDatalogDoc:
    def test_rule_snippet_runs(self):
        rules = extract_block(DOCS / "datalog.md", "prolog")
        engine = Engine(parse_program(rules))
        engine.load(
            {
                "edge": [("root", "a"), ("a", "b"), ("a", "c")],
                "node": [("root",), ("a",), ("b",), ("z",)],
                "edge3": [("a", "b", 3), ("a", "c", 4)],
            }
        )
        engine.run()
        assert ("root", "b") in engine.query("path")
        assert engine.query("lonely") == {("root",), ("z",)}
        assert ("a", 2) in engine.query("outdeg")
        assert ("a", 7) in engine.query("heavy")


class TestAnalysesDoc:
    def test_custom_policy_snippet(self):
        code = extract_block(DOCS / "analyses.md", "python")
        # make the snippet self-contained: give it a program to analyze
        from tests.conftest import build_box_program

        namespace = {"program": build_box_program(), "analyze": analyze}
        exec(compile(code, "analyses.md", "exec"), namespace)
        result = namespace["result"]
        assert result.analysis_name == "2caller"
        assert "Box.get/0" in result.reachable_methods


class TestFuzzingDoc:
    def test_corpus_example_is_a_valid_entry_that_replays_clean(self):
        """The corpus-entry example in fuzzing.md must pass the real
        schema validation, build into a real program, and replay green."""
        import json

        from repro.fuzz import replay_entry, validate_entry
        from repro.fuzz.corpus import CORPUS_SCHEMA
        from repro.fuzz.sketch import ProgramSketch

        entry = json.loads(extract_block(DOCS / "fuzzing.md", "json"))
        assert entry["schema"] == CORPUS_SCHEMA
        validate_entry(entry)
        program = ProgramSketch.from_json(entry["program"]).build()
        assert program.entry_points
        assert replay_entry(entry) is None

    def test_oracle_and_mutator_catalogues_are_documented(self):
        """Every oracle and every mutator the code knows is named in the
        doc, and the doc names no oracle the code lacks."""
        import re as _re

        from repro.fuzz import MUTATORS, ORACLES

        text = (DOCS / "fuzzing.md").read_text()
        for name in list(ORACLES) + list(MUTATORS):
            assert f"`{name}`" in text, f"{name} missing from fuzzing.md"
        # the oracle table rows are single-name: they must all be real
        table = set(_re.findall(r"^\| `([a-z-]+)` \|", text, _re.M))
        assert set(ORACLES) <= table | set(MUTATORS)


class TestPerformanceDoc:
    """Each documented bench payload has exactly a real receipt's keys."""

    def test_schema_example_matches_real_report(self):
        assert_payload_documented(
            "performance.md", "solver", on_trace=lambda _tracer: None
        )

    def test_datalog_schema_example_matches_real_report(self):
        assert_payload_documented("performance.md", "datalog")

    def test_incremental_schema_example_matches_real_report(self):
        assert_payload_documented("performance.md", "incremental")


class TestObservabilityDoc:
    def test_tracer_example_runs_and_schema_claims_hold(self):
        """Both python blocks in observability.md execute as written: the
        usage example against a real program, then the schema-claims
        block against the trace it produced."""
        from tests.conftest import build_box_program

        namespace = {"program": build_box_program()}
        usage = extract_block(DOCS / "observability.md", "python", index=0)
        exec(compile(usage, "observability.md#0", "exec"), namespace)
        schema = extract_block(DOCS / "observability.md", "python", index=1)
        exec(compile(schema, "observability.md#1", "exec"), namespace)
        assert namespace["summary"]["analysis.solve"]["count"] == 1
        assert "analysis.solve" in namespace["table"]

    def test_span_catalogue_is_complete(self):
        """Every span name the code emits is documented, and the doc
        documents no span the code cannot emit."""
        import re as _re
        import subprocess

        text = (DOCS / "observability.md").read_text()
        documented = set(_re.findall(r"^\| `([a-z._]+)` \|", text, _re.M))
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        emitted = set()
        for path in src.rglob("*.py"):
            if path.name == "tracer.py":
                continue
            emitted |= set(
                _re.findall(r"\.span\(\s*\"([a-z._]+)\"", path.read_text())
            )
        assert emitted == documented, emitted ^ documented

    def test_no_untraced_forks(self):
        """Instrumented code has one path: it traces into the default
        NULL_TRACER instead of forking on a missing tracer or closing
        spans by hand."""
        import re as _re

        fork = _re.compile(
            r"tracer is (not )?None|__exit__\(None, None, None\)"
        )
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        offenders = [
            f"{path.relative_to(src)}:{lineno}"
            for path in src.rglob("*.py")
            if path.parent.name != "obs"
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if fork.search(line)
        ]
        assert offenders == []


class TestIncrementalDoc:
    def test_usage_block_executes_as_written(self):
        """The python block in incremental.md is the subsystem's contract:
        it must run verbatim against a real program."""
        from tests.conftest import build_kitchen_sink_program

        namespace = {"program": build_kitchen_sink_program()}
        code = extract_block(DOCS / "incremental.md", "python")
        exec(compile(code, "incremental.md", "exec"), namespace)
        session = namespace["session"]
        assert session.check_against_scratch() == []
        assert session.tier_counts.get("monotonic", 0) >= 1

    def test_tier_table_matches_the_code(self):
        """Every tier the session can report is named in the doc's tier
        table, and the hazard relations the doc cites are the real ones."""
        from repro.incremental import MONOTONIC_HAZARDS, REDERIVE_RELATIONS

        text = (DOCS / "incremental.md").read_text()
        for tier in ("noop", "monotonic", "rederive", "full"):
            assert f"`{tier}`" in text, tier
        for relation in MONOTONIC_HAZARDS - {"SITENOTTOREFINE", "OBJECTNOTTOREFINE"}:
            assert relation in text, relation
        for relation in REDERIVE_RELATIONS:
            assert f"`{relation}`" in text, relation

    def test_edit_vocabulary_is_complete(self):
        """Every JSON op the wire format accepts is named in the doc."""
        from repro.incremental.edits import _EDIT_OPS

        text = (DOCS / "incremental.md").read_text()
        for op in _EDIT_OPS:
            assert f"`{op}`" in text, op


class TestWarehouseDoc:
    def test_receipt_example_is_a_valid_receipt(self):
        """The receipt example in warehouse.md must pass the real schema
        validation and carry exactly the keys real receipts carry."""
        import json

        from repro.harness.bench import run_bench
        from repro.warehouse import cells_of, validate_receipt

        example = json.loads(extract_block(DOCS / "warehouse.md", "json"))
        validate_receipt(example)

        # Same shape as a receipt the producers actually write.
        real = run_bench("solver", "tiny", flavors=("2objH",), repeat=1)
        assert set(example) == set(real)
        for block in ("provenance", "identity", "payload"):
            assert set(example[block]) == set(real[block]), block

        # And it bins like one: a speedup cell per speedups entry.
        (cell,) = cells_of(example)
        assert cell["unit"] == "speedup"
        assert cell["value"] == 3.4

    def test_doc_names_every_kind_and_both_cli_surfaces(self):
        from repro.warehouse import KINDS

        text = (DOCS / "warehouse.md").read_text()
        for kind in KINDS:
            assert f"`{kind}`" in text, kind
        assert "--gate" in text and "--max-regression" in text
        assert "repro report" in text


class TestServiceDoc:
    def test_journal_record_example_is_valid_and_replayable(self):
        """The journal-record example in service.md must pass the real
        checksum validation, carry a spec that builds a real JobSpec, and
        fold into the pending set like any journaled acceptance."""
        import json

        from repro.service import JobSpec
        from repro.service.journal import (
            JOURNAL_SCHEMA,
            pending_jobs,
            record_is_valid,
        )

        records = []
        for block in re.findall(
            r"```json\n(.*?)```", (DOCS / "service.md").read_text(), re.S
        ):
            try:
                data = json.loads(block)
            except json.JSONDecodeError:
                continue  # the commented request/response sketches
            if isinstance(data, dict) and "schema" in data:
                records.append(data)
        (record,) = records
        assert record["schema"] == JOURNAL_SCHEMA
        assert record_is_valid(record)

        spec = JobSpec.from_payload(record["spec"])
        assert spec.benchmark == "antlr"
        pending, attempts = pending_jobs([record])
        assert set(pending) == {record["id"]}
        assert attempts == {}

    def test_doc_names_every_record_type_and_flag(self):
        from repro.service.journal import _RECORD_TYPES

        text = (DOCS / "service.md").read_text()
        for record_type in _RECORD_TYPES:
            assert f"`{record_type}`" in text, record_type
        for flag in ("--journal", "--max-queue-depth"):
            assert f"`{flag}" in text, flag


class TestQueriesDoc:
    def test_usage_block_executes_as_written(self):
        """The python block in queries.md is the engine's contract: it
        must run verbatim against a real program."""
        from tests.conftest import build_box_program

        namespace = {"program": build_box_program()}
        code = extract_block(DOCS / "queries.md", "python")
        exec(compile(code, "queries.md", "exec"), namespace)
        assert namespace["answer"].points_to  # non-empty under 2objH

    def test_bench_schema_example_matches_real_report(self):
        """The demand payload example has exactly a real receipt's keys,
        and every cell appears twice: once per query mode."""
        payload = assert_payload_documented(
            "queries.md", "demand", queries=2
        )
        for key in payload["speedups"]:
            assert key.rsplit("/", 1)[1] in ("query", "batch")

    def test_http_payload_examples_match_service(self):
        """The request/response examples (first two json blocks) must
        round-trip through the real service handler with exactly the
        documented key sets, error slot included."""
        import json

        from repro.service import AnalysisService

        request = json.loads(extract_block(DOCS / "queries.md", "json", 0))
        response = json.loads(extract_block(DOCS / "queries.md", "json", 1))

        service = AnalysisService(workers=0)
        try:
            real = service.run_queries(dict(request))
            assert set(real) == set(response)
            assert real["flavor"] == request["flavor"]
            ok_example = next(
                a for a in response["answers"] if "error" not in a
            )
            ok_real = next(a for a in real["answers"] if "error" not in a)
            assert set(ok_real) == set(ok_example)

            # A starved budget must produce the documented error slot.
            # (A fresh flavor, so the engine's answer memo cannot serve
            # the repeat without re-solving.)
            starved = service.run_queries(
                {**request, "flavor": "2typeH", "max_tuples": 1}
            )
            err_example = next(
                a for a in response["answers"] if "error" in a
            )
            err_real = next(a for a in starved["answers"] if "error" in a)
            assert set(err_real) == set(err_example)
            assert set(err_real["error"]) == set(err_example["error"])
        finally:
            service.stop()
