"""Tests for the Doop-style facts/solution serialization."""

import pytest

from repro import analyze, encode_program
from repro.analysis.datalog_model import DatalogPointsToAnalysis
from repro.contexts import InsensitivePolicy
from repro.facts.encoder import FactBase
from repro.facts.io import load_facts, save_facts, save_solution
from repro.facts.schema import INPUT_RELATIONS


class TestFactsRoundTrip:
    def test_all_relations_written(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        written = save_facts(facts, tmp_path)
        names = {p.stem for p in written}
        assert names == set(INPUT_RELATIONS) - {"SITETOREFINE", "OBJECTTOREFINE"}
        assert all(p.suffix == ".facts" for p in written)

    def test_roundtrip_identical(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        save_facts(facts, tmp_path)
        loaded = load_facts(tmp_path)
        original = facts.as_relation_dict()
        for name, rows in original.items():
            assert sorted(map(tuple, rows)) == sorted(loaded[name]), name

    def test_int_columns_restored(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        save_facts(facts, tmp_path)
        loaded = load_facts(tmp_path)
        assert all(isinstance(row[1], int) for row in loaded["FORMALARG"])

    def test_model_runs_from_reloaded_facts(self, tiny_program, tmp_path):
        """The paper's save-the-first-run-database workflow: the Datalog
        model over reloaded facts equals the model over fresh facts."""
        facts = encode_program(tiny_program)
        save_facts(facts, tmp_path)
        loaded = load_facts(tmp_path)

        fresh = DatalogPointsToAnalysis(tiny_program, InsensitivePolicy(), facts=facts)
        fresh_result = fresh.run()

        reloaded = DatalogPointsToAnalysis(
            tiny_program, InsensitivePolicy(), facts=facts
        )
        # replace the engine's EDB with the reloaded tuples
        from repro.analysis.datalog_model import build_rules
        from repro.datalog.engine import Engine

        engine = Engine(build_rules(InsensitivePolicy(), InsensitivePolicy()))
        engine.load(loaded)
        engine.run()
        assert engine.query("VARPOINTSTO") == set(fresh_result.var_points_to)
        assert engine.query("REACHABLE") == set(fresh_result.reachable)

    def test_fact_base_rebuilt_from_files(self, tiny_program, tmp_path):
        """``FactBase.from_relations`` over reloaded files re-derives the
        encoder's indexes exactly."""
        facts = encode_program(tiny_program)
        save_facts(facts, tmp_path)
        rebuilt = FactBase.from_relations(tiny_program, load_facts(tmp_path))
        assert rebuilt.digest() == facts.digest()
        for attr in (
            "heap_type",
            "alloc_class",
            "vars_of_method",
            "args_of_invo",
            "method_of_invo",
            "vcall_invos",
            "all_heaps",
            "string_const_heaps",
        ):
            assert getattr(rebuilt, attr) == getattr(facts, attr), attr

    def test_unknown_relation_file_rejected(self, tmp_path):
        (tmp_path / "BOGUS.facts").write_text("a\tb\n")
        with pytest.raises(ValueError, match="unknown relation"):
            load_facts(tmp_path)

    def test_bad_arity_rejected(self, tmp_path):
        (tmp_path / "MOVE.facts").write_text("only-one-column\n")
        with pytest.raises(ValueError, match="expected 2 columns"):
            load_facts(tmp_path)


class TestSolutionDump:
    def test_solution_files(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        result = analyze(tiny_program, "2objH", facts=facts)
        written = save_solution(result, tmp_path)
        names = {p.stem for p in written}
        assert names == {
            "VARPOINTSTO",
            "FLDPOINTSTO",
            "CALLGRAPH",
            "REACHABLE",
            "THROWPOINTSTO",
        }
        vpt = (tmp_path / "VARPOINTSTO.csv").read_text().splitlines()
        assert len(vpt) == result.stats().var_pts_tuples

    def test_context_rendering(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        result = analyze(tiny_program, "2objH", facts=facts)
        save_solution(result, tmp_path)
        reach = (tmp_path / "REACHABLE.csv").read_text()
        # the star context renders as empty; object contexts as heap names
        assert "Main.main/0\t\n" in reach
        assert "Main.main/0/new A/0" in reach

    def test_deterministic_output(self, tiny_program, tmp_path):
        facts = encode_program(tiny_program)
        result = analyze(tiny_program, "insens", facts=facts)
        save_solution(result, tmp_path / "a")
        save_solution(result, tmp_path / "b")
        for name in ("VARPOINTSTO", "CALLGRAPH"):
            assert (tmp_path / "a" / f"{name}.csv").read_text() == (
                tmp_path / "b" / f"{name}.csv"
            ).read_text()
