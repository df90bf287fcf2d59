"""Tests for the budgeted run wrapper."""

import pytest

from repro.analysis import PackedProgram
from repro.harness import run_analysis, run_introspective_analysis
from repro.harness.runner import scaled_heuristic_a, scaled_heuristic_b
from repro.introspection import RefineEverything
from tests.conftest import build_box_program


@pytest.fixture(scope="module")
def setup():
    program = build_box_program()
    return program, PackedProgram(program)


class TestRunAnalysis:
    def test_successful_run(self, setup):
        program, pack = setup
        out = run_analysis(program, "2objH", pack=pack, benchmark="boxes")
        assert not out.timed_out
        assert out.benchmark == "boxes"
        assert out.analysis == "2objH"
        assert out.stats is not None and out.tuples > 0
        assert out.precision is not None
        assert out.seconds >= 0
        assert "t" in out.cell()

    def test_timeout_run(self, setup):
        program, pack = setup
        out = run_analysis(program, "2objH", pack=pack, max_tuples=5)
        assert out.timed_out
        assert out.stats is None and out.precision is None
        assert out.tuples is None
        assert out.cell() == "TIMEOUT"
        assert "tuple budget exceeded" in out.reason

    def test_precision_always_measured(self, setup):
        program, pack = setup
        out = run_analysis(program, "insens", pack=pack)
        assert out.precision is not None and out.stats is not None
        assert out.precision.reachable_methods == out.stats.reachable_methods


class TestRunIntrospective:
    def test_successful_run(self, setup):
        program, pack = setup
        insens = run_analysis(program, "insens", pack=pack)
        out = run_introspective_analysis(
            program,
            "2objH",
            scaled_heuristic_a(),
            pack=pack,
            pass1=insens.result,
        )
        assert out.analysis == "2objH-IntroA"
        assert not out.timed_out
        assert out.introspective is not None
        assert out.introspective.refinement_stats.total_objects > 0

    def test_timeout_reported_not_raised(self, setup):
        program, pack = setup
        insens = run_analysis(program, "insens", pack=pack)
        out = run_introspective_analysis(
            program,
            "2objH",
            RefineEverything(),
            pack=pack,
            pass1=insens.result,
            max_tuples=5,
        )
        assert out.timed_out and out.precision is None
        assert "tuple budget exceeded" in out.reason

    def test_pass1_trip_reported_not_raised(self, setup):
        program, pack = setup
        out = run_introspective_analysis(
            program, "2objH", scaled_heuristic_a(), pack=pack, max_tuples=5
        )
        assert out.timed_out and out.cell() == "TIMEOUT"
        assert out.analysis == "2objH-IntroA"
        assert out.introspective is None and out.result is None
        assert "tuple budget exceeded" in out.reason


class TestScaledHeuristics:
    def test_constants(self):
        a = scaled_heuristic_a()
        assert (a.K, a.L, a.M) == (40, 40, 10)
        b = scaled_heuristic_b()
        assert (b.P, b.Q) == (150, 250)
