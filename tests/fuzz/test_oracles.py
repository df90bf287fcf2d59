"""The oracle catalogue: every oracle passes on known-good programs and
fires on hand-constructed violations."""

import random

import pytest

from repro import encode_program, policy_by_name
from repro.analysis.datalog_model import DatalogPointsToAnalysis
from repro.analysis.reference_solver import reference_solve
from repro.analysis.results import AnalysisResult
from repro.analysis.solver import solve
from repro.benchgen.dacapo import build_benchmark
from repro.fuzz.oracles import (
    ORACLES,
    Violation,
    check_digest_invariance,
    check_engine_equivalence,
    check_insensitive_containment,
    check_introspective_bracketing,
    check_trace_transparency,
    check_tuple_budget_exactness,
    reference_relations,
    solver_relations,
)
from repro.introspection import RefineEverything, run_introspective
from tests.conftest import build_box_program, build_tiny_program

FLAVORS = ["insens", "2objH", "2typeH", "2callH"]


@pytest.fixture(scope="module")
def box():
    program = build_box_program()
    return program, encode_program(program)


def policy_for(flavor, facts):
    return policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_engine_equivalence_holds_on_box(box, flavor):
    program, facts = box
    packed = solver_relations(
        solve(program, policy_for(flavor, facts), facts=facts)
    )
    ref = reference_relations(
        reference_solve(program, policy_for(flavor, facts), facts=facts)
    )
    dl = DatalogPointsToAnalysis(
        program, policy_for(flavor, facts), facts=facts
    ).run()
    datalog = (
        dl.var_points_to,
        dl.fld_points_to,
        dl.call_graph,
        dl.reachable,
        dl.throw_points_to,
    )
    assert check_engine_equivalence(flavor, packed, ref, datalog) is None


def test_engine_equivalence_detects_any_relation_diff(box):
    program, facts = box
    packed = solver_relations(
        solve(program, policy_for("insens", facts), facts=facts)
    )
    for i in range(5):
        tampered = list(packed)
        tampered[i] = tampered[i] | {("bogus", "tuple")}
        v = check_engine_equivalence("insens", packed, tuple(tampered))
        assert isinstance(v, Violation)
        assert v.oracle == "engine-equivalence"
        assert "only-reference" in v.detail


@pytest.mark.parametrize("flavor", ["2objH", "2typeH", "2callH"])
def test_insensitive_containment_holds(box, flavor):
    program, facts = box
    sensitive = AnalysisResult(
        solve(program, policy_for(flavor, facts), facts=facts), flavor
    )
    insens = AnalysisResult(
        solve(program, policy_for("insens", facts), facts=facts), "insens"
    )
    assert check_insensitive_containment(flavor, sensitive, insens) is None


def test_insensitive_containment_detects_extra_heap(box):
    program, facts = box
    insens = AnalysisResult(
        solve(program, policy_for("insens", facts), facts=facts), "insens"
    )
    sensitive = AnalysisResult(
        solve(program, policy_for("2objH", facts), facts=facts), "2objH"
    )
    some_var = next(iter(sensitive.var_points_to))
    sensitive.var_points_to[some_var].add("phantom-heap")
    v = check_insensitive_containment("2objH", sensitive, insens)
    assert v is not None and v.oracle == "insensitive-containment"


@pytest.mark.parametrize("flavor", ["2objH", "2callH"])
def test_introspective_bracketing_holds(box, flavor):
    program, facts = box
    full = AnalysisResult(
        solve(program, policy_for(flavor, facts), facts=facts), flavor
    )
    outcome = run_introspective(program, flavor)
    assert check_introspective_bracketing(flavor, outcome, full) is None


def test_introspective_bracketing_detects_non_bracketed(box):
    program, facts = box
    outcome = run_introspective(program, "2objH")
    # Claim the "full" run is the pass-1 result: pass1 ⊆ intro fails
    # whenever the introspective run is strictly more precise than pass 1,
    # unless they coincide — construct the opposite direction instead:
    # pretend full == pass1 (the least precise); full ⊆ intro must then
    # fail iff intro is strictly tighter somewhere.  To stay deterministic
    # we tamper directly: inject a phantom tuple into the "full" result.
    full = AnalysisResult(
        solve(program, policy_for("2objH", facts), facts=facts), "2objH"
    )
    some_var = next(iter(full.var_points_to))
    full.var_points_to[some_var].add("phantom-heap")
    v = check_introspective_bracketing("2objH", outcome, full)
    assert v is not None and v.oracle == "introspective-bracketing"


def test_bracketing_is_skipped_when_pass2_timed_out():
    # A supplied pass 1 must fit the budget.  On pmd, 2objH derives more
    # tuples than the insensitive pass, so a budget pass 1 fits exactly
    # trips a refine-everything pass 2.
    program = build_benchmark("pmd")
    facts = encode_program(program)
    pass1 = AnalysisResult(
        solve(program, policy_for("insens", facts), facts=facts), "insens"
    )
    outcome = run_introspective(
        program,
        "2objH",
        RefineEverything(),
        pass1=pass1,
        max_tuples=pass1.raw.tuple_count,
    )
    assert outcome.timed_out and outcome.result is None
    full = AnalysisResult(
        solve(program, policy_for("2objH", facts), facts=facts), "2objH"
    )
    assert check_introspective_bracketing("2objH", outcome, full) is None


def test_digest_invariance_holds(box):
    _program, facts = box
    assert check_digest_invariance(facts, random.Random(0)) is None
    assert check_digest_invariance(facts, random.Random(999)) is None


@pytest.mark.parametrize("flavor", ["insens", "2objH"])
def test_tuple_budget_exactness_holds(box, flavor):
    program, facts = box
    raw = solve(program, policy_for(flavor, facts), facts=facts)
    v = check_tuple_budget_exactness(
        program, policy_for(flavor, facts), facts, raw.tuple_count, flavor
    )
    assert v is None


def test_tuple_budget_exactness_detects_wrong_count(box):
    program, facts = box
    raw = solve(program, policy_for("insens", facts), facts=facts)
    v = check_tuple_budget_exactness(
        program,
        policy_for("insens", facts),
        facts,
        raw.tuple_count - 1,  # wrong "expected": exact budget now raises
        "insens",
    )
    assert v is not None and v.oracle == "tuple-budget-exactness"


def test_catalogue_is_complete_and_described():
    assert set(ORACLES) == {
        "engine-equivalence",
        "insensitive-containment",
        "introspective-bracketing",
        "digest-invariance",
        "tuple-budget-exactness",
        "trace-transparency",
        "incremental-equivalence",
        "demand-equivalence",
    }
    assert all(ORACLES[name] for name in ORACLES)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_trace_transparency_holds(box, flavor):
    program, facts = box
    untraced = solver_relations(
        solve(program, policy_for(flavor, facts), facts=facts)
    )
    v = check_trace_transparency(
        program, policy_for(flavor, facts), facts, untraced, flavor=flavor
    )
    assert v is None


def test_trace_transparency_detects_relation_diff(box):
    program, facts = box
    untraced = solver_relations(
        solve(program, policy_for("insens", facts), facts=facts)
    )
    # Corrupt the baseline: drop one VARPOINTSTO tuple.  The traced
    # re-solve now "disagrees", which is exactly what the oracle reports.
    dropped = (frozenset(list(untraced[0])[1:]),) + untraced[1:]
    v = check_trace_transparency(
        program, policy_for("insens", facts), facts, dropped, flavor="insens"
    )
    assert v is not None and v.oracle == "trace-transparency"
    assert "VARPOINTSTO" in v.detail


def test_violation_str_mentions_flavor():
    v = Violation(oracle="engine-equivalence", detail="boom", flavor="2objH")
    assert "2objH" in str(v) and "boom" in str(v)
    v2 = Violation(oracle="digest-invariance", detail="boom")
    assert str(v2).startswith("digest-invariance")


def test_relations_cover_throws():
    program = build_tiny_program()
    facts = encode_program(program)
    packed = solver_relations(
        solve(program, policy_for("insens", facts), facts=facts)
    )
    ref = reference_relations(
        reference_solve(program, policy_for("insens", facts), facts=facts)
    )
    assert len(packed) == 5 and len(ref) == 5
    assert packed == ref


@pytest.mark.parametrize("flavor", FLAVORS)
def test_demand_equivalence_holds(box, flavor):
    from repro import analyze
    from repro.fuzz.oracles import check_demand_equivalence

    program, facts = box
    results = {
        name: analyze(program, name, facts=facts)
        for name in dict.fromkeys(("insens", flavor))
    }
    v = check_demand_equivalence(
        program, facts, results, random.Random(0), sample=8
    )
    assert v is None


def test_demand_equivalence_detects_projection_drift(box):
    from repro import analyze
    from repro.fuzz.oracles import check_demand_equivalence

    program, facts = box
    insens = analyze(program, "insens", facts=facts)
    # Lie to the oracle: claim the insensitive result is the 2objH
    # whole-program answer.  On the box program 2objH is strictly more
    # precise, so some demand answer must differ and the oracle fires.
    results = {"insens": insens, "2objH": insens}
    v = check_demand_equivalence(
        program, facts, results, random.Random(0), sample=64
    )
    assert v is not None and v.oracle == "demand-equivalence"
    assert v.engines == ("demand", "whole-program")
