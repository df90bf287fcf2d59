"""Fact differ and tier classification."""

from __future__ import annotations

import random

from repro.facts.encoder import encode_program
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.differ import (
    MONOTONIC_HAZARDS,
    classify_delta,
    diff_facts,
    negation_tainted,
)
from repro.incremental.edits import random_edit_script
from tests.conftest import build_kitchen_sink_program, build_tiny_program


def delta_for(script, sketch):
    before = encode_program(sketch.build())
    script.apply(sketch)
    after = encode_program(sketch.build())
    return diff_facts(before, after), before


def test_identity_diff_is_empty():
    facts = encode_program(build_tiny_program())
    delta = diff_facts(facts, facts)
    assert delta.is_empty
    assert delta.rows_added == delta.rows_removed == 0
    assert classify_delta(delta, frozenset()) == ("noop", "no fact changes")


def test_pure_addition_is_monotonic():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    old_methods = {m.id for m in sketch.build().methods()}
    script = random_edit_script(
        sketch, random.Random(3), edits=1, allow_removals=False, kinds=("alloc",)
    )
    delta, _ = delta_for(script, sketch)
    assert not delta.removed
    tier, reason = classify_delta(delta, old_methods)
    assert tier == "monotonic"
    assert "pure additions" in reason


def test_deletion_forces_recompute():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    old_methods = {m.id for m in sketch.build().methods()}
    script = random_edit_script(
        sketch, random.Random(5), edits=1, kinds=("delete",)
    )
    delta, _ = delta_for(script, sketch)
    assert delta.removed
    # Instruction retractions in a surviving method: delete-and-rederive,
    # the reason naming the retracted relations ...
    tier, reason = classify_delta(delta, old_methods)
    assert tier == "rederive"
    assert reason == ", ".join(sorted(delta.removed))
    # ... a method removed outright, or a hazard relation retracted,
    # re-solves from scratch.
    tier, reason = classify_delta(
        delta, old_methods, removed_methods={"Main.main/0"}
    )
    assert (tier, reason) == ("full", "removed methods: Main.main/0")
    from repro.incremental.differ import FactDelta

    catch = FactDelta(added={}, removed={"CATCHCLAUSE": frozenset({("M", "T", "v")})})
    assert classify_delta(catch, old_methods) == (
        "full", "retractions in CATCHCLAUSE cannot be rederived"
    )


def test_hazard_addition_forces_recompute():
    from repro.incremental.differ import FactDelta

    delta = FactDelta(
        added={"SUBTYPE": frozenset({("A", "B")})},
        removed={},
    )
    tier, reason = classify_delta(delta, frozenset())
    assert tier == "full"
    assert "SUBTYPE" in reason


def test_method_structure_on_old_method_forces_recompute():
    from repro.incremental.differ import FactDelta

    delta = FactDelta(
        added={"FORMALARG": frozenset({("Old.m/1", 0, "p")})},
        removed={},
    )
    assert classify_delta(delta, {"Old.m/1"})[0] == "full"
    # ... but the same addition on a brand-new method is monotonic.
    assert classify_delta(delta, frozenset())[0] == "monotonic"


def test_call_structure_on_old_invocation_forces_recompute():
    from repro.incremental.differ import FactDelta

    delta = FactDelta(
        added={"ACTUALARG": frozenset({("invo7", 0, "arg")})},
        removed={},
    )
    assert classify_delta(delta, frozenset(), {"invo7"})[0] == "full"
    assert classify_delta(delta, frozenset(), frozenset())[0] == "monotonic"


def test_hazard_set_covers_negation_tainted_edb():
    # The frozen hazard constant must stay a superset of what the Datalog
    # model actually derives into negated predicates; if a rule change
    # taints a new EDB relation this pins the constant to the derivation.
    from repro.analysis.datalog_model import DatalogPointsToAnalysis
    from repro.contexts.policies import policy_by_name

    program = build_tiny_program()
    facts = encode_program(program)
    policy = policy_by_name("insens", alloc_class_of=facts.alloc_class_of)
    model = DatalogPointsToAnalysis(program, policy, facts=facts)
    tainted = negation_tainted(model.rule_program)
    edb = set(facts.as_relation_dict())
    assert (tainted & edb) <= MONOTONIC_HAZARDS
