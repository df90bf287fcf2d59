"""Warm sessions must equal from-scratch on every tier."""

from __future__ import annotations

import random

import pytest

from repro.fuzz.sketch import ProgramSketch
from repro.incremental.edits import (
    AddClass,
    EditScript,
    RemoveClass,
    random_edit_script,
)
from repro.incremental.session import (
    RESULT_RELATIONS,
    IncrementalSession,
)
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)

PROGRAMS = {
    "tiny": build_tiny_program,
    "boxes": build_box_program,
    "kitchen-sink": build_kitchen_sink_program,
}
#: The packed solver is the one warm engine; the parameter keeps the
#: node ids (``[tiny-solver]``, ``[solver]``) and the edit seeds stable.
ENGINES = ("solver",)
TIERS = ("noop", "monotonic", "full")


def make_session(name="kitchen-sink", analysis="2objH"):
    sketch = ProgramSketch.from_program(PROGRAMS[name]())
    return IncrementalSession(sketch, analysis=analysis)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_edit_sequences_stay_equivalent_to_scratch(engine, name):
    session = make_session(name)
    rng = random.Random(f"{engine}/{name}")
    for step in range(4):
        script = random_edit_script(session.sketch, rng, edits=2)
        out = session.apply(script)
        assert out.tier in TIERS
        assert session.check_against_scratch() == [], (name, step)
    assert session.edits_applied >= 4
    assert sum(session.tier_counts.values()) == 4


@pytest.mark.parametrize("engine", ENGINES)
def test_monotonic_tier_taken_for_pure_additions(engine):
    session = make_session()
    rng = random.Random(11)
    script = random_edit_script(
        session.sketch, rng, edits=1, allow_removals=False, kinds=("alloc",)
    )
    out = session.apply(script)
    assert out.tier == "monotonic"
    assert not out.result_removed
    assert session.check_against_scratch() == []


@pytest.mark.parametrize("engine", ENGINES)
def test_deletion_takes_a_recompute_tier(engine):
    session = make_session()
    rng = random.Random(13)
    script = random_edit_script(session.sketch, rng, edits=1, kinds=("delete",))
    out = session.apply(script)
    assert out.tier == "full"
    assert session.check_against_scratch() == []


def test_noop_script_reports_noop_and_empty_deltas():
    session = make_session()
    before = session.relations()
    out = session.apply(EditScript([AddClass("ZTemp"), RemoveClass("ZTemp")]))
    assert out.tier == "noop"
    assert not out.result_added and not out.result_removed
    assert session.relations() == before


def test_result_delta_matches_relation_diff_exactly():
    # The solver's O(delta) reported additions must equal the brute-force
    # before/after set difference — the cheap path may not drop or invent
    # a single tuple.
    session = make_session()
    rng = random.Random(17)
    for _ in range(3):
        before = session.relations()
        script = random_edit_script(
            session.sketch, rng, edits=1, allow_removals=False
        )
        out = session.apply(script)
        after = session.relations()
        for name in RESULT_RELATIONS:
            plus = after[name] - before[name]
            minus = before[name] - after[name]
            assert out.result_added.get(name, frozenset()) == plus, name
            assert out.result_removed.get(name, frozenset()) == minus, name


def test_failed_edit_leaves_session_consistent():
    session = make_session()
    digest = session.facts.digest()
    before = session.relations()
    with pytest.raises(Exception):
        session.apply(EditScript([RemoveClass("NoSuchClass")]))
    assert session.facts.digest() == digest
    assert session.relations() == before
    assert session.check_against_scratch() == []
    # ... and the session still accepts edits afterwards.
    out = session.apply(EditScript([AddClass("ZAfter")]))
    assert out.tier in TIERS


def test_budget_trip_mid_extend_keeps_session_usable():
    # A tuple budget that survives the initial solve but trips during a
    # later extension must not poison the warm engine: the session
    # recovers to its previous state and keeps answering.
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    probe = IncrementalSession(sketch, analysis="2objH")
    budget = len(probe.relations()["VARPOINTSTO"]) + 40

    session = IncrementalSession(sketch, analysis="2objH", max_tuples=budget)
    digest = session.facts.digest()
    rng = random.Random(23)
    tripped = False
    for _ in range(20):
        script = random_edit_script(
            session.sketch, rng, edits=2, allow_removals=False
        )
        try:
            session.apply(script)
            digest = session.facts.digest()
        except Exception:
            tripped = True
            break
    assert tripped, "budget never tripped; test needs a smaller margin"
    assert session.facts.digest() == digest
    assert session.check_against_scratch() == []


def test_outcome_payload_is_json_shaped():
    import json

    session = make_session()
    out = session.apply(
        random_edit_script(session.sketch, random.Random(29), edits=2)
    )
    payload = out.to_payload(max_rows_per_relation=5)
    encoded = json.dumps(payload)  # must not raise
    assert json.loads(encoded)["tier"] == out.tier
    for rel in payload["result_delta"]["added"].values():
        assert len(rel["rows"]) <= 5
        assert rel["count"] >= len(rel["rows"])
    assert payload["timing"]["apply_seconds"] >= 0
    assert payload["timing"]["solve_seconds"] >= 0
