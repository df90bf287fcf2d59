"""Warm-extend coverage on the int-bitset representation.

The bitset rewrite of :mod:`repro.analysis.solver` replaced per-variable
``set()`` points-to sets with arbitrary-precision ``int`` masks.  The
resumable-worklist path (:meth:`PointsToSolver.extend`) and the sessions
built on it must be bit-for-bit unchanged by that swap: warm edits report
exactly the deltas a from-scratch diff would, fact digests stay
deterministic across identically-seeded sessions, and the solver's
internal state really is integer masks (a regression back to sets must
fail loudly here, not just run slower).
"""

from __future__ import annotations

import random

from repro.analysis.solver import PointsToSolver, solve
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import encode_program
from repro.fuzz.oracles import solver_relations
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.differ import diff_facts
from repro.incremental.edits import random_edit_script
from repro.incremental.session import RESULT_RELATIONS, IncrementalSession
from tests.conftest import build_kitchen_sink_program


def policy_for(flavor, facts):
    return policy_by_name(flavor, alloc_class_of=facts.alloc_class_of)


def edited_sketch(seed, kinds=None):
    """The kitchen-sink program plus one seeded pure-addition edit."""
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    rng = random.Random(seed)
    script = random_edit_script(
        sketch.clone(), rng, edits=1, allow_removals=False, kinds=kinds
    )
    return sketch, script


def test_pts_state_is_int_masks():
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    program = sketch.build()
    facts = encode_program(program)
    solver = PointsToSolver(program, policy_for("2objH", facts), facts=facts)
    solver.solve()
    assert solver._pts, "solver derived no points-to state"
    assert all(isinstance(mask, int) for mask in solver._pts)
    assert all(isinstance(mask, int) for mask in solver._filter_pairs.values())


def test_extend_delta_equals_scratch_diff():
    """extend() on a warm bitset solver reports exactly the tuples a
    brute-force before/after relation diff finds, and lands on the same
    fixpoint (tuple count included) as a from-scratch solve."""
    sketch, script = edited_sketch(seed=31, kinds=("alloc",))
    program = sketch.build()
    facts = encode_program(program)
    solver = PointsToSolver(program, policy_for("2objH", facts), facts=facts)
    before = solver_relations(solver.solve())

    edited = sketch.clone()
    script.apply(edited)
    program2 = edited.build()
    facts2 = encode_program(program2)
    delta = diff_facts(facts, facts2)
    assert delta.added and not delta.removed

    warm_raw, added = solver.extend(program2, facts2, delta.added)
    after = solver_relations(warm_raw)

    scratch_raw = solve(
        program2, policy_for("2objH", facts2), facts=facts2
    )
    assert warm_raw.tuple_count == scratch_raw.tuple_count
    assert after == solver_relations(scratch_raw)
    for name, was, now in zip(RESULT_RELATIONS, before, after):
        assert frozenset(added.get(name, ())) == now - was, name
        assert was <= now, name  # pure additions are monotone


def test_identically_seeded_warm_sessions_agree_exactly():
    """Two warm sessions fed the same seeded edit stream must report the
    identical tier, result deltas, and fact digest at every step — the
    bitset masks introduce no iteration-order or hashing nondeterminism
    into the O(delta) reporting path."""

    def run():
        session = IncrementalSession(
            ProgramSketch.from_program(build_kitchen_sink_program()),
            analysis="2objH",
        )
        rng = random.Random(37)
        trail = []
        for step in range(3):
            script = random_edit_script(
                session.sketch, rng, edits=2, allow_removals=step == 2
            )
            out = session.apply(script)
            trail.append(
                (
                    out.tier,
                    out.result_added,
                    out.result_removed,
                    session.facts.digest(),
                )
            )
        return session, trail

    a, trail_a = run()
    b, trail_b = run()
    assert trail_a == trail_b
    assert a.relations() == b.relations()


def test_warm_session_digest_and_relations_match_cold_rebuild():
    """After a warm edit sequence, a cold session on the final sketch
    reproduces both the relations and the content-addressed digest —
    warm-extend leaves no representation residue in the facts."""
    session = IncrementalSession(
        ProgramSketch.from_program(build_kitchen_sink_program()),
        analysis="2objH",
    )
    rng = random.Random(41)
    for _ in range(3):
        script = random_edit_script(
            session.sketch, rng, edits=2, allow_removals=False
        )
        session.apply(script)

    cold = IncrementalSession(session.sketch.clone(), analysis="2objH")
    assert cold.facts.digest() == session.facts.digest()
    assert cold.relations() == session.relations()
    assert session.check_against_scratch() == []
