"""The solver and the encoder keep no container per key alive.

Every collector-tracked container a cold run keeps alive moves towards
the next full collection, which walks every resident program.  These
tests pin the three places that used to keep one per key: a compiled
body's empty instruction fields, the tables of a solver's snapshot and
the encoder's per-method and per-call-site indexes.
"""

from __future__ import annotations

import gc
import random

import pytest

from repro.analysis.solver import _INSTR_FIELDS, PointsToSolver
from repro.benchgen.dacapo import build_benchmark
from repro.contexts.policies import policy_by_name
from repro.facts.encoder import (
    FactBase,
    MethodRows,
    assemble_facts,
    encode_program,
    type_rows,
)
from repro.fuzz.sketch import ProgramSketch
from repro.incremental.differ import diff_facts
from repro.incremental.edits import random_edit_script
from tests.conftest import build_box_program, build_kitchen_sink_program
from tests.incremental.test_rederive import build_exception_program

BENCHMARKS = ("xalan", "jython")


def _solver(program, analysis="insens"):
    facts = encode_program(program)
    return PointsToSolver(
        program,
        policy_by_name(analysis, alloc_class_of=facts.alloc_class_of),
        facts=facts,
    )


def _snapshot_keeps(solver):
    """The snapshot, and the tracked objects taking it left alive."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        raw = solver.snapshot()
        return raw, gc.get_count()[0] - before
    finally:
        gc.enable()


@pytest.fixture(scope="module")
def box_snapshot_keeps():
    solver = _solver(build_box_program())
    solver.solve()
    return _snapshot_keeps(solver)[1]


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_solve_holds_no_container_per_key(bench, box_snapshot_keeps):
    """After a whole-program solve no compiled body holds an empty list,
    and a snapshot costs the same handful of tracked objects as on the
    box program, because its tables are views over the solver's own.
    The views read as the tuple-keyed copies they replace."""
    solver = _solver(build_benchmark(bench))
    solver.solve()
    for mb in solver._bodies.values():
        for name in _INSTR_FIELDS:
            entries = getattr(mb, name)
            assert entries == () or (isinstance(entries, list) and entries), name

    raw, keeps = _snapshot_keeps(solver)
    assert keeps == box_snapshot_keeps < 20
    tables = _assert_views_read_as_copies(solver, raw)
    assert len(tables["var_nodes"]) > 1000
    # No analog throws: exceptional flow is never built.
    assert not tables["throw_nodes"] and not solver._throw_cons


def test_throw_view_reads_as_copy_where_exceptions_escape():
    solver = _solver(build_exception_program(), "2objH")
    tables = _assert_views_read_as_copies(solver, solver.solve())
    assert tables["throw_nodes"]


#: A key of each view's shape that no solve holds.
_ABSENT = {
    "var_nodes": (10**6, 0),
    "fld_nodes": (10**6, 0, 0),
    "throw_nodes": (10**6, 0),
}


def _assert_views_read_as_copies(solver, raw):
    """Every view of ``raw`` reads as the tuple-keyed copy of the
    solver's table it replaces; returns the node tables' copies."""
    ph, pc = solver._pair_heap, solver._pair_hctx
    tables = {
        "var_nodes": {
            (var, ctx): node
            for ctx, vmap in solver._var_nodes.items()
            for var, node in vmap.items()
        },
        "fld_nodes": {
            (ph[pid], pc[pid], fld): node
            for fld, fmap in solver._fld_nodes.items()
            for pid, node in fmap.items()
        },
        "throw_nodes": {
            (key >> 32, key & 0xFFFFFFFF): node
            for key, node in solver._throw_nodes.items()
        },
    }
    for name, want in tables.items():
        view = getattr(raw, name)
        assert view == want and len(view) == len(want), name
        assert dict(view.items()) == want, name
        assert sorted(view.values()) == sorted(want.values()), name
        for key, node in list(want.items())[:200]:
            assert key in view and view[key] == node, name
        assert _ABSENT[name] not in view, name
    reachable = {(key >> 32, key & 0xFFFFFFFF) for key in solver._reachable}
    assert raw.reachable == reachable and len(raw.reachable) == len(reachable)
    assert all(key in raw.reachable for key in reachable)
    dispatches = {}
    for key in solver._vcall_targets:
        dispatches.setdefault(key >> 32, set()).add(key & 0xFFFFFFFF)
    assert raw.vcall_dispatches == dispatches
    return tables


@pytest.mark.parametrize(
    "name, build",
    (
        ("var_nodes", build_kitchen_sink_program),
        ("fld_nodes", build_kitchen_sink_program),
        ("throw_nodes", build_exception_program),
    ),
)
def test_node_views_reject_malformed_keys_as_dicts_do(name, build):
    """A key of the wrong shape or type is absent, as in the dict the
    view replaces: ``in`` is false and ``[key]`` raises ``KeyError``."""
    solver = _solver(build(), "2objH")
    view = getattr(solver.solve(), name)
    assert len(view)
    wrong_type = ("a",) * len(_ABSENT[name])
    for key in ((1, 2, 3, 4), (1,), (), "key", 7, None, wrong_type):
        assert key not in view, key
        with pytest.raises(KeyError):
            view[key]
        assert view.get(key) is None, key


def test_reachable_view_rejects_malformed_keys_as_a_set_does():
    solver = _solver(build_exception_program(), "2objH")
    reachable = solver.solve().reachable
    for key in ((1, 2, 3), (1,), "key", 7, None, ("a", "b")):
        assert key not in reachable, key


def _index_tracked(facts):
    """Collector-tracked objects among the two fact indexes and their
    values, after a full collection."""
    gc.collect()
    return sum(
        gc.is_tracked(index) + sum(map(gc.is_tracked, index.values()))
        for index in (facts.args_of_invo, facts.vars_of_method)
    )


@pytest.mark.parametrize("bench", BENCHMARKS)
def test_fact_indexes_hold_no_container_per_key(bench):
    """``args_of_invo`` and ``vars_of_method`` keep at most their two
    dicts tracked, however they were built, and reload equal."""
    program = build_benchmark(bench)
    facts = encode_program(program)
    assert len(facts.args_of_invo) > 1000
    rebuilt = FactBase.from_relations(program, facts.as_relation_dict())
    assembled = assemble_facts(
        program, [MethodRows(program, m) for m in program.methods()],
        *type_rows(program),
    )
    for built in (facts, rebuilt, assembled):
        assert _index_tracked(built) <= 2
        assert built.args_of_invo == facts.args_of_invo
        assert built.vars_of_method == facts.vars_of_method


def _edited_kitchen_sink(seed=31):
    """The kitchen-sink program, and that program with one seeded
    allocation added: its facts and the added rows."""
    sketch = ProgramSketch.from_program(build_kitchen_sink_program())
    script = random_edit_script(
        sketch.clone(), random.Random(seed), edits=1,
        allow_removals=False, kinds=("alloc",),
    )
    before = sketch.build()
    script.apply(sketch)
    after = sketch.build()
    delta = diff_facts(encode_program(before), encode_program(after))
    assert delta.added and not delta.removed
    return before, after, delta.added


def _reads(raw):
    """One read of every view of a snapshot."""
    return (
        dict(raw.var_nodes.items()), list(raw.fld_nodes.values()),
        len(raw.throw_nodes), set(raw.reachable), dict(raw.vcall_dispatches),
    )


def _all_stale(raw):
    for read in (
        lambda: list(raw.var_nodes.items()),
        lambda: list(raw.var_nodes.values()),
        lambda: len(raw.var_nodes),
        lambda: (0, 0) in raw.var_nodes,
        lambda: raw.fld_nodes[(0, 0, 0)],
        lambda: list(raw.fld_nodes.items()),
        lambda: list(raw.throw_nodes.items()),
        lambda: list(raw.reachable),
        lambda: (0, 0) in raw.reachable,
        lambda: len(raw.reachable),
        lambda: raw.vcall_dispatches.get(0),
    ):
        with pytest.raises(RuntimeError, match="stale"):
            read()


def test_views_raise_after_extend():
    before, after, added = _edited_kitchen_sink()
    solver = _solver(before, "2objH")
    raw = solver.solve()
    _reads(raw)
    solver.extend(after, added)
    _all_stale(raw)
    _reads(solver.snapshot())


def test_views_raise_after_retract():
    before, after, added = _edited_kitchen_sink()
    solver = _solver(after, "2objH")
    raw = solver.solve()
    solver.retract(before, added)
    _all_stale(raw)
    _reads(solver.snapshot())


def test_refused_retract_leaves_views_valid():
    """A retraction refused before it changes anything does not make the
    views stale."""
    before, after, added = _edited_kitchen_sink()
    solver = _solver(after, "2objH")
    raw = solver.solve()
    want = _reads(raw)
    with pytest.raises(ValueError):
        solver.retract(before, {"CATCHCLAUSE": [("m", "T", "v")]})
    assert _reads(raw) == want
