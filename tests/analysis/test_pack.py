"""The packed program is the cold runs' one front end.

A :class:`~repro.analysis.PackedProgram` compiles each method straight
from the IR.  Its bodies must be the bodies the row compiler builds from
``encode_program``'s rows, name for name; a cold run must need neither
the encoder nor the row compiler; each method is compiled once per run,
so pass 2 compiles none; and the pack's name-keyed reads must answer as a
fact base's do.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.analysis import PackedProgram, PointsToSolver, analyze
from repro.analysis.pack import _INSTR_FIELDS, _NONE
from repro.benchgen import FIGURE1_BENCHMARKS
from repro.benchgen.dacapo import build_benchmark
from repro.contexts.policies import InsensitivePolicy
from repro.facts import encoder
from repro.facts.encoder import FactBase, encode_program
from repro.fuzz.corpus import iter_corpus, load_entry
from repro.fuzz.sketch import ProgramSketch
from repro.harness.runner import (
    run_analysis,
    run_introspective_analysis,
    scaled_heuristic_a,
    scaled_heuristic_b,
)
from repro.introspection import driver
from tests.conftest import (
    build_box_program,
    build_kitchen_sink_program,
    build_tiny_program,
)

CORPUS = iter_corpus(str(Path(__file__).resolve().parents[1] / "corpus"))

PROGRAMS = {
    **{name: (lambda name=name: build_benchmark(name)) for name in FIGURE1_BENCHMARKS},
    "tiny": build_tiny_program,
    "boxes": build_box_program,
    "kitchen-sink": build_kitchen_sink_program,
    **{
        Path(path).stem: (
            lambda path=path: ProgramSketch.from_json(load_entry(path)["program"]).build()
        )
        for path in CORPUS
    },
}

#: How each instruction field's entries name their ids: one interner
#: attribute per position, ``args`` for a tuple of variables.
_SCHEMA = {
    "allocs": ("vars", "heaps"),
    "moves": ("vars", "vars"),
    "casts": ("vars", "vars", "types"),
    "loads": ("vars", "vars", "flds"),
    "stores": ("vars", "flds", "vars"),
    "vcalls": ("vars", "sigs", "invos", "lhs", "args"),
    "specialcalls": ("vars", "meths", "invos", "lhs", "args"),
    "scalls": ("meths", "invos", "lhs", "args"),
    "staticloads": ("vars", "static_flds"),
    "staticstores": ("static_flds", "vars"),
    "throws": ("vars",),
    "catches": ("types", "vars"),
}


def _named(side, mb):
    """A body's fields with every id replaced by its name."""

    def name(kind, value):
        if kind == "args":
            return tuple(side.vars.value(v) for v in value)
        if kind == "lhs":
            return None if value == _NONE else side.vars.value(value)
        return getattr(side, kind).value(value)

    fields = {}
    for field_name in _INSTR_FIELDS:
        kinds = _SCHEMA[field_name]
        entries = getattr(mb, field_name)
        if kinds == ("vars",):
            fields[field_name] = [name("vars", e) for e in entries]
        else:
            fields[field_name] = [
                tuple(name(k, v) for k, v in zip(kinds, e)) for e in entries
            ]
    fields["formals"] = [side.vars.value(v) for v in mb.formals]
    # FORMALRETURN rows come from a set: their order is not the method's.
    fields["returns"] = sorted(side.vars.value(v) for v in mb.returns)
    fields["this"] = None if mb.this == _NONE else side.vars.value(mb.this)
    return fields


def _heap_types(side, mb, types):
    return {
        side.heaps.value(heap): side.types.value(types[heap])
        for _var, heap in mb.allocs
    }


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_packed_bodies_equal_row_compiled_bodies(name):
    program = PROGRAMS[name]()
    pack = PackedProgram(program)
    rows = PointsToSolver(
        program, InsensitivePolicy(), facts=encode_program(program)
    )
    for method in program.methods():
        packed = pack.body(pack.meths.intern(method.id))
        compiled = rows._body(rows.meths.intern(method.id))
        assert _named(pack, packed) == _named(rows, compiled), method.id
        assert _heap_types(pack, packed, pack.heap_types) == _heap_types(
            rows, compiled, rows._heap_type
        ), method.id
        for field_name in _INSTR_FIELDS:
            entries = getattr(packed, field_name)
            assert entries == () or (isinstance(entries, list) and entries)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_packed_reads_equal_fact_base_reads(name):
    """Each name-keyed read of the pack answers as the fact base's."""
    program = PROGRAMS[name]()
    facts = encode_program(program)
    pack = PackedProgram(program)
    methods = frozenset(m.id for m in program.methods())
    for meth in sorted(methods):
        assert sorted(pack.vars_of(meth)) == sorted(facts.vars_of(meth))
    for invo in facts.args_of_invo:
        assert pack.args_of(invo) == facts.args_of(invo)
        assert pack.is_vcall(invo) == facts.is_vcall(invo)
    for heap in facts.all_heaps:
        assert pack.heap_type_of(heap) == facts.heap_type_of(heap)
        assert pack.alloc_class_of(heap) == facts.alloc_class_of(heap)
    assert sorted(pack.allocs_in(methods)) == sorted(facts.allocs_in(methods))
    assert sorted(pack.casts_in(methods)) == sorted(facts.casts_in(methods))
    assert pack.args_of("no/such/invo") == facts.args_of("no/such/invo")
    assert pack.is_vcall("no/such/invo") is facts.is_vcall("no/such/invo")


def test_reads_of_an_unreached_method_compile_on_demand():
    """A pass 1 solved over another pack names methods, call sites and
    heaps this pack never reached: the reads compile what they need."""
    program = build_benchmark("antlr")
    facts = encode_program(program)
    pack = PackedProgram(program)
    invo = next(iter(facts.vcall_invos))
    assert len(pack._bodies) == 0
    assert pack.args_of(invo) == facts.args_of(invo)
    assert len(pack._bodies) == program.count_methods()
    heap = next(iter(facts.all_heaps))
    fresh = PackedProgram(program)
    assert fresh.alloc_class_of(heap) == facts.alloc_class_of(heap)


def _outcome_view(outcome):
    intro = outcome.introspective
    result = outcome.result
    return (
        outcome.timed_out,
        outcome.tuples,
        outcome.precision,
        None if intro is None else intro.refinement_stats,
        None if intro is None else (intro.decision.excluded_objects,
                                    intro.decision.excluded_sites),
        None if result is None else result.var_points_to,
        None if result is None else result.call_graph,
    )


def _runs(program):
    return [
        run_analysis(program, "2objH"),
        run_introspective_analysis(program, "2objH", scaled_heuristic_a()),
        run_introspective_analysis(program, "2typeH", scaled_heuristic_b()),
    ]


@pytest.mark.parametrize("name", ["kitchen-sink", "antlr", "hsqldb"])
def test_cold_run_needs_no_fact_base_and_pass2_compiles_nothing(
    name, monkeypatch
):
    program = PROGRAMS[name]()
    want = [_outcome_view(o) for o in _runs(program)]

    def refuse(*_args, **_kwargs):
        raise AssertionError("a cold run built string rows")

    original = encoder.encode_program
    for module in list(sys.modules.values()):
        if getattr(module, "encode_program", None) is original:
            monkeypatch.setattr(module, "encode_program", refuse)
    monkeypatch.setattr(PointsToSolver, "_compile_rows", refuse)
    monkeypatch.setattr(FactBase, "__post_init__", refuse)

    compiles = []
    real_compile = PackedProgram._compile

    def counting_compile(self, meth):
        compiles.append((self, meth))
        return real_compile(self, meth)

    compiled_by_pass = []
    real_analyze = driver.analyze

    def counting_analyze(program, analysis, pack=None, **kwargs):
        before = len(compiles)
        try:
            return real_analyze(program, analysis, pack=pack, **kwargs)
        finally:
            compiled_by_pass.append(len(compiles) - before)

    monkeypatch.setattr(PackedProgram, "_compile", counting_compile)
    monkeypatch.setattr(driver, "analyze", counting_analyze)
    assert [_outcome_view(o) for o in _runs(program)] == want
    # Two introspective runs, each pass 1 then pass 2.
    assert len(compiled_by_pass) == 4
    assert compiled_by_pass[0] > 0 and compiled_by_pass[2] > 0
    assert compiled_by_pass[1] == compiled_by_pass[3] == 0
    assert len(compiles) == len(set(compiles))  # each method once per pack


def test_a_pass1_over_another_pack_gives_the_same_run():
    program = build_benchmark("pmd")
    heuristic = scaled_heuristic_b()
    cold = run_introspective_analysis(program, "2objH", heuristic)
    reused = run_introspective_analysis(
        program, "2objH", heuristic, pass1=cold.introspective.pass1
    )
    assert reused.introspective.pass1_reused
    assert _outcome_view(reused) == _outcome_view(cold)


def test_a_pack_is_of_one_program():
    pack = PackedProgram(build_tiny_program())
    with pytest.raises(ValueError, match="another program"):
        analyze(build_tiny_program(), "insens", pack=pack)
    program = build_tiny_program()
    with pytest.raises(ValueError, match="not both"):
        PointsToSolver(
            program,
            InsensitivePolicy(),
            facts=encode_program(program),
            pack=PackedProgram(program),
        )


def test_edits_need_a_solver_built_from_rows():
    program = build_box_program()
    solver = PointsToSolver(program, InsensitivePolicy())
    solver.solve()
    with pytest.raises(ValueError, match="fact rows"):
        solver.extend(program, {})
    with pytest.raises(ValueError, match="fact rows"):
        solver.retract(program, {})
