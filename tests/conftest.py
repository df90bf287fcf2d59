"""Shared fixtures: small reference programs used across the test suite."""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import pytest

from repro import ProgramBuilder, analyze, encode_program
from repro.analysis import AnalysisResult
from repro.benchgen import build_benchmark
from repro.facts.encoder import FactBase
from repro.ir.program import Program


def build_tiny_program() -> Program:
    """Alloc/move/call/return flows, one virtual dispatch, one cast."""
    b = ProgramBuilder()
    b.klass("A", fields=["f"])
    b.klass("B", super_name="A")
    with b.method("A", "id", ["p"]) as m:
        m.ret("p")
    with b.method("B", "id", ["p"]) as m:
        m.alloc("q", "B")
        m.ret("q")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("a", "A")
        m.alloc("b", "B")
        m.vcall("a", "id", ["b"], target="r1")
        m.vcall("b", "id", ["a"], target="r2")
        m.store("a", "f", "b")
        m.load("x", "a", "f")
        m.cast("y", "x", "B")
    return b.build(entry="Main.main/0")


def build_box_program(boxes: int = 3) -> Program:
    """The classic container-precision example: per-box item separation.

    A context-insensitive analysis conflates all boxes (every ``get``
    returns every item); object/call-site/type-sensitivity keep them apart.
    """
    b = ProgramBuilder()
    b.klass("Item", abstract=True)
    b.klass("Box", fields=["v"])
    with b.method("Box", "set", ["x"]) as m:
        m.store("this", "v", "x")
    with b.method("Box", "get", []) as m:
        m.load("r", "this", "v")
        m.ret("r")
    for k in range(boxes):
        b.klass(f"Item{k}", super_name="Item")
        with b.method(f"BoxFactory{k}", "make", [], static=True) as m:
            m.alloc("bx", "Box")
            m.ret("bx")
    with b.method("Main", "main", [], static=True) as m:
        for k in range(boxes):
            m.scall(f"BoxFactory{k}", "make", [], target=f"box{k}")
            m.alloc(f"item{k}", f"Item{k}")
            m.vcall(f"box{k}", "set", [f"item{k}"])
            m.vcall(f"box{k}", "get", [], target=f"g{k}")
            m.cast(f"c{k}", f"g{k}", f"Item{k}")
    return b.build(entry="Main.main/0")


def build_kitchen_sink_program() -> Program:
    """Exercises every instruction kind: static/special calls, static
    fields, arrays, casts, interfaces, multiple returns."""
    b = ProgramBuilder()
    b.interface("Speaker")
    b.klass("Animal", interfaces=["Speaker"], fields=["voice"], abstract=True)
    b.klass("Dog", super_name="Animal")
    b.klass("Cat", super_name="Animal")
    b.klass("Sound")
    b.klass("Globals", static_fields=["shared"])
    with b.method("Animal", "init", ["v"]) as m:
        m.store("this", "voice", "v")
    with b.method("Dog", "speak", []) as m:
        m.load("r", "this", "voice")
        m.ret("r")
    with b.method("Cat", "speak", []) as m:
        m.alloc("meow", "Sound")
        m.ret("meow")
    with b.method("Util", "pick", ["a", "b"], static=True) as m:
        m.ret("a")
        m.ret("b")
    with b.method("Main", "main", [], static=True) as m:
        m.alloc("d", "Dog")
        m.alloc("c", "Cat")
        m.alloc("s", "Sound")
        m.special_call("d", "Animal", "init", ["s"])
        m.vcall("d", "speak", [], target="sd")
        m.vcall("c", "speak", [], target="sc")
        m.scall("Util", "pick", ["sd", "sc"], target="p")
        m.static_store("Globals", "shared", "p")
        m.static_load("g", "Globals", "shared")
        m.alloc("arr", "java.lang.Object")
        m.array_store("arr", "g")
        m.array_load("elem", "arr")
        m.cast("snd", "elem", "Sound")
        m.move("cp", "snd")
    return b.build(entry="Main.main/0")


@pytest.fixture
def tiny_program() -> Program:
    return build_tiny_program()


@pytest.fixture
def box_program() -> Program:
    return build_box_program()


@pytest.fixture
def kitchen_sink_program() -> Program:
    return build_kitchen_sink_program()


@pytest.fixture
def tiny_facts(tiny_program):
    return encode_program(tiny_program)


# ----------------------------------------------------------------------
# A matrix of context-sensitive results, for checking the packed-mask
# clients against string-level references.
# ----------------------------------------------------------------------

#: The small programs above plus one benchmark analog, whose 2objH, 2callH
#: and introspective results have heaps under several heap contexts.
MATRIX_PROGRAMS = ("tiny", "boxes", "kitchen-sink", "lusearch")

#: The refined flavors and an introspective pass 2 (2objH, Heuristic A).
MATRIX_FLAVORS = ("2objH", "2typeH", "2callH", "2objH-IntroA")


@lru_cache(maxsize=None)
def matrix_program(name: str) -> Tuple[Program, FactBase]:
    builders = {
        "tiny": build_tiny_program,
        "boxes": build_box_program,
        "kitchen-sink": build_kitchen_sink_program,
    }
    program = builders[name]() if name in builders else build_benchmark(name)
    return program, encode_program(program)


@lru_cache(maxsize=None)
def matrix_result(name: str, flavor: str) -> AnalysisResult:
    """One cell of the matrix, solved once per test session."""
    from repro.harness.runner import scaled_heuristic_a
    from repro.introspection import run_introspective

    program, facts = matrix_program(name)
    if flavor.endswith("-IntroA"):
        analysis = flavor[: -len("-IntroA")]
        result = run_introspective(
            program, analysis, scaled_heuristic_a(), facts=facts
        ).result
        assert result is not None
        return result
    return analyze(program, flavor, facts=facts)
