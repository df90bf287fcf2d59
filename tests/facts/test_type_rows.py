"""SUBTYPE and LOOKUP are built the first time a fact base is read.

No cold run reads them, so ``encode_program`` leaves them unbuilt (a
traced encode too), and building them leaves ``Program.lookup``'s memo
alone.  Every reader of a fact base still sees the rows a whole encoding
had: the relation attributes, ``as_relation_dict``, ``count_tuples``,
``digest``, equality and the ``facts.io`` round trip.
"""

from __future__ import annotations

import pytest

from repro.benchgen.dacapo import build_benchmark
from repro.facts.encoder import FactBase, encode_program, type_rows
from repro.facts.io import load_facts, save_facts
from repro.obs import Tracer
from tests.conftest import build_kitchen_sink_program, build_tiny_program

PROGRAMS = {
    "tiny": build_tiny_program,
    "kitchen-sink": build_kitchen_sink_program,
    "xalan": lambda: build_benchmark("xalan"),
    "jython": lambda: build_benchmark("jython"),
}


def _built(facts: FactBase) -> bool:
    return facts._subtype.rows is not None or facts._lookup.rows is not None


def _dispatch_table(program):
    """LOOKUP by its definition: every concrete class and every instance
    signature ``Program.lookup`` resolves on it to an instance method."""
    sigs = {m.sig for m in program.methods() if not m.is_static}
    rows = set()
    for ct in program.hierarchy:
        if ct.is_interface or ct.is_abstract:
            continue
        for sig in sigs:
            target = program.lookup(ct.name, sig)
            if target is not None and not target.is_static:
                rows.add((ct.name, sig, target.id))
    return rows


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_encode_builds_neither_and_reading_leaves_the_lookup_memo(name):
    program = PROGRAMS[name]()
    tracer = Tracer()
    facts = encode_program(program, tracer=tracer)
    assert not _built(facts)
    (span,) = [s for s in tracer.spans() if s.name == "facts.encode"]
    memo = len(program._lookup_cache)
    assert facts.count_tuples() == span.attrs["tuples"] + len(
        facts.subtype
    ) + len(facts.lookup)
    assert len(program._lookup_cache) == memo
    assert set(facts.lookup) == _dispatch_table(program)
    assert len(facts.lookup) == len(set(facts.lookup))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_every_reader_sees_the_rows(name, tmp_path):
    program = PROGRAMS[name]()
    subtype, lookup = type_rows(program)
    lazy, other = encode_program(program), encode_program(program)
    # Two unbuilt fact bases of one program are equal without building.
    assert lazy == other and not _built(lazy) and not _built(other)
    other.lookup  # built on one side only: equality compares the rows
    assert lazy == other and _built(lazy)

    relations = encode_program(program).as_relation_dict()
    assert relations["SUBTYPE"] == subtype and relations["LOOKUP"] == lookup
    fresh = encode_program(program)
    assert fresh.count_tuples() == sum(map(len, relations.values()))
    assert encode_program(program).digest() == fresh.digest()

    save_facts(encode_program(program), tmp_path)
    reloaded = FactBase.from_relations(program, load_facts(tmp_path))
    # The files hold each relation sorted.
    assert {
        name: sorted(rows) for name, rows in reloaded.as_relation_dict().items()
    } == {name: sorted(rows) for name, rows in relations.items()}
    assert reloaded.digest() == fresh.digest()

    changed = encode_program(program)
    changed.lookup = lookup[:-1]
    assert changed != fresh and changed.digest() != fresh.digest()


def test_derived_fact_bases_share_the_rows():
    program = build_kitchen_sink_program()
    facts = encode_program(program)
    sliced = facts.with_instructions(program, {"alloc": facts.alloc[:1]})
    assert not _built(sliced)
    assert sliced.lookup is facts.lookup and sliced.subtype is facts.subtype
