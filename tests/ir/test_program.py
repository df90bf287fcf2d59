"""Tests for Program: method lookup, site identities, structure queries."""

import pytest

from repro.ir import (
    Alloc,
    ClassType,
    Method,
    Program,
    ProgramError,
    Return,
    VirtualCall,
    signature,
)


def test_signature_format():
    assert signature("run", 0) == "run/0"
    assert signature("apply", 2) == "apply/2"


def make_program():
    p = Program()
    p.add_class(ClassType("A"))
    p.add_class(ClassType("B", superclass="A"))
    p.add_class(ClassType("C", superclass="B"))
    return p


class TestLookup:
    def test_lookup_declared_method(self):
        p = make_program()
        m = p.add_method(Method("A", "run", ()))
        p.add_method(Method("Main", "main", (), is_static=True)) if False else None
        p.freeze()
        assert p.lookup("A", "run/0") is m

    def test_lookup_inherited_method(self):
        p = make_program()
        m = p.add_method(Method("A", "run", ()))
        p.freeze()
        assert p.lookup("C", "run/0") is m

    def test_lookup_override_wins(self):
        p = make_program()
        p.add_method(Method("A", "run", ()))
        override = p.add_method(Method("B", "run", ()))
        p.freeze()
        assert p.lookup("C", "run/0") is override
        assert p.lookup("B", "run/0") is override

    def test_lookup_miss_returns_none(self):
        p = make_program()
        p.freeze()
        assert p.lookup("C", "ghost/0") is None

    def test_lookup_arity_matters(self):
        p = make_program()
        one = p.add_method(Method("A", "run", ("x",)))
        zero = p.add_method(Method("A", "run", ()))
        p.freeze()
        assert p.lookup("A", "run/1") is one
        assert p.lookup("A", "run/0") is zero


class TestMethodIdentity:
    def test_method_id_format(self):
        m = Method("A", "run", ("x", "y"))
        assert m.id == "A.run/2"

    def test_qualified_var(self):
        m = Method("A", "run", ("x",))
        assert m.qualified_var("x") == "A.run/1/x"

    def test_duplicate_method_rejected(self):
        p = make_program()
        p.add_method(Method("A", "run", ()))
        with pytest.raises(ProgramError, match="duplicate"):
            p.add_method(Method("A", "run", ()))

    def test_method_in_unknown_class_rejected(self):
        p = make_program()
        with pytest.raises(ProgramError, match="unknown class"):
            p.add_method(Method("Ghost", "run", ()))

    def test_local_vars_include_params_and_this(self):
        m = Method(
            "A",
            "run",
            ("x",),
            instructions=(Alloc("y", "A"), Return("y")),
        )
        assert m.local_vars() == {"this", "x", "y"}

    def test_static_method_has_no_this(self):
        m = Method("A", "run", (), is_static=True)
        assert m.this_var is None
        assert "this" not in m.local_vars()

    def test_return_vars(self):
        m = Method(
            "A",
            "run",
            (),
            instructions=(Return("a"), Return(None), Return("b")),
        )
        assert set(m.return_vars()) == {"a", "b"}


class TestSiteIdentities:
    def test_alloc_sites_unique_and_stable(self):
        p = make_program()
        m = p.add_method(
            Method("A", "run", (), instructions=(Alloc("x", "A"), Alloc("y", "B")))
        )
        p.add_entry_point(m.id)
        p.freeze()
        assert p.alloc_site(m, 0) == "A.run/0/new A/0"
        assert p.alloc_site(m, 1) == "A.run/0/new B/1"

    def test_invocation_ids_assigned_in_order(self):
        p = make_program()
        m = p.add_method(
            Method(
                "A",
                "run",
                (),
                instructions=(
                    Alloc("a", "A"),
                    VirtualCall(target=None, args=(), base="a", sig="run/0"),
                    VirtualCall(target=None, args=(), base="a", sig="run/0"),
                ),
            )
        )
        p.add_entry_point(m.id)
        p.freeze()
        invos = [i.invo for i in m.instructions if isinstance(i, VirtualCall)]
        assert invos == ["A.run/0/invo/0", "A.run/0/invo/1"]

    def test_full_flow(self, tiny_program):
        invos = [
            i.invo
            for m in tiny_program.methods()
            for i in m.instructions
            if isinstance(i, VirtualCall)
        ]
        assert len(invos) == len(set(invos)) == 2
        assert all(invo.startswith("Main.main/0/invo/") for invo in invos)

    def test_alloc_site_names(self, tiny_program):
        main = tiny_program.method("Main.main/0")
        assert tiny_program.alloc_site(main, 0) == "Main.main/0/new A/0"
        assert tiny_program.alloc_site(main, 1) == "Main.main/0/new B/1"


class TestStructureQueries:
    def test_counts(self, tiny_program):
        assert tiny_program.count_methods() == 3
        assert tiny_program.count_classes() == 5  # Object, String, A, B, Main
        assert tiny_program.count_call_sites() == 2
        assert tiny_program.count_alloc_sites() == 3
        assert tiny_program.count_instructions() == 10

    def test_summary_mentions_counts(self, tiny_program):
        s = tiny_program.summary()
        assert "methods=3" in s and "classes=5" in s

    def test_unknown_entry_point_rejected(self):
        p = make_program()
        p.add_entry_point("Ghost.main/0")
        with pytest.raises(ProgramError, match="entry point"):
            p.freeze()

    def test_declared_field_walks_hierarchy(self, tiny_program):
        assert tiny_program.declared_field("B", "f")  # inherited from A
        assert not tiny_program.declared_field("B", "ghost")


class TestDerive:
    def test_replaces_in_place_appends_and_removes(self, tiny_program):
        old_ids = [m.id for m in tiny_program.methods()]
        old_sites = dict(tiny_program._alloc_sites)
        main = tiny_program.method("Main.main/0")
        derived = tiny_program.derive(
            [
                Method("A", "id", ("p",), (Alloc("n", "B"), Return("n"))),
                Method("A", "make", (), (Alloc("m", "A"),), is_static=True),
            ],
            removed=["B.id/1"],
            entry_points=["Main.main/0", "A.make/0"],
        )
        assert [m.id for m in derived.methods()] == [
            "A.id/1", "A.make/0", "Main.main/0"
        ]
        assert derived.method("Main.main/0") is main  # shared, untouched
        assert derived.hierarchy is tiny_program.hierarchy
        assert derived.alloc_site(derived.method("A.id/1"), 0) == "A.id/1/new B/0"
        assert ("B.id/1", 0) not in derived._alloc_sites
        assert derived.lookup("B", "id/1").id == "A.id/1"
        assert derived.entry_points == ["Main.main/0", "A.make/0"]
        # The program it came from is as it was.
        assert [m.id for m in tiny_program.methods()] == old_ids
        assert tiny_program._alloc_sites == old_sites
        assert tiny_program.lookup("B", "id/1").id == "B.id/1"

    def test_replacing_and_removing_patch_the_method_table(self, tiny_program):
        old_ids = [m.id for m in tiny_program.methods()]
        replaced = Method("A", "id", ("p",), (Alloc("n", "B"), Return("n")))
        derived = tiny_program.derive(
            [replaced], removed=["B.id/1"], entry_points=["Main.main/0"]
        )
        assert [m.id for m in derived.methods()] == [
            mid for mid in old_ids if mid != "B.id/1"
        ]
        assert derived.method("A.id/1") is replaced
        assert [m.id for m in tiny_program.methods()] == old_ids

    def test_entry_point_must_exist(self, tiny_program):
        with pytest.raises(ProgramError, match="entry point"):
            tiny_program.derive([], removed=["Main.main/0"],
                                entry_points=["Main.main/0"])
