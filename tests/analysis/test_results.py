"""Tests for AnalysisResult projections and stats."""

import random

import pytest

from repro import ProgramBuilder, analyze, encode_program
from repro.analysis import PackedProjections
from repro.analysis.solver import bit_counts, iter_bits
from tests.conftest import MATRIX_FLAVORS, matrix_result


class TestProjections:
    def test_var_points_to_projection(self, tiny_program):
        r = analyze(tiny_program, "2objH")
        proj = r.var_points_to
        assert proj["Main.main/0/a"] == {"Main.main/0/new A/0"}
        # contexts are collapsed: each var maps to plain heap names
        for heaps in proj.values():
            assert all(isinstance(h, str) for h in heaps)

    def test_points_to_unknown_var_is_empty(self, tiny_program):
        r = analyze(tiny_program, "insens")
        assert r.points_to("Main.main/0/ghost") == frozenset()

    def test_fld_points_to_projection(self, tiny_program):
        r = analyze(tiny_program, "insens")
        assert r.fld_points_to[("Main.main/0/new A/0", "f")] == {
            "Main.main/0/new B/1"
        }

    def test_call_graph_projection(self, tiny_program):
        r = analyze(tiny_program, "insens")
        targets = {m for ms in r.call_graph.values() for m in ms}
        assert targets == {"A.id/1", "B.id/1"}

    def test_reachable_methods(self, tiny_program):
        r = analyze(tiny_program, "insens")
        assert r.reachable_methods == {"Main.main/0", "A.id/1", "B.id/1"}

    def test_vcall_resolved_targets(self, tiny_program):
        r = analyze(tiny_program, "insens")
        assert r.vcall_resolved_targets("Main.main/0/invo/0") == {"A.id/1"}
        assert r.vcall_resolved_targets("Main.main/0/invo/1") == {"B.id/1"}
        assert r.vcall_resolved_targets("no/such/site") == frozenset()

    def test_projections_are_cached(self, tiny_program):
        r = analyze(tiny_program, "insens")
        assert r.var_points_to is r.var_points_to


class TestPackedProjections:
    @pytest.mark.parametrize("flavor", ("insens",) + MATRIX_FLAVORS)
    def test_points_to_and_masks_match_string_projections(self, flavor):
        r = matrix_result("lusearch", flavor)
        proj = r.var_points_to
        assert {
            r.raw.vars.value(v) for v in r.var_masks
        } == set(proj)
        for var, heaps in proj.items():
            assert r.points_to(var) == heaps
        packed = r.packed
        assert {
            var: {packed.heaps[b] for b in iter_bits(m)}
            for var, m in packed.var.items()
        } == proj
        assert {
            (packed.heaps[base], r.raw.flds.value(fld)): {
                packed.heaps[b] for b in iter_bits(m)
            }
            for (base, fld), m in packed.fld.items()
        } == r.fld_points_to
        assert packed.call_sites == {
            (invo, meth) for invo, meths in r.call_graph.items() for meth in meths
        }

    def test_string_sets_pack_to_the_same_projections(self):
        r = matrix_result("kitchen-sink", "2objH")
        packed = PackedProjections.from_sets(
            r.var_points_to, r.fld_points_to, r.call_graph
        )

        def named(p):
            return {v: {p.heaps[b] for b in iter_bits(m)} for v, m in p.var.items()}

        assert named(packed) == named(r.packed) == r.var_points_to
        assert packed.call_sites == r.packed.call_sites
        assert PackedProjections.of(r) is r.packed

    def test_points_to_is_empty_for_a_var_without_objects(self):
        b = ProgramBuilder()
        b.klass("A")
        b.klass("B")
        with b.method("Main", "main", [], static=True) as m:
            m.alloc("a", "A")
            m.cast("b", "a", "B")  # the cast filters out every object
        r = analyze(b.build(entry="Main.main/0"), "insens")
        var = "Main.main/0/b"
        assert var in r.raw.vars and r.raw.vars.get(var) not in r.var_masks
        assert r.points_to(var) == frozenset()
        assert r.points_to("Main.main/0/a") == {"Main.main/0/new A/0"}


class TestBitCounts:
    def test_counts_equal_a_per_bit_walk(self):
        rng = random.Random(7)
        masks = [rng.getrandbits(200) & rng.getrandbits(200) for _ in range(300)]
        counts = [0] * 200
        for m in masks:
            for b in iter_bits(m):
                counts[b] += 1
        assert bit_counts(masks, 200) == counts
        assert bit_counts([], 5) == [0] * 5

    def test_counts_past_sixteen_bits(self):
        assert bit_counts([0b101] * 70_000, 3) == [70_000, 0, 70_000]


class TestIteration:
    def test_iter_var_points_to_shape(self, tiny_program):
        r = analyze(tiny_program, "2objH")
        for var, ctx, heap, hctx in r.iter_var_points_to():
            assert isinstance(var, str) and isinstance(heap, str)
            assert isinstance(ctx, tuple) and isinstance(hctx, tuple)

    def test_iter_call_graph_shape(self, tiny_program):
        r = analyze(tiny_program, "2callH")
        edges = list(r.iter_call_graph())
        assert edges
        for invo, caller_ctx, meth, callee_ctx in edges:
            assert "invo" in invo
            assert isinstance(caller_ctx, tuple)
            assert meth in r.reachable_methods
            assert isinstance(callee_ctx, tuple)


class TestStats:
    def test_stats_fields(self, tiny_program):
        r = analyze(tiny_program, "insens")
        s = r.stats()
        assert s.analysis == "insens"
        assert s.reachable_methods == 3
        assert s.contexts == 1
        assert s.heap_contexts == 1
        assert s.var_pts_tuples > 0
        assert s.tuple_count >= s.var_pts_tuples
        assert not s.timed_out

    def test_stats_row_keys(self, tiny_program):
        row = analyze(tiny_program, "insens").stats().row()
        assert {"analysis", "seconds", "tuples", "var-pts", "cg-edges"} <= set(row)

    def test_timed_out_flag_propagates(self, tiny_program):
        s = analyze(tiny_program, "insens").stats(timed_out=True)
        assert s.timed_out
