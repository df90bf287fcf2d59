"""Tests for the two-pass introspective driver: the sandwich property,
degenerate equivalences, refinement statistics, and budget handling."""

import time

import pytest

from repro import BudgetExceeded, analyze
from repro.analysis import PackedProgram
from repro.benchgen.dacapo import build_benchmark
from repro.benchgen.generator import generate
from repro.benchgen.spec import BenchmarkSpec, HubSpec
from repro.clients import measure_precision
from repro.introspection import (
    CustomHeuristic,
    HeuristicA,
    HeuristicB,
    RefineEverything,
    run_introspective,
)
from repro.introspection import driver as driver_module
from repro.introspection.driver import MIN_PASS2_SECONDS
from tests.conftest import build_box_program


def vpt(result):
    return frozenset(result.iter_var_points_to())


@pytest.fixture(scope="module")
def setup():
    program = build_box_program(boxes=4)
    pack = PackedProgram(program)
    insens = analyze(program, "insens", pack=pack)
    full = analyze(program, "2objH", pack=pack)
    return program, pack, insens, full


class TestDegenerateEquivalences:
    def test_refine_everything_equals_full_analysis(self, setup):
        program, pack, _insens, full = setup
        out = run_introspective(program, "2objH", RefineEverything(), pack=pack)
        assert vpt(out.result) == vpt(full)

    def test_exclude_everything_equals_insensitive(self, setup):
        program, pack, insens, _full = setup
        exclude_all = CustomHeuristic(
            exclude_object=lambda h, m: True,
            exclude_site=lambda i, me, m: True,
            label="all",
        )
        out = run_introspective(program, "2objH", exclude_all, pack=pack)
        assert vpt(out.result) == vpt(insens)


class TestSandwich:
    @pytest.mark.parametrize("flavor", ["2objH", "2callH", "2typeH"])
    def test_projection_sandwich(self, setup, flavor):
        """insens >= intro >= full on var-points-to projections."""
        program, pack, insens, _ = setup
        full = analyze(program, flavor, pack=pack)
        out = run_introspective(
            program,
            flavor,
            CustomHeuristic(
                exclude_object=lambda h, m: "BoxFactory0" in h,
                exclude_site=lambda i, me, m: False,
                label="one-box",
            ),
            pack=pack,
        )
        intro_proj = out.result.var_points_to
        insens_proj = insens.var_points_to
        full_proj = full.var_points_to
        for var, heaps in intro_proj.items():
            assert heaps <= insens_proj.get(var, set())
        for var, heaps in full_proj.items():
            assert heaps <= intro_proj.get(var, set())

    def test_excluding_one_object_loses_nothing_here(self, setup):
        """Excluding only box0's allocation keeps full precision: the
        *calling* contexts of set/get still separate the boxes (only the
        heap context is coarsened, and field-points-to stays keyed by the
        box's distinct allocation site)."""
        program, pack, _insens, full = setup
        out = run_introspective(
            program,
            "2objH",
            CustomHeuristic(
                exclude_object=lambda h, m: "BoxFactory0" in h,
                exclude_site=lambda i, me, m: False,
                label="one-box",
            ),
            pack=pack,
        )
        assert (
            measure_precision(out.result, pack).casts_may_fail
            == measure_precision(full, pack).casts_may_fail
            == 0
        )

    def test_partial_site_exclusion_partial_precision(self, setup):
        """Excluding the set/get call sites of boxes 0 and 1 merges exactly
        those two boxes at the ★ context: their two casts may fail, the
        other boxes stay precise — the per-element selectivity that makes
        introspective analysis work."""
        program, pack, insens, full = setup
        # main emits, per box k: scall make (invo 3k), vcall set (3k+1),
        # vcall get (3k+2).  Exclude set/get of boxes 0 and 1.
        excluded_invos = {
            f"Main.main/0/invo/{i}" for i in (1, 2, 4, 5)
        }
        out = run_introspective(
            program,
            "2objH",
            CustomHeuristic(
                exclude_object=lambda h, m: False,
                exclude_site=lambda i, me, m: i in excluded_invos,
                label="two-boxes",
            ),
            pack=pack,
        )
        p_intro = measure_precision(out.result, pack)
        p_insens = measure_precision(insens, pack)
        p_full = measure_precision(full, pack)
        assert p_full.casts_may_fail == 0
        assert p_intro.casts_may_fail == 2
        assert p_insens.casts_may_fail == 4


class TestOutcomeBookkeeping:
    def test_refinement_stats(self, setup):
        program, pack, _insens, _full = setup
        out = run_introspective(
            program,
            "2objH",
            CustomHeuristic(
                exclude_object=lambda h, m: "BoxFactory0" in h,
                exclude_site=lambda i, me, m: "invo/0" in i,
                label="bits",
            ),
            pack=pack,
        )
        stats = out.refinement_stats
        assert stats.excluded_objects == 1
        assert stats.excluded_call_sites == 1
        assert 0 < stats.object_percent < 100
        assert 0 < stats.call_site_percent < 100

    def test_outcome_name(self, setup):
        program, pack, _, _ = setup
        out = run_introspective(program, "2objH", HeuristicA(), pack=pack)
        assert out.name == "2objH-IntroA"
        out_b = run_introspective(program, "2typeH", HeuristicB(), pack=pack)
        assert out_b.name == "2typeH-IntroB"

    def test_pass1_reuse(self, setup):
        program, pack, insens, _ = setup
        out = run_introspective(
            program, "2objH", HeuristicA(), pack=pack, pass1=insens
        )
        assert out.pass1 is insens
        assert out.pass1_reused is True
        # A supplied pass 1 cost this run nothing; reporting wall time
        # spent validating the argument would masquerade as compute time.
        assert out.pass1_seconds == 0.0

    def test_fresh_pass1_reports_compute_time(self, setup):
        program, pack, _insens, _full = setup
        out = run_introspective(program, "2objH", HeuristicA(), pack=pack)
        assert out.pass1_reused is False
        assert out.pass1_seconds > 0.0

    def test_default_heuristic_is_a(self, setup):
        program, pack, _, _ = setup
        out = run_introspective(program, "2objH", pack=pack)
        assert out.heuristic_name == "A"

    def test_timings_recorded(self, setup):
        program, pack, _, _ = setup
        out = run_introspective(program, "2objH", HeuristicB(), pack=pack)
        assert out.seconds >= 0
        assert out.overhead_seconds >= 0
        assert not out.timed_out


class TestBudgets:
    def test_pass2_budget_trip_reported(self):
        # On pmd, 2objH derives more tuples than the insensitive pass, so
        # a budget pass 1 fits exactly is too small for refining everything.
        program = build_benchmark("pmd")
        pack = PackedProgram(program)
        insens = analyze(program, "insens", pack=pack)
        out = run_introspective(
            program,
            "2objH",
            RefineEverything(),
            pack=pack,
            pass1=insens,
            max_tuples=insens.raw.tuple_count,
        )
        assert out.timed_out
        assert out.result is None
        assert "tuple budget exceeded" in out.reason

    def test_pass1_budget_trip_reraises(self, setup):
        program, pack, _, _ = setup
        with pytest.raises(BudgetExceeded):
            run_introspective(program, "2objH", HeuristicA(), pack=pack, max_tuples=10)

    def test_supplied_pass1_obeys_the_budget_a_fresh_one_would(self, setup):
        """The budget is exact: a fresh pass 1 trips iff its fixpoint holds
        more tuples than the budget, so a supplied one is refused on the
        same terms and reuse never changes an outcome."""
        program, pack, insens, _ = setup
        fits = insens.raw.tuple_count

        def run(pass1, budget):
            return run_introspective(
                program,
                "2objH",
                HeuristicA(),
                pack=pack,
                pass1=pass1,
                max_tuples=budget,
            )

        for pass1 in (None, insens):
            with pytest.raises(BudgetExceeded, match="tuple budget"):
                run(pass1, fits - 1)
            assert run(pass1, fits).pass1.raw.tuple_count == fits


class TestSharedWallClockBudget:
    """``max_seconds`` bounds the *whole* two-pass run.  The old behavior
    handed pass 2 the full budget again, so a job with ``max_seconds=N``
    could burn ~2N before reporting; these tests pin the fix with a
    program big enough that the passes take measurable wall time."""

    @pytest.fixture(scope="class")
    def slow(self):
        spec = BenchmarkSpec(
            name="budget-hub",
            util_classes=12,
            util_methods_per_class=5,
            hubs=(
                HubSpec(
                    readers=200,
                    elements=160,
                    payloads_per_element=80,
                    chain=12,
                    reader_call_sites=2,
                ),
            ),
        )
        program = generate(spec)
        pack = PackedProgram(program)
        # Calibrate: how long does the insensitive pass take here, now?
        t0 = time.perf_counter()
        analyze(program, "insens", pack=pack)
        pass1_seconds = time.perf_counter() - t0
        return program, pack, pass1_seconds

    @staticmethod
    def _record_pass_budgets(monkeypatch):
        """Record the ``max_seconds`` each pass receives from the driver."""
        budgets = []
        real = driver_module.analyze

        def recording(*args, **kwargs):
            budgets.append(kwargs.get("max_seconds"))
            return real(*args, **kwargs)

        monkeypatch.setattr(driver_module, "analyze", recording)
        return budgets

    def test_pass2_gets_only_the_remaining_budget(self, slow, monkeypatch):
        program, pack, pass1_seconds = slow
        budgets = self._record_pass_budgets(monkeypatch)
        # Pass 2 is the full 2objH analysis here, several times the cost
        # of pass 1.  A budget of 2x the pass-1 time leaves it about one
        # pass-1-worth of seconds, so the shared budget reports a timeout.
        budget = 2.0 * pass1_seconds
        t0 = time.perf_counter()
        out = run_introspective(
            program, "2objH", RefineEverything(), pack=pack, max_seconds=budget
        )
        elapsed = time.perf_counter() - t0
        # Pass 1 draws on the whole budget; pass 2 gets exactly what pass 1
        # and the metric/heuristic overhead left of it (the old resetting
        # budget handed it ``budget`` again).
        assert budgets == [
            budget,
            max(budget - out.pass1_seconds - out.overhead_seconds, MIN_PASS2_SECONDS),
        ]
        assert out.timed_out
        assert out.result is None
        assert out.pass1_reused is False
        assert out.pass1_seconds > 0
        # The whole run stays in the budget's neighborhood — nowhere near
        # the ~2x overrun the resetting budget allowed.
        assert elapsed < 4.0 * budget

    def test_wall_clock_trip_in_pass2_reported_not_raised(self, slow):
        """A pass-2 wall-clock trip is an outcome, not an exception —
        the same contract as a tuple-budget trip.  The epsilon floor
        (MIN_PASS2_SECONDS) means pass 2 always *starts* and trips its
        own budget check cleanly even when pass 1 consumed everything."""
        program, pack, _pass1_seconds = slow
        insens = analyze(program, "insens", pack=pack)
        out = run_introspective(
            program,
            "2objH",
            RefineEverything(),
            pack=pack,
            pass1=insens,
            max_seconds=MIN_PASS2_SECONDS,
        )
        assert out.timed_out
        assert out.result is None

    def test_precomputed_pass1_leaves_full_budget(self, slow, monkeypatch):
        program, pack, pass1_seconds = slow
        insens = analyze(program, "insens", pack=pack)
        budgets = self._record_pass_budgets(monkeypatch)
        exclude_all = CustomHeuristic(
            exclude_object=lambda h, m: True,
            exclude_site=lambda i, me, m: True,
            label="all",
        )
        # With pass 1 supplied, pass1_seconds is 0.0 and pass 2 keeps the
        # whole allowance less the metric/heuristic overhead — 4x one pass
        # is plenty for the exclude-everything second pass.
        max_seconds = 4.0 * pass1_seconds
        out = run_introspective(
            program,
            "2objH",
            exclude_all,
            pack=pack,
            pass1=insens,
            max_seconds=max_seconds,
        )
        assert out.pass1_reused is True
        assert out.pass1_seconds == 0.0
        assert budgets == [
            max(max_seconds - out.overhead_seconds, MIN_PASS2_SECONDS)
        ]
        assert not out.timed_out
        assert out.result is not None
