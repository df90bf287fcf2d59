"""The two-pass introspective analysis driver (the paper's Section 3 recipe).

``run_introspective`` packages the whole pipeline:

1. run a context-insensitive pass (RECORD/MERGE return ``★``,
   refine relations empty);
2. compute the Section 3 cost metrics over its results;
3. apply a heuristic to obtain the exclusion sets (the complements of
   OBJECTTOREFINE / SITETOREFINE, per footnote 4);
4. re-run the *same* analysis code with the dual
   :class:`~repro.contexts.introspective.IntrospectivePolicy`: refined
   constructors everywhere except the excluded elements.

Timing convention: like the paper (Section 4, "Discussion"), the headline
``seconds`` of an introspective analysis is the *second pass only*; the
pass-1 time and metric-computation time are reported separately
(``pass1_seconds``, ``overhead_seconds``) so both accountings are available.
When a precomputed ``pass1`` is supplied, ``pass1_seconds`` is ``0.0`` and
``pass1_reused`` is set — the driver did not pay for that pass.

Budget convention: ``max_seconds`` bounds the *whole* run, not each pass.
Pass 1 and the metric/heuristic overhead draw the budget down, and pass 2
receives only the remainder (floored at a small epsilon so it still starts
and trips its own budget check); a run with ``max_seconds=N`` therefore
finishes or times out within ~N of starting pass 1.  ``max_tuples`` stays
per-pass: it bounds peak derivation size, which does not accumulate across
passes.  A budget trip in pass 2 is reported as ``timed_out`` with the
trip's message in ``reason``.  A pass-1 trip raises
:class:`~repro.analysis.BudgetExceeded`: there is no pass 1 to report
(:func:`repro.harness.runner.run_introspective_analysis` turns it into a
timed-out outcome).  A supplied ``pass1`` must fit ``max_tuples`` too: the
budget is exact, so a fresh pass 1 trips iff its fixpoint holds more
tuples than the budget, and a reused one is refused on the same terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from ..analysis import AnalysisResult, BudgetExceeded, PackedProgram, analyze
from ..analysis.pack import ProgramFacts
from ..contexts.introspective import IntrospectivePolicy, RefinementDecision
from ..contexts.policies import ContextPolicy, InsensitivePolicy, policy_by_name
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from ..utils import Stopwatch
from .heuristics import Heuristic, HeuristicA, call_site_universe, object_universe
from .metrics import IntrospectionMetrics, compute_metrics

__all__ = [
    "IntrospectiveOutcome",
    "MIN_PASS2_SECONDS",
    "RefinementStats",
    "run_introspective",
]

#: Floor for the pass-2 share of a shared time budget.  Even when pass 1
#: plus overhead consumed (or overshot) the whole budget, pass 2 starts
#: with this much so it trips its own budget check and reports a clean
#: ``timed_out`` instead of the driver special-casing an exhausted budget.
MIN_PASS2_SECONDS = 1e-3


@dataclass(frozen=True)
class RefinementStats:
    """Figure 4's quantities: how much of the program is *not* refined."""

    total_call_sites: int
    excluded_call_sites: int
    total_objects: int
    excluded_objects: int

    @property
    def call_site_percent(self) -> float:
        """% of call sites selected to not be refined."""
        if self.total_call_sites == 0:
            return 0.0
        return 100.0 * self.excluded_call_sites / self.total_call_sites

    @property
    def object_percent(self) -> float:
        """% of objects selected to not be refined."""
        if self.total_objects == 0:
            return 0.0
        return 100.0 * self.excluded_objects / self.total_objects

    @classmethod
    def of(
        cls, pass1: AnalysisResult, facts: ProgramFacts, decision: RefinementDecision
    ) -> "RefinementStats":
        """The statistics of ``decision`` over pass 1's call sites and objects."""
        return cls(
            total_call_sites=len({invo for invo, _ in call_site_universe(pass1)}),
            excluded_call_sites=len({invo for invo, _ in decision.excluded_sites}),
            total_objects=len(object_universe(pass1, facts)),
            excluded_objects=len(decision.excluded_objects),
        )


@dataclass
class IntrospectiveOutcome:
    """Everything produced by one introspective run."""

    analysis_name: str
    heuristic_name: str
    pass1: AnalysisResult
    metrics: IntrospectionMetrics
    decision: RefinementDecision
    refinement_stats: RefinementStats
    result: Optional[AnalysisResult]  # None when pass 2 hit its budget
    pass1_seconds: float
    overhead_seconds: float
    seconds: float
    timed_out: bool
    #: True when the caller supplied a precomputed pass-1 result; then
    #: ``pass1_seconds`` is 0.0 (this run did not pay for that pass).
    pass1_reused: bool = False
    #: The pass-2 ``BudgetExceeded`` message when ``timed_out``.
    reason: Optional[str] = None

    @property
    def name(self) -> str:
        return f"{self.analysis_name}-Intro{self.heuristic_name}"


def run_introspective(
    program: Program,
    analysis: Union[str, ContextPolicy] = "2objH",
    heuristic: Optional[Heuristic] = None,
    pack: Optional[PackedProgram] = None,
    pass1: Optional[AnalysisResult] = None,
    max_tuples: Optional[int] = None,
    max_seconds: Optional[float] = None,
    tracer: Tracer = NULL_TRACER,
) -> IntrospectiveOutcome:
    """Run the full two-pass introspective analysis.

    ``analysis`` names the refined (expensive) analysis; ``heuristic``
    defaults to the paper's Heuristic A.  ``pack`` is the run's
    :class:`~repro.analysis.PackedProgram` (a fresh one when not given):
    both passes, the metrics, the heuristic and the refinement statistics
    read it, so each method is compiled once.  A precomputed ``pass1``
    result may be supplied to amortize the insensitive pass across
    several introspective variants, as the paper's timing discussion
    suggests; it may come from another pack, and it must hold at most
    ``max_tuples`` tuples.  ``max_seconds`` is shared across both passes
    (see the module docstring).  ``tracer`` records
    pass1/metrics/heuristic/pass2 as child spans.
    """
    if heuristic is None:
        heuristic = HeuristicA()
    if pack is None:
        pack = PackedProgram(program)
    refined = (
        policy_by_name(analysis, alloc_class_of=pack.alloc_class_of)
        if isinstance(analysis, str)
        else analysis
    )

    watch = Stopwatch()
    pass1_reused = pass1 is not None
    if pass1 is None:
        with tracer.span("intro.pass1"):
            pass1 = analyze(
                program,
                InsensitivePolicy(),
                pack=pack,
                max_tuples=max_tuples,
                max_seconds=max_seconds,
                tracer=tracer,
            )
        pass1_seconds = watch.elapsed()
    else:
        if max_tuples is not None and pass1.raw.tuple_count > max_tuples:
            raise BudgetExceeded(
                "tuple budget exceeded", pass1.raw.tuple_count, 0.0
            )
        # Validating/receiving the argument costs ~nothing; reporting the
        # elapsed time here would masquerade as compute time.
        pass1_seconds = 0.0

    watch.restart()
    with tracer.span("intro.metrics"):
        metrics = compute_metrics(pass1, pack)
    with tracer.span("intro.heuristic", heuristic=heuristic.name):
        decision = heuristic.decide(metrics, pack, pass1)
    overhead_seconds = watch.elapsed()

    stats = RefinementStats.of(pass1, pack, decision)

    policy = IntrospectivePolicy(refined, decision)
    pass2_budget = max_seconds
    if max_seconds is not None:
        pass2_budget = max(
            max_seconds - pass1_seconds - overhead_seconds, MIN_PASS2_SECONDS
        )
    watch.restart()
    reason: Optional[str] = None
    result: Optional[AnalysisResult] = None
    try:
        with tracer.span("intro.pass2", analysis=refined.name):
            result = analyze(
                program,
                policy,
                pack=pack,
                max_tuples=max_tuples,
                max_seconds=pass2_budget,
                tracer=tracer,
            )
    except BudgetExceeded as exc:
        reason = str(exc)
    seconds = watch.elapsed()

    return IntrospectiveOutcome(
        analysis_name=refined.name,
        heuristic_name=heuristic.name,
        pass1=pass1,
        metrics=metrics,
        decision=decision,
        refinement_stats=stats,
        result=result,
        pass1_seconds=pass1_seconds,
        overhead_seconds=overhead_seconds,
        seconds=seconds,
        timed_out=result is None,
        pass1_reused=pass1_reused,
        reason=reason,
    )
