"""The demand-driven query engine: plan, slice-solve, memoize.

:class:`QueryEngine` answers ``pts(v)`` under any context flavor by
running the ordinary packed bitset solver over the queried variable's
:class:`~repro.query.planner.SlicePlan` instead of the whole program.
The win is not a faster fixpoint but skipping most of it: the solver,
the policies, and the budget machinery are exactly the whole-program
ones, fed a sliced :class:`FactBase`.

Supported flavors are every :func:`policy_by_name` analysis name
(``insens``, ``2objH``, ``2typeH``, ``2callH``, …) plus the two-pass
introspective variants ``introspective-A`` / ``introspective-B``: the
refinement decision is computed once per engine from the whole-program
insensitive pass (the same inputs :func:`run_introspective` uses), so a
sliced introspective solve reproduces the whole-program introspective
answer.

Results memoize at two grains:

* **planned-variable projections** — every successful solve indexes the
  answer of *every* planned variable of its plan under ``(flavor, v)``:
  the variable's pair mask, a function naming that solve's heaps, and
  the solve's derived-tuple count.  The planner makes every planned
  variable exact, not just the queried one, so a later query whose
  variable some earlier solve planned — a neighbour's closure, a batch's
  union — is answered from the index; it is still planned, for its
  slice figures, but not solved.
* **answer memo** — ``(flavor, var)`` caches the finished
  :class:`QueryAnswer` for repeats.

An engine holds one fact base, so neither key carries its digest.

Budgets are per query: ``max_tuples`` / ``max_seconds`` are handed to
the sliced solver verbatim, so an exhausted query raises the very same
:class:`~repro.analysis.solver.BudgetExceeded` (same ``reason`` /
``tuples`` / ``seconds`` fields) as the whole-program path.  Both tiers
serve a stored answer only when the query's tuple budget is unbounded or
at least the derived-tuple count of the solve that stored it.  Under such
a budget the stored answer is the one the variable's own solve would
return: a planned variable's slice is a subset of the covering plan's,
and the solver is monotone, so its own solve derives no more tuples.
Under a tighter budget the variable gets its own solve, which answers or
raises exactly as on a cold engine, so whether a query answers never
depends on which queries ran before it.  A stored answer takes no solve
time, so it meets any wall-clock budget.  In a batch, a blown union-solve
falls back to per-variable solves — one poisonous query cannot keep its
siblings from being answered or memoized, and a failed solve indexes
nothing.

With a ``tracer`` (``repro query --trace``), planning, slicing and
solving open ``query.plan``, ``query.slice`` and ``query.solve`` spans;
the sliced solver's own spans nest inside ``query.solve``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis import AnalysisResult, BudgetExceeded, analyze
from ..contexts.policies import ContextPolicy, policy_by_name
from ..facts.encoder import FactBase, encode_program
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from .planner import QueryPlanner, SlicePlan

__all__ = ["QueryAnswer", "QueryOutcome", "QueryEngine", "QUERY_FLAVORS"]

#: Flavors every engine answers (any ``policy_by_name`` name also works).
QUERY_FLAVORS = (
    "insens",
    "2objH",
    "2typeH",
    "2callH",
    "introspective-A",
    "introspective-B",
)


@dataclass(frozen=True)
class QueryAnswer:
    """One answered query, with its slice-economics receipts."""

    var: str
    flavor: str
    points_to: FrozenSet[str]
    slice_variables: int  # planned variables in the slice
    slice_methods: int  # methods the slice keeps reachable
    slice_tuples: int  # instruction facts the sliced solve saw
    footprint: float  # slice_variables / program variables (0..1)
    seconds: float  # wall clock to answer (plan + solve), ~0 on a hit
    memoized: bool  # answered from the memo without solving

    def to_json(self) -> Dict[str, object]:
        return {
            "var": self.var,
            "flavor": self.flavor,
            "points_to": sorted(self.points_to),
            "slice_variables": self.slice_variables,
            "slice_methods": self.slice_methods,
            "slice_tuples": self.slice_tuples,
            "footprint": self.footprint,
            "seconds": self.seconds,
            "memoized": self.memoized,
        }


@dataclass
class QueryOutcome:
    """One slot of a batch answer: an answer or a per-query timeout."""

    var: str
    answer: Optional[QueryAnswer] = None
    error: Optional[BudgetExceeded] = None

    def to_json(self) -> Dict[str, object]:
        if self.answer is not None:
            return self.answer.to_json()
        err = self.error
        return {
            "var": self.var,
            "error": {
                "reason": err.reason,
                "tuples": err.tuples,
                "seconds": err.seconds,
            },
        }


class _Cover(NamedTuple):
    """One planned variable's answer, as a solve that planned it left it."""

    mask: int  # the variable's pair mask, OR-ed over contexts
    heaps: Callable[[int], FrozenSet[str]]  # names a mask's heap sites
    tuples: int  # tuples the solve derived: the least budget it fits


class QueryEngine:
    """Answer points-to queries over slices of one program.

    Building an engine pays for one context-insensitive whole-program
    pass (the ahead-of-time call graph every demand-driven formulation
    assumes); every query after that touches only its slice.  Pass a
    precomputed ``insens`` result to amortize that warm-up across
    engines — the service does, via its session/pass-1 caches.
    """

    def __init__(
        self,
        program: Program,
        facts: Optional[FactBase] = None,
        insens: Optional[AnalysisResult] = None,
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.program = program
        self.tracer = tracer
        self.facts = (
            facts if facts is not None else encode_program(program, tracer=tracer)
        )
        self.insens = (
            insens
            if insens is not None
            else analyze(program, "insens", facts=self.facts, tracer=tracer)
        )
        self.planner = QueryPlanner(program, self.facts, self.insens.call_graph)
        self.max_tuples = max_tuples
        self.max_seconds = max_seconds
        self._plans: Dict[str, SlicePlan] = {}
        self._policies: Dict[str, ContextPolicy] = {}
        # (flavor, var) -> var's answer from the cheapest solve that
        # planned it
        self._cover: Dict[Tuple[str, str], _Cover] = {}
        # (flavor, var) -> finished answer
        self._answer_memo: Dict[Tuple[str, str], QueryAnswer] = {}
        self.solves = 0  # sliced fixpoints actually run (tests/metrics)

    @cached_property
    def digest(self) -> str:
        """The engine's :meth:`FactBase.digest`, computed on first read."""
        return self.facts.digest()

    # ------------------------------------------------------------------
    # Flavors
    # ------------------------------------------------------------------
    def policy(self, flavor: str) -> ContextPolicy:
        """The context policy a flavor name denotes, memoized.

        ``introspective-A``/``-B`` build the two-pass refinement policy
        from this engine's whole-program insensitive pass — the same
        metrics and heuristic decision :func:`run_introspective` would
        compute, so sliced answers match the driver's.
        """
        cached = self._policies.get(flavor)
        if cached is not None:
            return cached
        if flavor.startswith("introspective-"):
            from ..contexts.introspective import IntrospectivePolicy
            from ..introspection import HeuristicA, HeuristicB, compute_metrics

            heur_name = flavor[len("introspective-"):]
            heuristics = {"A": HeuristicA, "B": HeuristicB}
            if heur_name not in heuristics:
                raise ValueError(
                    f"unknown introspective flavor {flavor!r}; "
                    f"expected introspective-A or introspective-B"
                )
            metrics = compute_metrics(self.insens, self.facts)
            decision = heuristics[heur_name]().decide(
                metrics, self.facts, self.insens
            )
            refined = policy_by_name(
                "2objH", alloc_class_of=self.facts.alloc_class_of
            )
            policy: ContextPolicy = IntrospectivePolicy(refined, decision)
        else:
            policy = policy_by_name(
                flavor, alloc_class_of=self.facts.alloc_class_of
            )
        self._policies[flavor] = policy
        return policy

    # ------------------------------------------------------------------
    # Planning / solving
    # ------------------------------------------------------------------
    def plan(self, var: str) -> SlicePlan:
        plan = self._plans.get(var)
        if plan is None:
            with self.tracer.span("query.plan", variables=1):
                plan = self._plans[var] = self.planner.plan([var])
        return plan

    def _solve_plan(
        self,
        plan: SlicePlan,
        flavor: str,
        max_tuples: Optional[int],
        max_seconds: Optional[float],
    ) -> None:
        """Solve one slice and index every planned variable's answer.

        Raises :class:`BudgetExceeded` without touching the index.
        """
        with self.tracer.span("query.slice", tuples=plan.kept_tuples):
            sliced = plan.sliced_facts(self.program, self.facts)
        with self.tracer.span("query.solve", flavor=flavor):
            result = analyze(
                self.program,
                self.policy(flavor),
                facts=sliced,
                max_tuples=max_tuples,
                max_seconds=max_seconds,
                tracer=self.tracer,
            )
        self.solves += 1
        heaps = result.mask_heaps()
        tuples = result.raw.tuple_count
        cover = self._cover
        for v in plan.variables:
            key = (flavor, v)
            old = cover.get(key)
            if old is None or tuples < old.tuples:
                cover[key] = _Cover(result.var_mask(v), heaps, tuples)

    def _fitting_cover(
        self, key: Tuple[str, str], max_tuples: Optional[int]
    ) -> Optional[_Cover]:
        """``key``'s stored answer if a solve under ``max_tuples`` would
        reach it too, else ``None``."""
        cover = self._cover.get(key)
        if cover is None:
            return None
        if max_tuples is not None and max_tuples < cover.tuples:
            return None
        return cover

    def _footprint(self, plan: SlicePlan) -> float:
        total = self.planner.total_variables
        return len(plan.variables) / total if total else 0.0

    def query(
        self,
        var: str,
        flavor: str = "insens",
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> QueryAnswer:
        """Answer ``pts(var)`` under ``flavor``; raises on a blown budget."""
        key = (flavor, var)
        if max_tuples is None:
            max_tuples = self.max_tuples
        cover = self._fitting_cover(key, max_tuples)
        if cover is not None:
            cached = self._answer_memo.get(key)
            if cached is not None:
                return cached
        start = time.perf_counter()
        plan = self.plan(var)
        covered = cover is not None
        if not covered:
            self._solve_plan(
                plan,
                flavor,
                max_tuples,
                max_seconds if max_seconds is not None else self.max_seconds,
            )
            cover = self._cover[key]
        answer = QueryAnswer(
            var=var,
            flavor=flavor,
            points_to=cover.heaps(cover.mask),
            slice_variables=len(plan.variables),
            slice_methods=len(plan.methods),
            slice_tuples=plan.kept_tuples,
            footprint=self._footprint(plan),
            seconds=time.perf_counter() - start,
            memoized=covered,
        )
        self._answer_memo[key] = answer
        return answer

    def query_batch(
        self,
        variables: Sequence[str],
        flavor: str = "insens",
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> List[QueryOutcome]:
        """Answer a batch of queries, sharing one slice union-solve.

        The per-query budget applies to the union-solve first (it is the
        cheapest way to answer everyone); if the union blows it, each
        query retries alone under the same budget, so only the genuinely
        over-budget variables report errors.  Answer order matches input
        order; duplicate variables share one slot's work.
        """
        max_tuples = max_tuples if max_tuples is not None else self.max_tuples
        max_seconds = (
            max_seconds if max_seconds is not None else self.max_seconds
        )
        outcomes: List[QueryOutcome] = []
        fresh = [
            v
            for v in dict.fromkeys(variables)
            if self._fitting_cover((flavor, v), max_tuples) is None
        ]
        if len(fresh) > 1:
            with self.tracer.span("query.plan", variables=len(fresh)):
                union = self.planner.plan(fresh)
            try:
                # every member is planned in the union, so this one solve
                # indexes each member's answer for the loop below
                self._solve_plan(union, flavor, max_tuples, max_seconds)
            except BudgetExceeded:
                pass  # fall back to per-variable solves below
        for var in variables:
            try:
                outcomes.append(
                    QueryOutcome(
                        var,
                        answer=self.query(
                            var,
                            flavor,
                            max_tuples=max_tuples,
                            max_seconds=max_seconds,
                        ),
                    )
                )
            except BudgetExceeded as exc:
                outcomes.append(QueryOutcome(var, error=exc))
        return outcomes

    def clear_memos(self) -> None:
        """Drop both memo tiers (plans and policies stay warm).

        The bench harness uses this to time every query cold while still
        amortizing the insensitive pass and the planner's indexes, which
        is the steady state a long-lived engine actually runs in.
        """
        self._cover.clear()
        self._answer_memo.clear()

    # ------------------------------------------------------------------
    # Introspection of the memo (tests, /metrics)
    # ------------------------------------------------------------------
    @property
    def memo_entries(self) -> int:
        """Planned-variable projections indexed, one per (flavor, var)."""
        return len(self._cover)

    @property
    def answered(self) -> int:
        return len(self._answer_memo)
