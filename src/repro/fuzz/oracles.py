"""The metamorphic oracle catalogue.

Each oracle states a property that must hold of *every* valid IR program;
a mutant that falsifies one is a bug in an engine (or in the oracle).  The
checks return ``None`` when the property holds and a :class:`Violation`
otherwise — they never raise on a property failure, so the runner can
shrink and persist the counterexample.

========================  ==============================================
``engine-equivalence``    the packed solver, the frozen reference solver
                          and the Figure 3 Datalog model derive exactly
                          the same VARPOINTSTO / FLDPOINTSTO / CALLGRAPH
                          / REACHABLE relations (string level)
``insensitive-containment``  collapsing contexts of any context-sensitive
                          result yields a subset of the context-
                          insensitive result
``introspective-bracketing``  an introspective analysis sits between its
                          two parents: full-context ⊆ introspective ⊆
                          pass-1 on the insensitive projections
``digest-invariance``     ``FactBase.digest()`` is invariant under fact
                          reordering (content-addressed caching key)
``tuple-budget-exactness``  a budget of exactly the final tuple count
                          succeeds; one tuple less raises BudgetExceeded
``trace-transparency``    attaching a :class:`~repro.obs.Tracer` to the
                          solver changes none of the five relations
                          (observability is strictly read-only)
``incremental-equivalence``  extending a warm
                          :class:`~repro.incremental.IncrementalSession`
                          edit by edit derives exactly the from-scratch
                          relations after every step
``demand-equivalence``    a demand query answered over the variable's
                          slice equals the whole-program projection for
                          the same flavor, and the slice footprint never
                          exceeds the program
========================  ==============================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from ..analysis.reference_solver import ReferenceRawSolution
from ..analysis.results import AnalysisResult
from ..analysis.solver import BudgetExceeded, RawSolution, solve
from ..contexts.policies import ContextPolicy, policy_by_name
from ..facts.encoder import FactBase, encode_program
from ..introspection.driver import IntrospectiveOutcome
from ..ir.program import Program, ProgramError
from ..ir.types import TypeError_
from ..ir.validate import ValidationError
from ..obs import Tracer

__all__ = [
    "ORACLES",
    "Violation",
    "check_demand_equivalence",
    "check_digest_invariance",
    "check_engine_equivalence",
    "check_incremental_equivalence",
    "check_insensitive_containment",
    "check_introspective_bracketing",
    "check_trace_transparency",
    "check_tuple_budget_exactness",
    "reference_relations",
    "solver_relations",
]

#: Oracle catalogue: name -> one-line statement of the invariant.  The
#: names are the ``oracle`` values of regression-corpus entries.
ORACLES: Dict[str, str] = {
    "engine-equivalence": (
        "packed solver, reference solver, and Datalog model derive "
        "identical relations"
    ),
    "insensitive-containment": (
        "context-collapsed sensitive results are contained in the "
        "insensitive result"
    ),
    "introspective-bracketing": (
        "introspective results sit between the pass-1 and full-context runs"
    ),
    "digest-invariance": (
        "FactBase.digest() is invariant under fact reordering"
    ),
    "tuple-budget-exactness": (
        "tuple budget of the exact final count passes; one less times out"
    ),
    "trace-transparency": (
        "attaching a tracer to the solver changes no derived relation"
    ),
    "incremental-equivalence": (
        "a warm incremental session equals the from-scratch result "
        "after every edit"
    ),
    "demand-equivalence": (
        "a sliced demand query equals the whole-program projection "
        "for the same flavor"
    ),
}

_RELATION_NAMES = (
    "VARPOINTSTO",
    "FLDPOINTSTO",
    "CALLGRAPH",
    "REACHABLE",
    "THROWPOINTSTO",
)

Relations = Tuple[FrozenSet, FrozenSet, FrozenSet, FrozenSet, FrozenSet]


@dataclass(frozen=True)
class Violation:
    """One falsified oracle, with enough context to replay and shrink it."""

    oracle: str
    detail: str
    flavor: Optional[str] = None
    engines: Tuple[str, ...] = field(default=())

    def __str__(self) -> str:
        where = f" [{self.flavor}]" if self.flavor else ""
        return f"{self.oracle}{where}: {self.detail}"


# ----------------------------------------------------------------------
# Canonical relation extraction (string level, engine-independent)
# ----------------------------------------------------------------------

def solver_relations(raw: RawSolution) -> Relations:
    """The five relations of a packed solution as string-tuple sets."""
    res = AnalysisResult(raw, "packed")
    return (
        frozenset(res.iter_var_points_to()),
        frozenset(res.iter_fld_points_to()),
        frozenset(res.iter_call_graph()),
        frozenset(res.iter_reachable()),
        frozenset(res.iter_throw_points_to()),
    )


def reference_relations(raw: ReferenceRawSolution) -> Relations:
    """The five relations of a reference solution as string-tuple sets."""
    var = frozenset(
        (
            raw.vars.value(var_i),
            raw.ctxs.value(ctx_i),
            raw.heaps.value(h),
            raw.hctxs.value(hc),
        )
        for (var_i, ctx_i), node in raw.var_nodes.items()
        for h, hc in raw.pts[node]
    )
    fld = frozenset(
        (
            raw.heaps.value(base_i),
            raw.hctxs.value(bhctx),
            raw.flds.value(fld_i),
            raw.heaps.value(h),
            raw.hctxs.value(hc),
        )
        for (base_i, bhctx, fld_i), node in raw.fld_nodes.items()
        for h, hc in raw.pts[node]
    )
    cg = frozenset(
        (
            raw.invos.value(invo),
            raw.ctxs.value(cc),
            raw.meths.value(meth),
            raw.ctxs.value(ec),
        )
        for invo, cc, meth, ec in raw.call_graph
    )
    reach = frozenset(
        (raw.meths.value(m), raw.ctxs.value(c)) for m, c in raw.reachable
    )
    throw = frozenset(
        (
            raw.meths.value(meth_i),
            raw.ctxs.value(ctx_i),
            raw.heaps.value(h),
            raw.hctxs.value(hc),
        )
        for (meth_i, ctx_i), node in raw.throw_nodes.items()
        for h, hc in raw.pts[node]
    )
    return var, fld, cg, reach, throw


def _diff_detail(name: str, left: str, a: FrozenSet, right: str, b: FrozenSet) -> str:
    only_a = sorted(map(repr, a - b))[:3]
    only_b = sorted(map(repr, b - a))[:3]
    parts = [f"{name}: |{left}|={len(a)} |{right}|={len(b)}"]
    if only_a:
        parts.append(f"only-{left}: {', '.join(only_a)}")
    if only_b:
        parts.append(f"only-{right}: {', '.join(only_b)}")
    return "; ".join(parts)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------

def check_engine_equivalence(
    flavor: str,
    packed: Relations,
    reference: Optional[Relations] = None,
    datalog: Optional[Relations] = None,
) -> Optional[Violation]:
    """Exact tuple-set equality between the engines that were run."""
    for other_name, other in (("reference", reference), ("datalog", datalog)):
        if other is None:
            continue
        for rel_name, a, b in zip(_RELATION_NAMES, packed, other):
            if a != b:
                return Violation(
                    oracle="engine-equivalence",
                    flavor=flavor,
                    engines=("packed", other_name),
                    detail=_diff_detail(rel_name, "packed", a, other_name, b),
                )
    return None


def check_insensitive_containment(
    flavor: str, sensitive: AnalysisResult, insens: AnalysisResult
) -> Optional[Violation]:
    """Projection soundness: sensitive results collapse into insensitive."""
    insens_vpt = insens.var_points_to
    for var, heaps in sensitive.var_points_to.items():
        extra = heaps - insens_vpt.get(var, set())
        if extra:
            return Violation(
                oracle="insensitive-containment",
                flavor=flavor,
                detail=f"pts({var}) has {sorted(extra)[:3]} not in insens",
            )
    if not sensitive.reachable_methods <= insens.reachable_methods:
        extra_m = sorted(
            sensitive.reachable_methods - insens.reachable_methods
        )[:3]
        return Violation(
            oracle="insensitive-containment",
            flavor=flavor,
            detail=f"reachable {extra_m} not reachable insensitively",
        )
    insens_cg = insens.call_graph
    for invo, targets in sensitive.call_graph.items():
        extra_t = targets - insens_cg.get(invo, set())
        if extra_t:
            return Violation(
                oracle="insensitive-containment",
                flavor=flavor,
                detail=f"cg({invo}) has {sorted(extra_t)[:3]} not in insens",
            )
    return None


def _contained(
    tight: Dict[str, set], loose: Dict[str, set]
) -> Optional[str]:
    for key, vals in tight.items():
        extra = vals - loose.get(key, set())
        if extra:
            return f"{key}: {sorted(extra)[:3]}"
    return None


def check_introspective_bracketing(
    flavor: str, outcome: IntrospectiveOutcome, full: AnalysisResult
) -> Optional[Violation]:
    """Paper's central relationship: full ⊆ introspective ⊆ pass-1.

    Checked on the insensitive projections of VARPOINTSTO and CALLGRAPH
    plus reachable methods.  Returns ``None`` when pass 2 timed out (no
    result to bracket).
    """
    intro = outcome.result
    if intro is None:
        return None
    pass1 = outcome.pass1
    for lo_name, lo, hi_name, hi in (
        ("full", full, "introspective", intro),
        ("introspective", intro, "pass1", pass1),
    ):
        bad = _contained(lo.var_points_to, hi.var_points_to)
        if bad:
            return Violation(
                oracle="introspective-bracketing",
                flavor=flavor,
                detail=f"var-pts {lo_name} ⊄ {hi_name}: {bad}",
            )
        bad = _contained(lo.call_graph, hi.call_graph)
        if bad:
            return Violation(
                oracle="introspective-bracketing",
                flavor=flavor,
                detail=f"call-graph {lo_name} ⊄ {hi_name}: {bad}",
            )
        if not lo.reachable_methods <= hi.reachable_methods:
            return Violation(
                oracle="introspective-bracketing",
                flavor=flavor,
                detail=f"reachable {lo_name} ⊄ {hi_name}",
            )
    return None


#: FactBase relation-list attributes shuffled by the digest oracle.
_FACT_LIST_ATTRS = (
    "alloc",
    "move",
    "load",
    "store",
    "vcall",
    "scall",
    "specialcall",
    "cast",
    "staticload",
    "staticstore",
    "throwinstr",
    "catchclause",
    "formalarg",
    "actualarg",
    "formalreturn",
    "actualreturn",
    "thisvar",
    "heaptype",
    "lookup",
    "subtype",
    "allocclass",
    "varinmeth",
    "invoinmeth",
    "reachableroot",
)


def check_digest_invariance(
    facts: FactBase, rng: random.Random
) -> Optional[Violation]:
    """Reordering the tuples of every relation must not change the digest."""
    shuffled = FactBase(facts.program)
    for attr in _FACT_LIST_ATTRS:
        rows = getattr(facts, attr)
        setattr(shuffled, attr, rng.sample(rows, len(rows)))
    d0 = facts.digest()
    d1 = shuffled.digest()
    if d0 != d1:
        return Violation(
            oracle="digest-invariance",
            detail=f"digest changed under reordering: {d0[:16]} != {d1[:16]}",
        )
    return None


def check_tuple_budget_exactness(
    program: Program,
    policy: ContextPolicy,
    facts: FactBase,
    expected_tuples: int,
    flavor: Optional[str] = None,
) -> Optional[Violation]:
    """The tuple budget is an exact guillotine, and re-solving is
    deterministic: budget == final count succeeds with the same count,
    budget == final count - 1 raises :class:`BudgetExceeded`."""
    try:
        again = solve(program, policy, facts=facts, max_tuples=expected_tuples)
    except BudgetExceeded as exc:
        return Violation(
            oracle="tuple-budget-exactness",
            flavor=flavor,
            detail=f"budget=={expected_tuples} (exact) raised: {exc}",
        )
    if again.tuple_count != expected_tuples:
        return Violation(
            oracle="tuple-budget-exactness",
            flavor=flavor,
            detail=(
                f"re-solve nondeterministic: {again.tuple_count} != "
                f"{expected_tuples} tuples"
            ),
        )
    if expected_tuples < 1:
        return None
    try:
        solve(program, policy, facts=facts, max_tuples=expected_tuples - 1)
    except BudgetExceeded:
        return None
    return Violation(
        oracle="tuple-budget-exactness",
        flavor=flavor,
        detail=f"budget=={expected_tuples - 1} did not raise BudgetExceeded",
    )


def check_incremental_equivalence(
    sketch,
    seed: int,
    flavor: Optional[str] = None,
    steps: int = 2,
    edits_per_step: int = 2,
    max_tuples: Optional[int] = None,
) -> Optional[Violation]:
    """A warm :class:`~repro.incremental.IncrementalSession` must derive
    exactly the from-scratch relations after every edit it absorbs.

    Applies ``steps`` seeded random edit scripts (removals included, so
    the monotonic, rederive and full tiers are exercised) and compares the
    session's five relations against a fresh packed solve of the edited
    program after each one.

    Budget overruns propagate (the campaign counts them as skips); an
    edit script the session legitimately refuses is skipped, not a
    violation.
    """
    # Imported lazily: repro.incremental imports repro.fuzz.sketch, so a
    # module-level import here would cycle through the package __init__.
    from ..incremental.edits import EditError, random_edit_script
    from ..incremental.session import RESULT_RELATIONS, IncrementalSession

    analysis = flavor or "insens"
    rng = random.Random(seed)
    session = IncrementalSession(
        sketch, analysis=analysis, max_tuples=max_tuples
    )
    for step in range(steps):
        script = random_edit_script(
            session.sketch,
            rng,
            edits=edits_per_step,
            allow_removals=step % 2 == 1,
        )
        try:
            outcome = session.apply(script)
        except (EditError, ProgramError, ValidationError, TypeError_):
            # Invalid edit: the session rolled back; try the next script.
            continue
        program = session.sketch.build()
        facts = encode_program(program)
        policy = policy_by_name(analysis, alloc_class_of=facts.alloc_class_of)
        scratch = solver_relations(
            solve(program, policy, facts=facts, max_tuples=max_tuples)
        )
        warm = session.relations()
        for rel_name, b in zip(RESULT_RELATIONS, scratch):
            a = warm[rel_name]
            if a != b:
                return Violation(
                    oracle="incremental-equivalence",
                    flavor=flavor,
                    engines=("solver-warm", "packed-scratch"),
                    detail=(
                        f"step {step} [{outcome.tier}] "
                        f"({script.describe()}): "
                        + _diff_detail(rel_name, "warm", a, "scratch", b)
                    ),
                )
    return None


def check_trace_transparency(
    program: Program,
    policy: ContextPolicy,
    facts: FactBase,
    untraced: Relations,
    flavor: Optional[str] = None,
    max_tuples: Optional[int] = None,
) -> Optional[Violation]:
    """Tracing is strictly read-only: a solve with a tracer attached
    derives exactly the same five relations as the untraced solve.

    Also asserts the tracer actually recorded solver spans — a stub
    tracer that was silently never threaded through would make this
    oracle pass vacuously.
    """
    tracer = Tracer()
    traced_raw = solve(
        program, policy, facts=facts, max_tuples=max_tuples, tracer=tracer
    )
    traced = solver_relations(traced_raw)
    for rel_name, a, b in zip(_RELATION_NAMES, traced, untraced):
        if a != b:
            return Violation(
                oracle="trace-transparency",
                flavor=flavor,
                detail=_diff_detail(rel_name, "traced", a, "untraced", b),
            )
    names = set(tracer.span_names())
    if not {"solver.seed", "solver.propagate"} <= names:
        return Violation(
            oracle="trace-transparency",
            flavor=flavor,
            detail=f"tracer saw no solver spans (got {sorted(names)})",
        )
    return None


def check_demand_equivalence(
    program: Program,
    facts: FactBase,
    results: Dict[str, AnalysisResult],
    rng: random.Random,
    sample: int = 4,
    max_tuples: Optional[int] = None,
) -> Optional[Violation]:
    """A demand query equals the whole-program projection, per flavor.

    ``results`` maps flavor names (any the query engine supports; must
    include ``insens``, which seeds the engine's ahead-of-time call
    graph) to whole-program results.  A seeded sample of variables is
    queried under every flavor through one
    :class:`~repro.query.QueryEngine`; each answer must equal the
    whole-program set exactly — the slice closure is designed to be
    per-flavor exact, so any delta is a planner or solver bug — and the
    slice footprint can never exceed the program (a "slice" bigger than
    the whole program would be one too).

    Budget overruns propagate (the campaign counts them as skips).
    """
    from ..query import QueryEngine  # local: keep fuzz importable alone

    engine = QueryEngine(
        program,
        facts=facts,
        insens=results["insens"],
        max_tuples=max_tuples,
    )
    variables = sorted({var for var, _m in facts.varinmeth})
    if not variables:
        return None
    picked = rng.sample(variables, min(sample, len(variables)))
    for flavor, whole in sorted(results.items()):
        for var in picked:
            answer = engine.query(var, flavor)
            expected = frozenset(whole.points_to(var))
            if answer.points_to != expected:
                return Violation(
                    oracle="demand-equivalence",
                    flavor=flavor,
                    engines=("demand", "whole-program"),
                    detail=_diff_detail(
                        f"pts({var})",
                        "demand",
                        answer.points_to,
                        "whole",
                        expected,
                    ),
                )
            if answer.slice_variables > len(variables):
                return Violation(
                    oracle="demand-equivalence",
                    flavor=flavor,
                    engines=("demand",),
                    detail=(
                        f"slice footprint exceeds program: "
                        f"{answer.slice_variables} slice vars > "
                        f"{len(variables)} program vars for {var}"
                    ),
                )
    return None
