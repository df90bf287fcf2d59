"""Demand-driven points-to queries (the second Section 5 comparator).

Demand-driven analyses [Heintze & Tardieu PLDI'01; Sridharan et al.
OOPSLA'05; Sridharan & Bodík PLDI'06] answer ``pts(v)`` for *one* variable
by exploring only the part of the program that can flow into ``v``,
instead of solving the whole program.  The paper positions introspective
analysis as the complement: demand techniques shine when a client asks few
questions; introspection is for the all-points setting "when pruning is
not possible".

:class:`DemandPointsTo` implements the classic ahead-of-time-call-graph
formulation: using a call graph from a cheap (context-insensitive) prior
pass, a query pulls in the backward flow slice of the queried variable —
recursively issuing sub-queries for load bases and potential alias store
bases — and runs a mini-Andersen fixpoint over just that slice.  For
catch-free programs the answer is *exactly* the context-insensitive
whole-program result (asserted by the test suite, including
property-based tests); exception handlers are over-approximated (a
type-filtered edge from every throw, ignoring interception along the call
chain), which only ever adds objects.

``visited_variables`` exposes the query's footprint — the quantity the
demand-driven literature's evaluations report — and the benchmark
`benchmarks/test_demand_baseline.py` compares it against the whole
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.results import AnalysisResult
from ..facts.encoder import FactBase
from ..ir.program import Program

__all__ = ["DemandPointsTo", "DemandAnswer"]

#: An edge filter: heap -> allowed?  None = unfiltered.
_Filter = Optional[Callable[[str], bool]]


@dataclass(frozen=True)
class DemandAnswer:
    """One demand query's result and footprint.

    ``exception_slop`` counts the heaps that entered ``points_to`` *only*
    through the every-throw catch edge — the baseline's one deliberate
    over-approximation (it ignores interception along the call chain).
    A catch-free slice always reports 0, so query-vs-exhaustive deltas
    are attributable: exactly ``exception_slop`` of the difference is
    the exception model, the rest would be a bug.
    """

    var: str
    points_to: FrozenSet[str]
    visited_variables: int
    exception_slop: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DemandAnswer {self.var}: {len(self.points_to)} heaps, "
            f"{self.visited_variables} vars visited, "
            f"{self.exception_slop} exception slop>"
        )


class DemandPointsTo:
    """Answer ``pts(v)`` queries over the backward flow slice of ``v``.

    ``call_graph`` is the context-insensitive invocation -> targets
    projection from a prior cheap pass (the standard ahead-of-time call
    graph of the demand-driven literature).  Queries are independent; each
    reports its own footprint.
    """

    def __init__(
        self,
        program: Program,
        facts: FactBase,
        call_graph: Dict[str, Set[str]],
    ) -> None:
        self.program = program
        self.facts = facts
        self.call_graph = {k: set(v) for k, v in call_graph.items()}
        self._build_indexes()

    # ------------------------------------------------------------------
    # Static indexes over the fact base
    # ------------------------------------------------------------------
    def _build_indexes(self) -> None:
        f = self.facts
        self.allocs_into: Dict[str, List[str]] = {}
        for var, heap, _m in f.alloc:
            self.allocs_into.setdefault(var, []).append(heap)

        self.moves_into: Dict[str, List[str]] = {}
        for to, frm in f.move:
            self.moves_into.setdefault(to, []).append(frm)

        self.casts_into: Dict[str, List[Tuple[str, str]]] = {}
        for to, typ, frm, _m in f.cast:
            self.casts_into.setdefault(to, []).append((frm, typ))

        self.loads_into: Dict[str, List[Tuple[str, str]]] = {}
        for to, base, fld in f.load:
            self.loads_into.setdefault(to, []).append((base, fld))
        # Stores are the only edges that leave their method without a
        # call-graph edge, so they alone must skip unreachable methods
        # (an unreachable static store would otherwise leak its heaps).
        reachable = set(self.program.entry_points)
        for targets in self.call_graph.values():
            reachable |= targets
        var_meth = f.index().var_meth
        self.stores_by_field: Dict[str, List[Tuple[str, str]]] = {}
        for base, fld, frm in f.store:
            if var_meth[base] in reachable:
                self.stores_by_field.setdefault(fld, []).append((base, frm))

        self.staticloads_into: Dict[str, List[Tuple[str, str]]] = {}
        for to, cls, fld in f.staticload:
            self.staticloads_into.setdefault(to, []).append((cls, fld))
        self.staticstores: Dict[Tuple[str, str], List[str]] = {}
        for cls, fld, frm in f.staticstore:
            if var_meth[frm] in reachable:
                self.staticstores.setdefault((cls, fld), []).append(frm)

        self.formal_of: Dict[str, Tuple[str, int]] = {}
        for meth, i, arg in f.formalarg:
            self.formal_of[arg] = (meth, i)
        self.rets_of: Dict[str, List[str]] = {}
        for meth, ret in f.formalreturn:
            self.rets_of.setdefault(meth, []).append(ret)
        self.this_of_meth: Dict[str, str] = dict(f.thisvar)
        self.meth_of_this: Dict[str, str] = {v: m for m, v in f.thisvar}

        self.invos_calling: Dict[str, List[str]] = {}
        for invo, targets in self.call_graph.items():
            for meth in targets:
                self.invos_calling.setdefault(meth, []).append(invo)
        self.args_of = f.args_of_invo
        self.ret_target_of: Dict[str, List[str]] = {}
        for invo, var in f.actualreturn:
            self.ret_target_of.setdefault(var, []).append(invo)
        self.base_of_invo: Dict[str, str] = {}
        self.sig_of_invo: Dict[str, str] = {}
        for base, sig, invo, _m in f.vcall:
            self.base_of_invo[invo] = base
            self.sig_of_invo[invo] = sig
        for base, _meth, invo, _m in f.specialcall:
            self.base_of_invo[invo] = base

        self.throw_vars: List[str] = [var for var, _m in f.throwinstr]
        self.catch_type_of: Dict[str, str] = {}
        for _meth, typ, var in f.catchclause:
            self.catch_type_of[var] = typ

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def query(self, var: str) -> DemandAnswer:
        hierarchy = self.program.hierarchy
        heap_type = self.facts.heap_type

        pts: Dict[str, Set[str]] = {}
        # (source var, filter, via-catch-edge?) — the flag lets a second
        # fixpoint without the over-approximate every-throw catch edges
        # attribute exactly which heaps they added (``exception_slop``).
        edges_into: Dict[str, List[Tuple[str, _Filter, bool]]] = {}
        pending_loads: Dict[str, List[Tuple[str, str]]] = {}
        # load entries indexed by their base: (target var, field)
        loads_by_base: Dict[str, List[Tuple[str, str]]] = {}
        store_bases_by_field: Dict[str, List[Tuple[str, str]]] = {}
        visited: Set[str] = set()
        worklist: List[str] = []

        def subtype_filter(type_name: str) -> _Filter:
            return lambda heap: hierarchy.is_subtype(heap_type[heap], type_name)

        def dispatch_filter(sig: str, target_meth: str) -> _Filter:
            def ok(heap: str) -> bool:
                found = self.program.lookup(heap_type[heap], sig)
                return found is not None and found.id == target_meth

            return ok

        def need(v: str) -> None:
            if v in visited:
                return
            visited.add(v)
            pts.setdefault(v, set())
            worklist.append(v)
            for heap in self.allocs_into.get(v, ()):
                pts[v].add(heap)
            for frm in self.moves_into.get(v, ()):
                edges_into.setdefault(v, []).append((frm, None, False))
                need(frm)
            for frm, typ in self.casts_into.get(v, ()):
                edges_into.setdefault(v, []).append(
                    (frm, subtype_filter(typ), False)
                )
                need(frm)
            # interprocedural: v as a formal parameter
            if v in self.formal_of:
                meth, i = self.formal_of[v]
                for invo in self.invos_calling.get(meth, ()):
                    actuals = self.args_of.get(invo, [])
                    if i < len(actuals):
                        edges_into.setdefault(v, []).append(
                            (actuals[i], None, False)
                        )
                        need(actuals[i])
            # v as `this`
            if v in self.meth_of_this:
                meth = self.meth_of_this[v]
                for invo in self.invos_calling.get(meth, ()):
                    base = self.base_of_invo.get(invo)
                    if base is None:
                        continue
                    sig = self.sig_of_invo.get(invo)
                    filt = dispatch_filter(sig, meth) if sig else None
                    edges_into.setdefault(v, []).append((base, filt, False))
                    need(base)
            # v as a call's result
            for invo in self.ret_target_of.get(v, ()):
                for meth in self.call_graph.get(invo, ()):
                    for ret in self.rets_of.get(meth, ()):
                        edges_into.setdefault(v, []).append((ret, None, False))
                        need(ret)
            # v as a load target: need the base; stores resolve at fixpoint
            for base, fld in self.loads_into.get(v, ()):
                loads_by_base.setdefault(base, []).append((v, fld))
                need(base)
                for store_base, frm in self.stores_by_field.get(fld, ()):
                    store_bases_by_field.setdefault(fld, []).append(
                        (store_base, frm)
                    )
                    need(store_base)
                    need(frm)
            for cls, fld in self.staticloads_into.get(v, ()):
                for frm in self.staticstores.get((cls, fld), ()):
                    edges_into.setdefault(v, []).append((frm, None, False))
                    need(frm)
            # v as a catch variable (over-approximate: see module docstring)
            if v in self.catch_type_of:
                filt = subtype_filter(self.catch_type_of[v])
                for tv in self.throw_vars:
                    edges_into.setdefault(v, []).append((tv, filt, True))
                    need(tv)

        need(var)

        has_catch_edges = any(
            catch for edges in edges_into.values() for _, _, catch in edges
        )

        def fixpoint(seeds: Dict[str, Set[str]], with_catch: bool) -> None:
            # Mini-Andersen fixpoint over the slice.
            changed = True
            while changed:
                changed = False
                for v in list(visited):
                    acc = seeds[v]
                    before = len(acc)
                    for src, filt, catch in edges_into.get(v, ()):
                        if catch and not with_catch:
                            continue
                        src_pts = seeds.get(src, ())
                        if filt is None:
                            acc.update(src_pts)
                        else:
                            acc.update(h for h in src_pts if filt(h))
                    # loads through this variable's aliases
                    for to, fld in loads_by_base.get(v, ()):
                        base_heaps = seeds[v]
                        for store_base, frm in self.stores_by_field.get(
                            fld, ()
                        ):
                            if store_base in seeds and (
                                seeds[store_base] & base_heaps
                            ):
                                if not seeds[to] >= seeds.get(frm, set()):
                                    seeds[to].update(seeds.get(frm, set()))
                                    changed = True
                    if len(acc) != before:
                        changed = True

        exception_slop = 0
        if has_catch_edges:
            # What would the answer be without the every-throw edges?
            # Anything the full run adds on top of that is exception slop.
            no_throw = {v: set(heaps) for v, heaps in pts.items()}
            fixpoint(no_throw, with_catch=False)
        fixpoint(pts, with_catch=True)
        if has_catch_edges:
            exception_slop = len(pts.get(var, set()) - no_throw.get(var, set()))

        return DemandAnswer(
            var=var,
            points_to=frozenset(pts.get(var, ())),
            visited_variables=len(visited),
            exception_slop=exception_slop,
        )

    @classmethod
    def from_insensitive_result(
        cls, program: Program, facts: FactBase, insens: AnalysisResult
    ) -> "DemandPointsTo":
        """Build the query engine from a prior insensitive pass's call graph."""
        return cls(program, facts, insens.call_graph)
