"""Slice planning: the backward flow closure of a queried variable.

The planner turns ``pts(v)?`` into a :class:`SlicePlan` — the subset of a
program's instruction facts that is *sufficient* to reproduce the
whole-program answer for ``v`` under **any** context policy.  It reuses
the cheap ahead-of-time context-insensitive call graph (the classic
demand-driven formulation of [Heintze & Tardieu PLDI'01; Sridharan et
al. OOPSLA'05]) to resolve virtual dispatch during planning, and closes
over three kinds of dependencies:

1. **Backward data closure** — everything that can flow into ``v``:
   allocations, moves, casts, loads (plus every store to the same field
   and the store bases' own slices), static field pairs, actuals bound
   to ``v``-as-formal, receivers bound to ``v``-as-``this``, and callee
   returns bound to ``v``-as-call-result.

2. **Transport closure** — every method containing a kept fact must be
   *reachable under the same contexts* as in the whole program, because
   context-sensitive answers are unions over contexts.  For each such
   method the planner keeps every invocation that can target it (per the
   insensitive call graph, a superset of any context-sensitive call
   graph) and recursively slices the receiver variables of those calls,
   up to the entry points.

3. **Exception closure** — when a needed variable is a catch variable of
   method ``m``, exceptions can reach it from any throw in the forward
   call closure of ``m``.  The planner keeps all throws (and slices the
   thrown variables), **all** catch clauses (dropping a sibling clause
   would let exceptions escape further than they really do), and all
   invocations of every method in that closure.

Because the sliced fact base is a subset of the original with identical
entry points, the sliced solve under-approximates the whole-program
result everywhere (monotonicity); the closure rules guarantee it does
not under-approximate on the planned variables.  Equality — per flavor,
including the introspective two-pass policies — is asserted by the
tier-1 tests and the ``demand-equivalence`` fuzz oracle.

Name-and-type relations (``formalarg``, ``varinmeth``, ``heaptype``,
``subtype``, …) are shared whole, by reference, together with the fact
base's :class:`~repro.facts.encoder.FactIndex`: the solver looks methods
and variables up there (``var_meth`` lookups must never miss), and it is
built once per fact base, not once per slice.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from ..facts.encoder import INSTRUCTION_RELATIONS, FactBase
from ..ir.program import Program

__all__ = ["SlicePlan", "QueryPlanner", "SLICED_RELATIONS"]

#: The instruction relations a plan actually slices; everything else in
#: the :class:`FactBase` is shared whole (see module docstring).
SLICED_RELATIONS = INSTRUCTION_RELATIONS


@dataclass
class SlicePlan:
    """The facts needed to answer ``pts(v)`` for a set of variables.

    ``variables`` are the *planned* variables — exactly those whose
    sliced answer provably equals the whole-program answer.  Projecting
    any other variable out of a sliced solve may under-approximate.
    """

    queried: Tuple[str, ...]
    variables: FrozenSet[str]
    methods: FrozenSet[str]
    kept: Dict[str, Set[tuple]] = field(repr=False, default_factory=dict)

    @property
    def kept_tuples(self) -> int:
        return sum(len(v) for v in self.kept.values())

    @property
    def signature(self) -> str:
        """Content address of the slice: sha256 over the kept tuples.

        Two plans whose closures select the same facts share a signature,
        whichever variables seeded them.  It is no memo key: the engine
        indexes answers by planned variable, so no query hashes its slice.
        """
        h = hashlib.sha256()
        for name in SLICED_RELATIONS:
            h.update(name.encode())
            h.update(b"\x00")
            rows = sorted(
                "\x1f".join(str(f) for f in t) for t in self.kept.get(name, ())
            )
            for row in rows:
                h.update(row.encode())
                h.update(b"\x1e")
        return h.hexdigest()

    def sliced_facts(self, program: Program, facts: FactBase) -> FactBase:
        """A :class:`FactBase` holding only this plan's instruction facts.

        O(slice) end to end: the name-and-type relations, the encoder's
        indexes and the fact base's shared
        :class:`~repro.facts.encoder.FactIndex` are shared by reference
        (they are read-only in the solver), and a solver built over the
        result groups only the sliced rows, compiling a method body the
        first time the sliced solve reaches it.
        """
        return facts.with_instructions(
            program,
            {name: sorted(self.kept.get(name, ())) for name in SLICED_RELATIONS},
        )


class _InvoInfo:
    """Planner-side view of one invocation site."""

    __slots__ = ("invo", "kind", "meth", "base", "row", "syntactic")

    def __init__(self, invo, kind, meth, base, row, syntactic):
        self.invo = invo
        self.kind = kind  # relation name the row belongs to
        self.meth = meth  # containing method
        self.base = base  # receiver var, None for static calls
        self.row = row  # the original fact tuple
        self.syntactic = syntactic  # statically named target, or None


class QueryPlanner:
    """Build :class:`SlicePlan`s over one program's fact base.

    ``call_graph`` is the invocation -> targets projection of a prior
    context-insensitive pass (:attr:`AnalysisResult.call_graph`) — a
    superset of the call graph under any context policy, which is what
    makes planning against it sound for every flavor.
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
        self.total_variables = len(facts.varinmeth)
        self._build_indexes()

    # ------------------------------------------------------------------
    # Static indexes over the fact base
    # ------------------------------------------------------------------
    def _build_indexes(self) -> None:
        f = self.facts

        shared = f.index()
        self.var_meth: Dict[str, str] = shared.var_meth

        self.allocs_into: Dict[str, List[tuple]] = {}
        for row in f.alloc:
            self.allocs_into.setdefault(row[0], []).append(row)
        self.moves_into: Dict[str, List[tuple]] = {}
        for row in f.move:
            self.moves_into.setdefault(row[0], []).append(row)
        self.casts_into: Dict[str, List[tuple]] = {}
        for row in f.cast:
            self.casts_into.setdefault(row[0], []).append(row)
        self.loads_into: Dict[str, List[tuple]] = {}
        for row in f.load:
            self.loads_into.setdefault(row[0], []).append(row)
        self.stores_by_field: Dict[str, List[tuple]] = {}
        for row in f.store:
            self.stores_by_field.setdefault(row[1], []).append(row)
        self.staticloads_into: Dict[str, List[tuple]] = {}
        for row in f.staticload:
            self.staticloads_into.setdefault(row[0], []).append(row)
        self.staticstores_of: Dict[Tuple[str, str], List[tuple]] = {}
        for row in f.staticstore:
            self.staticstores_of.setdefault((row[0], row[1]), []).append(row)

        self.formal_of: Dict[str, Tuple[str, int]] = {}
        for meth, i, arg in f.formalarg:
            self.formal_of[arg] = (meth, i)
        self.rets_of_meth: Dict[str, Tuple[str, ...]] = shared.returns
        self.meth_of_this: Dict[str, str] = {v: m for m, v in f.thisvar}
        self.ret_invos_of: Dict[str, List[str]] = {}
        for invo, var in f.actualreturn:
            self.ret_invos_of.setdefault(var, []).append(invo)
        self.args_of = f.args_of_invo

        self.invo_info: Dict[str, _InvoInfo] = {}
        self.invos_in_meth: Dict[str, List[str]] = {}
        for row in f.vcall:
            base, _sig, invo, meth = row
            self.invo_info[invo] = _InvoInfo(invo, "vcall", meth, base, row, None)
            self.invos_in_meth.setdefault(meth, []).append(invo)
        for row in f.scall:
            callee, invo, meth = row
            self.invo_info[invo] = _InvoInfo(
                invo, "scall", meth, None, row, callee
            )
            self.invos_in_meth.setdefault(meth, []).append(invo)
        for row in f.specialcall:
            base, callee, invo, meth = row
            self.invo_info[invo] = _InvoInfo(
                invo, "specialcall", meth, base, row, callee
            )
            self.invos_in_meth.setdefault(meth, []).append(invo)

        # invocation sites that can target a method: insensitive call
        # graph for virtual dispatch, syntax for static/special calls.
        self.invos_targeting: Dict[str, Set[str]] = {}
        for invo, targets in self.call_graph.items():
            for meth in targets:
                self.invos_targeting.setdefault(meth, set()).add(invo)
        for info in self.invo_info.values():
            if info.syntactic is not None:
                self.invos_targeting.setdefault(info.syntactic, set()).add(
                    info.invo
                )

        # each invocation's targets, precomputed once: the insensitive
        # call graph's plus the syntactic one of a static/special call.
        self.targets_of: Dict[str, Tuple[str, ...]] = {}
        for invo in self.call_graph.keys() | self.invo_info.keys():
            targets = set(self.call_graph.get(invo, ()))
            info = self.invo_info.get(invo)
            if info is not None and info.syntactic is not None:
                targets.add(info.syntactic)
            self.targets_of[invo] = tuple(targets)

        self.throws_of_meth: Dict[str, List[tuple]] = {}
        for row in f.throwinstr:
            self.throws_of_meth.setdefault(row[1], []).append(row)
        self.catches_of_meth: Dict[str, List[tuple]] = {}
        self.catch_meth_of_var: Dict[str, str] = {}
        for row in f.catchclause:
            self.catches_of_meth.setdefault(row[0], []).append(row)
            self.catch_meth_of_var[row[2]] = row[0]

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(self, variables: Iterable[str]) -> SlicePlan:
        """Close over everything needed to answer ``pts(v)`` exactly.

        Unknown variables are allowed (their answer is simply empty) —
        the solver never sees a fact mentioning them.
        """
        queried = tuple(dict.fromkeys(variables))
        kept: Dict[str, Set[tuple]] = {name: set() for name in SLICED_RELATIONS}
        need_vars: Set[str] = set()
        keep_invos: Set[str] = set()
        reach_methods: Set[str] = set()
        exn_methods: Set[str] = set()
        # a field's stores are kept (and their vars needed) once per plan,
        # however many loads of it the closure meets
        fields_done: Set[str] = set()
        static_fields_done: Set[Tuple[str, str]] = set()
        var_work: List[str] = []
        targets_of = self.targets_of

        def keep(relation: str, row: tuple) -> None:
            kept[relation].add(row)

        def need(v: str) -> None:
            if v not in need_vars:
                need_vars.add(v)
                var_work.append(v)

        def keep_invo(invo: str) -> None:
            if invo in keep_invos:
                return
            keep_invos.add(invo)
            info = self.invo_info[invo]
            keep(info.kind, info.row)
            reach(info.meth)
            if info.base is not None:
                # Receiver points-to drives both dispatch and the MERGE
                # context constructor: it must be exact.
                need(info.base)

        def reach(meth: str) -> None:
            if meth in reach_methods:
                return
            reach_methods.add(meth)
            for invo in self.invos_targeting.get(meth, ()):
                keep_invo(invo)

        def exn(meth: str) -> None:
            if meth in exn_methods:
                return
            exn_methods.add(meth)
            reach(meth)
            for row in self.throws_of_meth.get(meth, ()):
                keep("throwinstr", row)
                need(row[0])
            # every sibling clause stays: interception is first-chance
            # (an exception escapes only when *no* clause matches).
            for row in self.catches_of_meth.get(meth, ()):
                keep("catchclause", row)
            for invo in self.invos_in_meth.get(meth, ()):
                keep_invo(invo)
                for target in targets_of.get(invo, ()):
                    exn(target)

        def expand(v: str) -> None:
            meth = self.var_meth.get(v)
            if meth is not None:
                reach(meth)
            for row in self.allocs_into.get(v, ()):
                keep("alloc", row)
            for row in self.moves_into.get(v, ()):
                keep("move", row)
                need(row[1])
            for row in self.casts_into.get(v, ()):
                keep("cast", row)
                need(row[2])
            for row in self.loads_into.get(v, ()):
                keep("load", row)
                need(row[1])
                fld = row[2]
                if fld in fields_done:
                    continue
                fields_done.add(fld)
                for srow in self.stores_by_field.get(fld, ()):
                    keep("store", srow)
                    need(srow[0])
                    need(srow[2])
            for row in self.staticloads_into.get(v, ()):
                keep("staticload", row)
                sfld = (row[1], row[2])
                if sfld in static_fields_done:
                    continue
                static_fields_done.add(sfld)
                for srow in self.staticstores_of.get(sfld, ()):
                    keep("staticstore", srow)
                    need(srow[2])
            if v in self.formal_of:
                f_meth, i = self.formal_of[v]
                reach(f_meth)
                for invo in self.invos_targeting.get(f_meth, ()):
                    keep_invo(invo)
                    actuals = self.args_of.get(invo, [])
                    if i < len(actuals):
                        need(actuals[i])
            if v in self.meth_of_this:
                t_meth = self.meth_of_this[v]
                reach(t_meth)
                for invo in self.invos_targeting.get(t_meth, ()):
                    keep_invo(invo)
            for invo in self.ret_invos_of.get(v, ()):
                keep_invo(invo)
                for target in targets_of.get(invo, ()):
                    for ret in self.rets_of_meth.get(target, ()):
                        need(ret)
            if v in self.catch_meth_of_var:
                exn(self.catch_meth_of_var[v])

        for v in queried:
            need(v)
        while var_work:
            expand(var_work.pop())

        return SlicePlan(
            queried=queried,
            variables=frozenset(need_vars),
            methods=frozenset(reach_methods),
            kept=kept,
        )
