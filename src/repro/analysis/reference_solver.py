"""Frozen pre-optimization worklist solver (the benchmark baseline).

This is a byte-level snapshot of :mod:`repro.analysis.solver` as it stood
before the packed-representation rework: points-to sets hold ``(heap, hctx)``
tuple pairs, edge propagation runs per-tuple comprehensions, cast filters
rescan the heap-type table, and consumers dispatch on string tags.

It exists for two reasons:

* ``repro bench`` measures the packed solver *against* this baseline and
  records the speedup trajectory as ``bench-solver`` receipts;
* the differential tests cross-validate the packed solver's relations
  against this one (in addition to the Datalog model), guaranteeing the
  representation change introduced no precision drift.

Do not optimize this module; it is the yardstick.  Budget semantics are
shared with the live solver via :class:`~repro.analysis.solver.BudgetExceeded`.
"""


from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, FrozenSet, List, Optional, Set, Tuple

from ..contexts.abstractions import ContextTable
from ..contexts.policies import ContextPolicy
from ..facts.encoder import FactBase, encode_program
from ..ir.program import Program
from ..utils import Interner, Stopwatch
from .solver import BudgetExceeded

__all__ = ["ReferencePointsToSolver", "ReferenceRawSolution", "reference_solve"]

#: Sentinel for "no target variable" / "dispatch failed".
_NONE = -1

#: How many tuple insertions between wall-clock checks.
_CLOCK_CHECK_PERIOD = 4096


@dataclass
class _MethodBody:
    """A method compiled to interned instruction vectors."""

    allocs: List[Tuple[int, int]]  # (var, heap)
    moves: List[Tuple[int, int]]  # (from, to)
    casts: List[Tuple[int, int, int]]  # (from, to, type)
    loads: List[Tuple[int, int, int]]  # (to, base, fld)
    stores: List[Tuple[int, int, int]]  # (base, fld, from)
    vcalls: List[Tuple[int, int, int, int, Tuple[int, ...]]]
    # (base, sig, invo, lhs, args)
    specialcalls: List[Tuple[int, int, int, int, Tuple[int, ...]]]
    # (base, meth, invo, lhs, args)
    scalls: List[Tuple[int, int, int, Tuple[int, ...]]]
    # (meth, invo, lhs, args)
    staticloads: List[Tuple[int, int]]  # (to, sfld)
    staticstores: List[Tuple[int, int]]  # (sfld, from)
    throws: List[int]  # thrown vars
    catches: List[Tuple[int, int]]  # (type, var)
    formals: Tuple[int, ...]
    returns: Tuple[int, ...]
    this: int  # _NONE for static methods


@dataclass
class ReferenceRawSolution:
    """Interned analysis output; wrapped by ``results.AnalysisResult``.

    ``var_pts`` maps node id -> set of (heap, hctx) for variable nodes only;
    ``var_nodes`` recovers the (var, ctx) key of each node.
    """

    vars: Interner
    heaps: Interner
    meths: Interner
    invos: Interner
    flds: Interner
    ctxs: ContextTable
    hctxs: ContextTable
    var_nodes: Dict[Tuple[int, int], int]
    fld_nodes: Dict[Tuple[int, int, int], int]
    static_nodes: Dict[int, int]
    throw_nodes: Dict[Tuple[int, int], int]
    static_flds: Interner
    pts: List[Set[Tuple[int, int]]]
    reachable: Set[Tuple[int, int]]
    call_graph: Set[Tuple[int, int, int, int]]
    vcall_dispatches: Dict[Tuple[int, int], Set[int]]
    # (invo, _) unused; keyed by invo -> resolved target methods (insens proj)
    tuple_count: int
    seconds: float


class ReferencePointsToSolver:
    """One-shot solver: construct, :meth:`solve`, read the solution."""

    def __init__(
        self,
        program: Program,
        policy: ContextPolicy,
        facts: Optional[FactBase] = None,
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
    ) -> None:
        self.program = program
        self.policy = policy
        self.facts = facts if facts is not None else encode_program(program)
        self.max_tuples = max_tuples
        self.max_seconds = max_seconds

        # Interners ---------------------------------------------------------
        self.vars: Interner[str] = Interner()
        self.heaps: Interner[str] = Interner()
        self.meths: Interner[str] = Interner()
        self.invos: Interner[str] = Interner()
        self.flds: Interner[str] = Interner()
        self.sigs: Interner[str] = Interner()
        self.types: Interner[str] = Interner()
        self.static_flds: Interner[Tuple[str, str]] = Interner()
        self.ctxs = ContextTable()
        self.hctxs = ContextTable()

        # Graph state ---------------------------------------------------------
        self._pts: List[Set[Tuple[int, int]]] = []
        self._out_edges: List[List[Tuple[int, int]]] = []  # (dst, filter_type|_NONE)
        self._consumers: List[List[tuple]] = []
        self._edge_seen: Set[Tuple[int, int, int]] = set()
        self._var_nodes: Dict[Tuple[int, int], int] = {}
        self._fld_nodes: Dict[Tuple[int, int, int], int] = {}
        self._static_nodes: Dict[int, int] = {}
        self._throw_nodes: Dict[Tuple[int, int], int] = {}

        self._worklist: Deque[int] = deque()
        self._pending: Dict[int, Set[Tuple[int, int]]] = {}

        self._reachable: Set[Tuple[int, int]] = set()
        self._call_graph: Set[Tuple[int, int, int, int]] = set()
        self._vcall_targets: Dict[int, Set[int]] = {}

        # Caches ---------------------------------------------------------
        self._record_cache: Dict[Tuple[int, int], int] = {}
        self._merge_cache: Dict[Tuple[int, int, int, int], int] = {}
        self._merge_static_cache: Dict[Tuple[int, int], int] = {}
        self._filter_cache: Dict[int, FrozenSet[int]] = {}
        self._dispatch_cache: Dict[Tuple[int, int], int] = {}

        self._tuple_count = 0
        self._ops_since_clock = 0
        self._stopwatch = Stopwatch()

        self._heap_type: Dict[int, int] = {}
        self._bodies: Dict[int, _MethodBody] = {}
        self._compile_facts()

    # ------------------------------------------------------------------
    # Fact compilation: strings -> interned method bodies
    # ------------------------------------------------------------------
    def _compile_facts(self) -> None:
        f = self.facts
        per_method: Dict[str, _MethodBody] = {}

        def body(meth: str) -> _MethodBody:
            mb = per_method.get(meth)
            if mb is None:
                mb = _MethodBody(
                    [], [], [], [], [], [], [], [], [], [], [], [],
                    formals=(), returns=(), this=_NONE,
                )
                per_method[meth] = mb
            return mb

        for meth in (m.id for m in self.program.methods()):
            body(meth)

        for var, heap, meth in f.alloc:
            body(meth).allocs.append((self.vars.intern(var), self.heaps.intern(heap)))
        var_meth = {v: m for v, m in f.varinmeth}
        for to, frm in f.move:
            body(var_meth[to]).moves.append(
                (self.vars.intern(frm), self.vars.intern(to))
            )
        for to, typ, frm, meth in f.cast:
            body(meth).casts.append(
                (self.vars.intern(frm), self.vars.intern(to), self.types.intern(typ))
            )
        for to, base, fld in f.load:
            body(var_meth[to]).loads.append(
                (self.vars.intern(to), self.vars.intern(base), self.flds.intern(fld))
            )
        for base, fld, frm in f.store:
            body(var_meth[base]).stores.append(
                (self.vars.intern(base), self.flds.intern(fld), self.vars.intern(frm))
            )
        for to, cls, fld in f.staticload:
            body(var_meth[to]).staticloads.append(
                (self.vars.intern(to), self.static_flds.intern((cls, fld)))
            )
        for cls, fld, frm in f.staticstore:
            body(var_meth[frm]).staticstores.append(
                (self.static_flds.intern((cls, fld)), self.vars.intern(frm))
            )
        for var, meth in f.throwinstr:
            body(meth).throws.append(self.vars.intern(var))
        for meth, typ, var in f.catchclause:
            body(meth).catches.append(
                (self.types.intern(typ), self.vars.intern(var))
            )

        args_of: Dict[str, Tuple[str, ...]] = f.args_of_invo
        ret_of: Dict[str, str] = {invo: var for invo, var in f.actualreturn}

        def call_parts(invo: str) -> Tuple[int, Tuple[int, ...]]:
            lhs = ret_of.get(invo)
            lhs_i = self.vars.intern(lhs) if lhs is not None else _NONE
            arg_is = tuple(self.vars.intern(a) for a in args_of.get(invo, ()))
            return lhs_i, arg_is

        for base, sig, invo, meth in f.vcall:
            lhs_i, arg_is = call_parts(invo)
            body(meth).vcalls.append(
                (
                    self.vars.intern(base),
                    self.sigs.intern(sig),
                    self.invos.intern(invo),
                    lhs_i,
                    arg_is,
                )
            )
        for base, callee, invo, meth in f.specialcall:
            lhs_i, arg_is = call_parts(invo)
            body(meth).specialcalls.append(
                (
                    self.vars.intern(base),
                    self.meths.intern(callee),
                    self.invos.intern(invo),
                    lhs_i,
                    arg_is,
                )
            )
        for callee, invo, meth in f.scall:
            lhs_i, arg_is = call_parts(invo)
            body(meth).scalls.append(
                (self.meths.intern(callee), self.invos.intern(invo), lhs_i, arg_is)
            )

        formals: Dict[str, Dict[int, str]] = {}
        for meth, i, arg in f.formalarg:
            formals.setdefault(meth, {})[i] = arg
        returns: Dict[str, List[str]] = {}
        for meth, ret in f.formalreturn:
            returns.setdefault(meth, []).append(ret)
        this_of = {meth: this for meth, this in f.thisvar}

        for meth, mb in per_method.items():
            fm = formals.get(meth, {})
            mb.formals = tuple(self.vars.intern(fm[i]) for i in sorted(fm))
            mb.returns = tuple(self.vars.intern(r) for r in returns.get(meth, ()))
            this = this_of.get(meth)
            mb.this = self.vars.intern(this) if this is not None else _NONE
            self._bodies[self.meths.intern(meth)] = mb

        for heap, typ in f.heaptype:
            self._heap_type[self.heaps.get(heap)] = self.types.intern(typ)

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    def _new_node(self) -> int:
        node = len(self._pts)
        self._pts.append(set())
        self._out_edges.append([])
        self._consumers.append([])
        return node

    def _vnode(self, var: int, ctx: int) -> int:
        key = (var, ctx)
        node = self._var_nodes.get(key)
        if node is None:
            node = self._new_node()
            self._var_nodes[key] = node
        return node

    def _fnode(self, heap: int, hctx: int, fld: int) -> int:
        key = (heap, hctx, fld)
        node = self._fld_nodes.get(key)
        if node is None:
            node = self._new_node()
            self._fld_nodes[key] = node
        return node

    def _snode(self, sfld: int) -> int:
        node = self._static_nodes.get(sfld)
        if node is None:
            node = self._new_node()
            self._static_nodes[sfld] = node
        return node

    def _tnode(self, meth: int, ctx: int) -> int:
        """The node holding exceptions escaping (meth, ctx) — the
        THROWPOINTSTO relation."""
        key = (meth, ctx)
        node = self._throw_nodes.get(key)
        if node is None:
            node = self._new_node()
            self._throw_nodes[key] = node
        return node

    # ------------------------------------------------------------------
    # Propagation primitives
    # ------------------------------------------------------------------
    def _add_pts(self, node: int, tuples) -> None:
        pts = self._pts[node]
        new = {t for t in tuples if t not in pts}
        if not new:
            return
        pts.update(new)
        self._charge(len(new))
        pending = self._pending.get(node)
        if pending is None:
            self._pending[node] = set(new)
            self._worklist.append(node)
        else:
            pending.update(new)

    def _charge(self, n: int) -> None:
        self._tuple_count += n
        if self.max_tuples is not None and self._tuple_count > self.max_tuples:
            raise BudgetExceeded(
                "tuple budget exceeded", self._tuple_count, self._stopwatch.elapsed()
            )
        self._ops_since_clock += n
        if self._ops_since_clock >= _CLOCK_CHECK_PERIOD:
            self._ops_since_clock = 0
            if (
                self.max_seconds is not None
                and self._stopwatch.elapsed() > self.max_seconds
            ):
                raise BudgetExceeded(
                    "time budget exceeded",
                    self._tuple_count,
                    self._stopwatch.elapsed(),
                )

    def _add_edge(self, src: int, dst: int, filter_type: int = _NONE) -> None:
        key = (src, dst, filter_type)
        if key in self._edge_seen:
            return
        self._edge_seen.add(key)
        self._out_edges[src].append((dst, filter_type))
        current = self._pts[src]
        if current:
            if filter_type == _NONE:
                self._add_pts(dst, set(current))
            else:
                allowed = self._allowed_heaps(filter_type)
                self._add_pts(dst, {t for t in current if t[0] in allowed})

    def _register_consumer(self, node: int, consumer: tuple) -> None:
        self._consumers[node].append(consumer)
        current = self._pts[node]
        if current:
            self._dispatch_consumer(consumer, set(current))

    def _allowed_heaps(self, type_i: int) -> FrozenSet[int]:
        allowed = self._filter_cache.get(type_i)
        if allowed is None:
            hierarchy = self.program.hierarchy
            target = self.types.value(type_i)
            ok: Set[int] = set()
            for heap_i, ht_i in self._heap_type.items():
                if hierarchy.is_subtype(self.types.value(ht_i), target):
                    ok.add(heap_i)
            allowed = frozenset(ok)
            self._filter_cache[type_i] = allowed
        return allowed

    # ------------------------------------------------------------------
    # Context constructor memoization
    # ------------------------------------------------------------------
    def _record(self, heap: int, ctx: int) -> int:
        key = (heap, ctx)
        hctx = self._record_cache.get(key)
        if hctx is None:
            value = self.policy.record(self.heaps.value(heap), self.ctxs.value(ctx))
            hctx = self.hctxs.intern(value)
            self._record_cache[key] = hctx
        return hctx

    def _merge(self, heap: int, hctx: int, invo: int, meth: int, ctx: int) -> int:
        key = (heap, hctx, invo, ctx)
        callee = self._merge_cache.get(key)
        if callee is None:
            value = self.policy.merge(
                self.heaps.value(heap),
                self.hctxs.value(hctx),
                self.invos.value(invo),
                self.meths.value(meth),
                self.ctxs.value(ctx),
            )
            callee = self.ctxs.intern(value)
            self._merge_cache[key] = callee
        return callee

    def _merge_static(self, invo: int, meth: int, ctx: int) -> int:
        key = (invo, ctx)
        callee = self._merge_static_cache.get(key)
        if callee is None:
            value = self.policy.merge_static(
                self.invos.value(invo), self.meths.value(meth), self.ctxs.value(ctx)
            )
            callee = self.ctxs.intern(value)
            self._merge_static_cache[key] = callee
        return callee

    # ------------------------------------------------------------------
    # Reachability / call linking
    # ------------------------------------------------------------------
    def _make_reachable(self, meth: int, ctx: int) -> None:
        key = (meth, ctx)
        if key in self._reachable:
            return
        self._reachable.add(key)
        self._charge(1)
        mb = self._bodies.get(meth)
        if mb is None:
            return

        vnode = self._vnode
        for var, heap in mb.allocs:
            hctx = self._record(heap, ctx)
            self._add_pts(vnode(var, ctx), ((heap, hctx),))
        for frm, to in mb.moves:
            self._add_edge(vnode(frm, ctx), vnode(to, ctx))
        for frm, to, typ in mb.casts:
            self._add_edge(vnode(frm, ctx), vnode(to, ctx), typ)
        for to, base, fld in mb.loads:
            self._register_consumer(vnode(base, ctx), ("L", fld, vnode(to, ctx)))
        for base, fld, frm in mb.stores:
            self._register_consumer(vnode(base, ctx), ("S", fld, vnode(frm, ctx)))
        for to, sfld in mb.staticloads:
            self._add_edge(self._snode(sfld), vnode(to, ctx))
        for sfld, frm in mb.staticstores:
            self._add_edge(vnode(frm, ctx), self._snode(sfld))
        for var in mb.throws:
            self._register_consumer(vnode(var, ctx), ("T", meth, ctx))
        for base, sig, invo, lhs, args in mb.vcalls:
            self._register_consumer(
                vnode(base, ctx), ("C", sig, invo, ctx, meth, lhs, args)
            )
        for base, callee, invo, lhs, args in mb.specialcalls:
            self._register_consumer(
                vnode(base, ctx), ("D", callee, invo, ctx, meth, lhs, args)
            )
        for callee, invo, lhs, args in mb.scalls:
            callee_ctx = self._merge_static(invo, callee, ctx)
            self._link_call(invo, ctx, meth, callee, callee_ctx, lhs, args)

    def _link_call(
        self,
        invo: int,
        caller_ctx: int,
        caller_meth: int,
        callee: int,
        callee_ctx: int,
        lhs: int,
        args: Tuple[int, ...],
    ) -> None:
        edge = (invo, caller_ctx, callee, callee_ctx)
        if edge in self._call_graph:
            return
        self._call_graph.add(edge)
        self._charge(1)
        self._make_reachable(callee, callee_ctx)
        mb = self._bodies[callee]
        vnode = self._vnode
        for actual, formal in zip(args, mb.formals):
            self._add_edge(vnode(actual, caller_ctx), vnode(formal, callee_ctx))
        if lhs != _NONE:
            for ret in mb.returns:
                self._add_edge(vnode(ret, callee_ctx), vnode(lhs, caller_ctx))
        # Exceptions escaping the callee are (re-)raised in the caller.
        self._register_consumer(
            self._tnode(callee, callee_ctx), ("R", caller_meth, caller_ctx)
        )

    def _raise_in(self, meth: int, ctx: int, heap: int, hctx: int) -> None:
        """An exception object is raised in (meth, ctx): bind it to every
        type-matching catch clause, or let it escape via the throw node."""
        mb = self._bodies.get(meth)
        caught = False
        if mb is not None:
            for catch_type, catch_var in mb.catches:
                if heap in self._allowed_heaps(catch_type):
                    self._add_pts(self._vnode(catch_var, ctx), ((heap, hctx),))
                    caught = True
        if not caught:
            self._add_pts(self._tnode(meth, ctx), ((heap, hctx),))

    def _dispatch(self, heap_type: int, sig: int) -> int:
        key = (heap_type, sig)
        target = self._dispatch_cache.get(key)
        if target is None:
            meth = self.program.lookup(
                self.types.value(heap_type), self.sigs.value(sig)
            )
            target = self.meths.intern(meth.id) if meth is not None else _NONE
            self._dispatch_cache[key] = target
        return target

    # ------------------------------------------------------------------
    # Consumer dispatch
    # ------------------------------------------------------------------
    def _dispatch_consumer(self, consumer: tuple, delta: Set[Tuple[int, int]]) -> None:
        kind = consumer[0]
        if kind == "L":
            _, fld, to_node = consumer
            for heap, hctx in delta:
                self._add_edge(self._fnode(heap, hctx, fld), to_node)
        elif kind == "S":
            _, fld, from_node = consumer
            for heap, hctx in delta:
                self._add_edge(from_node, self._fnode(heap, hctx, fld))
        elif kind == "C":
            _, sig, invo, ctx, in_meth, lhs, args = consumer
            for heap, hctx in delta:
                heap_type = self._heap_type.get(heap)
                if heap_type is None:
                    continue
                callee = self._dispatch(heap_type, sig)
                if callee == _NONE:
                    continue
                self._resolve_receiver_call(
                    heap, hctx, invo, ctx, in_meth, callee, lhs, args
                )
        elif kind == "D":
            _, callee, invo, ctx, in_meth, lhs, args = consumer
            for heap, hctx in delta:
                self._resolve_receiver_call(
                    heap, hctx, invo, ctx, in_meth, callee, lhs, args
                )
        elif kind == "T" or kind == "R":
            _, meth, ctx = consumer
            for heap, hctx in delta:
                self._raise_in(meth, ctx, heap, hctx)
        else:  # pragma: no cover - exhaustive
            raise AssertionError(f"unknown consumer kind {kind!r}")

    def _resolve_receiver_call(
        self,
        heap: int,
        hctx: int,
        invo: int,
        caller_ctx: int,
        caller_meth: int,
        callee: int,
        lhs: int,
        args: Tuple[int, ...],
    ) -> None:
        callee_ctx = self._merge(heap, hctx, invo, callee, caller_ctx)
        self._vcall_targets.setdefault(invo, set()).add(callee)
        self._link_call(
            invo, caller_ctx, caller_meth, callee, callee_ctx, lhs, args
        )
        mb = self._bodies[callee]
        if mb.this != _NONE:
            self._add_pts(self._vnode(mb.this, callee_ctx), ((heap, hctx),))

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self) -> ReferenceRawSolution:
        """Run to fixpoint (or budget) and return the raw solution."""
        self._stopwatch.restart()
        ctx0 = self.ctxs.empty_id
        for ep in self.program.entry_points:
            self._make_reachable(self.meths.intern(ep), ctx0)

        worklist = self._worklist
        pending = self._pending
        pts_filter_none = _NONE
        while worklist:
            node = worklist.popleft()
            delta = pending.pop(node, None)
            if not delta:
                continue
            for dst, filt in self._out_edges[node]:
                if filt == pts_filter_none:
                    self._add_pts(dst, delta)
                else:
                    allowed = self._allowed_heaps(filt)
                    filtered = {t for t in delta if t[0] in allowed}
                    if filtered:
                        self._add_pts(dst, filtered)
            for consumer in self._consumers[node]:
                self._dispatch_consumer(consumer, delta)

        return self._snapshot()

    def _snapshot(self) -> ReferenceRawSolution:
        return ReferenceRawSolution(
            vars=self.vars,
            heaps=self.heaps,
            meths=self.meths,
            invos=self.invos,
            flds=self.flds,
            ctxs=self.ctxs,
            hctxs=self.hctxs,
            var_nodes=self._var_nodes,
            fld_nodes=self._fld_nodes,
            static_nodes=self._static_nodes,
            throw_nodes=self._throw_nodes,
            static_flds=self.static_flds,
            pts=self._pts,
            reachable=self._reachable,
            call_graph=self._call_graph,
            vcall_dispatches={k: set(v) for k, v in self._vcall_targets.items()},
            tuple_count=self._tuple_count,
            seconds=self._stopwatch.elapsed(),
        )


def reference_solve(
    program: Program,
    policy: ContextPolicy,
    facts: Optional[FactBase] = None,
    max_tuples: Optional[int] = None,
    max_seconds: Optional[float] = None,
) -> ReferenceRawSolution:
    """One-call entry point for :class:`ReferencePointsToSolver`."""
    return ReferencePointsToSolver(
        program,
        policy,
        facts=facts,
        max_tuples=max_tuples,
        max_seconds=max_seconds,
    ).solve()
