"""Worklist solver for the context-sensitive points-to analysis.

This is the efficient engine behind all experiments.  It computes exactly the
model of the paper's Figure 3 — VARPOINTSTO, FLDPOINTSTO, CALLGRAPH,
REACHABLE, with on-the-fly call-graph construction and field-sensitivity —
extended with static/special calls, casts (type-filtered assignments) and
static fields, under any :class:`~repro.contexts.policies.ContextPolicy`
(including the introspective dual policy).

Algorithm: differential (semi-naive) propagation over a growing constraint
graph, the standard formulation of context-sensitive Andersen-style analysis:

* *nodes* are context-qualified variables ``(var, ctx)``, context-qualified
  object fields ``(heap, hctx, fld)``, and static fields;
* *edges* are subset constraints, optionally guarded by a cast-type filter;
* when a ``(method, ctx)`` pair first becomes reachable its instructions are
  compiled into nodes/edges/consumers;
* *consumers* attached to a base-variable node react to each new object the
  base may point to — materializing field load/store edges and resolving
  virtual/special calls (the paper's MERGE rule, constructing callee
  contexts on the fly).

Packed bitset representation
----------------------------

Points-to sets do not hold ``(heap, hctx)`` tuple pairs.  Every distinct
pair is *packed* into a single small integer — a dense **pair id** minted in
allocation order — and all propagation state (``_pts``, pending deltas,
cast-filter sets) is an arbitrary-precision **int bitmask** with bit
``pid`` set when the pair is a member.  This buys three things:

* **word-parallel set algebra** — propagation is
  ``new = delta & ~pts; pts |= new`` and cast filtering is
  ``delta & allowed_mask``: one C-level big-int operation each, touching
  64 pair ids per machine word instead of one hash probe per element;
* **allocation-free membership** — ``pts & (1 << pid)`` needs no hashing,
  no tuple allocation, and no hash-table resizing as sets grow; a mask of
  n pairs costs n/8 bytes, densely packed, where a CPython set costs
  ~32 bytes per element plus table slack;
* **O(1) empty/subset tests** — ``if new:`` and the budget math
  (``popcount``) are single big-int primitives.

Iteration happens only at *materialization boundaries* — consumer
dispatch (one virtual call per receiver object), field-node creation, and
the final snapshot — via :func:`iter_bits`, the standard
lowest-set-bit walk (``low = m & -m``).  The dense allocation order of
pair ids keeps masks short: hub-pathology workloads reuse the same few
thousand pairs across millions of tuples.

Unpacking is two list indexes (``pair_heap[pid]``, ``pair_hctx[pid]``); only
call resolution and the final snapshot consumers ever need it.  The
pre-bitset engine is kept verbatim in
:mod:`repro.analysis.reference_solver` as the benchmark baseline.

Cast filters are indexed, not scanned: ``_allowed_pairs`` materializes, per
cast type, the set of pair ids whose heap's type is in the target's
subtype closure (``Program.hierarchy.subtypes`` — precomputed at freeze
time).  The per-type sets are maintained *incrementally*: registering a new
heap type or minting a new pair updates every cached filter, so a filter
created before a heap appears can never go stale (the old implementation
froze the filter at first use and silently dropped later heaps).

Consumers are stored in per-kind tables (loads, stores, virtual calls,
special calls, throws) so the inner loop dispatches without string-tag
comparison or variable-width tuple unpacking.

Exceptional flow materialises on the first escape.  Until an exception
escapes some activation, no activation has a throw node (THROWPOINTSTO)
and no call edge a consumer re-raising its callee's escapes in the
caller: programs without an escaping exception — every DaCapo analog —
never build them.  The first escape gives every call edge linked so far
its callee's throw node and that consumer (all of them empty, so nothing
replays), and from then on :meth:`PointsToSolver._link_call` gives each
new edge both as it links it.  No tuple is ever charged for a throw node,
so the output relations and the tuple count are the same either way.

Everything is interned to dense integers; contexts live in two
:class:`~repro.contexts.abstractions.ContextTable` instances, and the policy
constructor functions are memoized (they are pure).

Two front ends feed the one body format (``_MethodBody``).  A whole
program goes IR → :class:`~repro.analysis.pack.PackedProgram` → solves
and clients: the packed program compiles each method straight from the
IR the first time any of its solvers reaches it, and its interners are
the solvers' own, so a run's second pass compiles nothing and no string
fact base is built.  A warm session's solver reads a packed program too,
one that moves with the session's program: an edit reaches the solver
as the new bodies of the methods it changed
(:meth:`~repro.analysis.pack.PackedProgram.recompile`), and only a
solver over a packed program takes :meth:`PointsToSolver.extend` and
:meth:`PointsToSolver.retract`.  A query's slice
(:meth:`~repro.query.SlicePlan.sliced_facts`) arrives as rows and goes
through the row compiler (``_compile_rows``), which groups them by
method for the same on-first-reach bodies.  Heap types belong to the
program, their registration in the cast-filter index to one solve: a
packed body's heaps join the index when this solver first reaches the
body.

Resource limits: ``max_tuples`` bounds the total number of derived tuples and
``max_seconds`` the wall-clock time; exceeding either raises
:class:`BudgetExceeded`, the reproduction's analog of the paper's 90-minute /
24 GB timeouts.

A solved instance also moves with its program, for the incremental
subsystem: :meth:`PointsToSolver.extend` adds the instructions an edit's
new bodies gain by replaying only them into the live worklist, and
:meth:`PointsToSolver.retract` takes out those they lose by
delete-and-rederive over the derived graph.  Both report their result
delta natively and keep the tuple count equal to a fresh solve's.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque
from collections.abc import Set as AbstractSet
from dataclasses import dataclass
from typing import (
    Any,
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..contexts.abstractions import ContextTable
from ..contexts.policies import ContextPolicy
from ..facts.encoder import FactBase, FactIndex
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from ..utils import Interner, Stopwatch
from .pack import (
    _CALL_FIELDS,
    _INSTR_FIELDS,
    _NO_INSTRS,
    _NONE,
    PackedProgram,
    _call_invos,
    _MethodBody,
)

__all__ = [
    "BudgetExceeded",
    "bit_counts",
    "PointsToSolver",
    "REDERIVE_MAX_SHARE",
    "REDERIVE_RELATIONS",
    "RawSolution",
    "Retraction",
    "iter_bits",
    "popcount",
    "solve",
]

try:
    # int.bit_count is a single CPython primitive (3.10+).
    popcount = int.bit_count  # type: ignore[attr-defined]
except AttributeError:  # pragma: no cover - exercised on the 3.9 CI lane
    def popcount(mask: int) -> int:
        """Number of set bits in a mask (pre-3.10 fallback)."""
        return bin(mask).count("1")


def iter_bits(mask: int) -> Iterator[int]:
    """Iterate the set bit positions of a mask, lowest first.

    The standard lowest-set-bit walk: ``low = m & -m`` isolates the
    lowest bit, ``bit_length() - 1`` names it, xor clears it.  Cost is
    O(set bits), independent of mask width above the highest bit.
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


#: ``str.translate`` tables spreading a binary string's digits into
#: 16- or 32-bit hex fields (4 or 8 hex digits per bit), keyed by digits.
_SPREAD = {d: str.maketrans({"0": "0" * d, "1": "0" * (d - 1) + "1"}) for d in (4, 8)}


def bit_counts(masks: Iterable[int], width: int) -> List[int]:
    """Per-position population counts: ``counts[b]`` is the number of
    ``masks`` with bit ``b`` set, for ``b < width``.

    Vertical counters: ``planes[i]`` holds bit ``i`` of every position's
    count, and adding a mask is a ripple-carry add across the planes, a
    few big-int operations per mask instead of a Python step per set bit.
    The planes are read back by spreading each one's bits into 16-bit
    (32-bit past 65535 masks) fields with ``int(..., 16)`` and summing.
    """
    planes: List[int] = []
    for carry in masks:
        i = 0
        while carry:
            if i == len(planes):
                planes.append(carry)
                break
            plane = planes[i]
            planes[i] = plane ^ carry
            carry &= plane
            i += 1
    typecode, digits = ("H", 4) if len(planes) <= 16 else ("I", 8)
    spread = _SPREAD[digits]
    total = 0
    for i, plane in enumerate(planes):
        if plane:
            total += int(bin(plane)[2:].translate(spread), 16) << i
    return array(typecode, total.to_bytes(width * digits // 2, sys.byteorder)).tolist()


#: How many tuple insertions between wall-clock checks.
_CLOCK_CHECK_PERIOD = 4096

#: Shift used to build the (collision-free, *interning-only*) key that maps
#: a (heap, hctx) pair to its dense pair id.  The shifted key never enters a
#: points-to set — see the module docstring for why that would be slow.
_PAIR_KEY_SHIFT = 32


class BudgetExceeded(Exception):
    """The analysis ran past its tuple or time budget (a "timeout")."""

    def __init__(self, reason: str, tuples: int, seconds: float) -> None:
        super().__init__(f"{reason} after {tuples} tuples, {seconds:.1f}s")
        self.reason = reason
        self.tuples = tuples
        self.seconds = seconds


#: EDB relations whose retractions :meth:`PointsToSolver.retract` takes:
#: the instruction rows of a method that stays, the call-site rows that go
#: with a deleted call, returns, and the rows of a variable or heap that go
#: with its last use.  Everything else re-solves: CATCHCLAUSE feeds the
#: "not caught, so it escapes" rule (a negation), SUBTYPE the cast-filter
#: closures, LOOKUP the dispatch cache, and REACHABLEROOT, FORMALARG and
#: THISVAR change what a method *is*, not what it does.
REDERIVE_RELATIONS: FrozenSet[str] = frozenset(
    {
        "ALLOC",
        "MOVE",
        "CAST",
        "LOAD",
        "STORE",
        "STATICLOAD",
        "STATICSTORE",
        "VCALL",
        "SPECIALCALL",
        "SCALL",
        "THROWINSTR",
        "ACTUALARG",
        "ACTUALRETURN",
        "INVOINMETH",
        "FORMALRETURN",
        "VARINMETH",
        "HEAPTYPE",
        "ALLOCCLASS",
    }
)

#: The largest share of the solver's nodes a retraction may over-delete
#: before :meth:`PointsToSolver.retract` refuses it (and the caller
#: re-solves from scratch instead).  Each reachable activation counts
#: as one more node, and each activation the retraction drops as one
#: more over-deleted node: a rederive tears those down and a re-solve
#: rebuilds them.  (The measurements below were taken when each called
#: activation had a throw node, so they counted activations that way.)
#: Measured with 2objH edit sessions on the DaCapo analogs (deleting
#: each instruction of the entry methods one at a time, GC off, 2-CPU
#: host): a whole rederive edit took 0.3–0.9x the time of the same edit
#: on the full tier while it over-deleted up to 41% of the nodes,
#: 0.6–1.5x at 44–57% (break-even near 45%) and 1.3–1.5x at 100%.
#: The edit-session benchmark's ``delete`` draws (seeds 2014 and 7)
#: over-delete at most 4.6% by this count.
REDERIVE_MAX_SHARE = 0.4

_CTX_MASK = 0xFFFFFFFF

#: Node kinds, as :meth:`PointsToSolver._owner` decodes them.
_VAR, _FLD, _THROW, _STATIC = range(4)

#: The inner table probed for a missing outer key.
_NO_NODES: Mapping[int, int] = {}

#: A call-graph edge: (invo, caller ctx, callee, callee ctx).
_Edge = Tuple[int, int, int, int]


def _drop_consumer(table: Dict[int, list], node: int, entry: tuple) -> None:
    """Remove one registration of ``entry`` from ``node``'s consumers."""
    cons = table[node]
    cons.remove(entry)
    if not cons:
        del table[node]


class _Bag(dict):
    """A multimap, ``key -> entries``, that holds no container for a key
    with one entry: the entry is stored bare (entries are ints or tuples,
    never lists) and a second one makes the list.  Most keys of the edit
    indexes have one entry, so most keys cost the collector nothing."""

    __slots__ = ()

    def add(self, key: int, entry: Any) -> None:
        have = self.get(key)
        if have is None:
            self[key] = entry
        elif type(have) is list:
            have.append(entry)
        else:
            self[key] = [have, entry]

    def drop(self, key: int, entry: Any) -> None:
        """Remove one ``entry`` from ``key``; raises as ``list.remove``
        does if it is not there."""
        have = self[key]
        if type(have) is list:
            have.remove(entry)
            if len(have) == 1:
                self[key] = have[0]
        elif have == entry:
            del self[key]
        else:
            raise ValueError(f"{entry!r} not under {key}")

    def of(self, key: int) -> Sequence[Any]:
        """``key``'s entries (the live list when there are several: do not
        change the bag while iterating it)."""
        have = self.get(key)
        if have is None:
            return ()
        return have if type(have) is list else (have,)

    def pop_all(self, key: int) -> Sequence[Any]:
        """Remove ``key`` and return its entries."""
        have = self.pop(key, None)
        if have is None:
            return ()
        return have if type(have) is list else (have,)


def _body_vars(mb: "_MethodBody") -> Set[int]:
    """Every variable a body's instructions, formals, returns and
    ``this`` mention — the variable nodes one activation can own."""
    out: Set[int] = set(mb.formals)
    out.update(mb.returns)
    if mb.this != _NONE:
        out.add(mb.this)
    out.update(var for var, _heap in mb.allocs)
    for frm, to in mb.moves:
        out.update((frm, to))
    for frm, to, _typ in mb.casts:
        out.update((frm, to))
    for to, base, _fld in mb.loads:
        out.update((to, base))
    for base, _fld, frm in mb.stores:
        out.update((base, frm))
    out.update(to for to, _sfld in mb.staticloads)
    out.update(frm for _sfld, frm in mb.staticstores)
    out.update(mb.throws)
    out.update(var for _typ, var in mb.catches)
    out.update(call[0] for call in mb.vcalls)
    out.update(call[0] for call in mb.specialcalls)
    for calls in (mb.vcalls, mb.specialcalls, mb.scalls):
        for *_head, lhs, args in calls:
            if lhs != _NONE:
                out.add(lhs)
            out.update(args)
    return out


def _split(
    mb: "_MethodBody", new: "_MethodBody"
) -> Tuple[Optional["_MethodBody"], Optional["_MethodBody"]]:
    """A compiled body's edit, field by field as sets of entries: the
    partial bodies of what ``mb`` has and ``new`` lacks (every copy, so
    the entries are exactly those ``mb`` played) and of what ``new`` has
    and ``mb`` lacks, ``None`` for a side with nothing."""
    gone: List[Sequence[Any]] = list(_NO_INSTRS)
    more: List[Sequence[Any]] = list(_NO_INSTRS)
    for i, name in enumerate(_INSTR_FIELDS):
        have, want = getattr(mb, name), getattr(new, name)
        if have != want:
            keep, had = set(want), set(have)
            gone[i] = [entry for entry in have if entry not in keep] or ()
            more[i] = [entry for entry in want if entry not in had] or ()
    lost = tuple(ret for ret in mb.returns if ret not in new.returns)
    won = tuple(ret for ret in new.returns if ret not in mb.returns)
    return (
        _MethodBody(*gone, formals=(), returns=lost, this=_NONE)
        if lost or any(gone)
        else None,
        _MethodBody(*more, formals=(), returns=won, this=_NONE)
        if won or any(more)
        else None,
    )


class _EditIndexes:
    """The lookups :meth:`PointsToSolver.extend` and
    :meth:`PointsToSolver.retract` make, kept current on a warm solver.

    Built once from the solver's tables (:meth:`PointsToSolver.keep_indexes`),
    then updated on the insert branches of ``_link_call``,
    ``_make_reachable`` and ``_add_edge`` and by every teardown, so an edit
    reads only the keys it touches and allocates a container only for a
    key it adds.  A cold solve never builds one.
    """

    __slots__ = (
        "from_site",
        "into",
        "callers",
        "lhs",
        "ctxs",
        "in_plain",
        "in_filtered",
        "linked",
        "reached",
        "var_meth",
    )

    def __init__(self) -> None:
        self.from_site = _Bag()  # invo << 32 | caller ctx -> call edges
        self.into = _Bag()  # callee << 32 | callee ctx -> call edges
        # Call-site id -> caller method and result variable (or _NONE): every
        # call of a compiled body, and every site with a call edge.
        self.callers: Dict[int, int] = {}
        self.lhs: Dict[int, int] = {}
        self.ctxs = _Bag()  # method -> its reachable contexts
        self.in_plain = _Bag()  # dst -> plain-edge sources
        self.in_filtered = _Bag()  # dst -> ``src << 32 | filter type``
        # Armed by extend: the call edges and activations it adds.
        self.linked: Optional[List[_Edge]] = None
        self.reached: Optional[List[int]] = None
        # Variable -> its method, for every variable a compiled body has
        # mentioned (a variable's node outlives the instructions using it).
        self.var_meth: Dict[int, int] = {}

    @classmethod
    def of(cls, solver: "PointsToSolver") -> "_EditIndexes":
        ix = cls()
        for meth, mb in solver._bodies.items():
            ix.own(meth, solver._var_ids(meth))
            for name, at in _CALL_FIELDS:
                for call in getattr(mb, name):
                    ix.callers[call[at]] = meth
                    ix.lhs[call[at]] = call[-2]
        for edge in solver._call_graph:
            ix.from_site.add(edge[0] << 32 | edge[1], edge)
            ix.into.add(edge[2] << 32 | edge[3], edge)
        for key in solver._reachable:
            ix.ctxs.add(key >> 32, key & _CTX_MASK)
        for src, dsts in solver._out_plain.items():
            for dst in dsts:
                ix.in_plain.add(dst, src)
        for src, fedges in solver._out_filtered.items():
            for dst, typ in fedges:
                ix.in_filtered.add(dst, src << 32 | typ)
        return ix

    def own(self, meth: int, var_ids: Iterable[int]) -> None:
        """Record ``var_ids`` as variables of ``meth``."""
        self.var_meth.update(dict.fromkeys(var_ids, meth))

    def link(self, edge: _Edge, caller: int, lhs: int) -> None:
        invo = edge[0]
        self.from_site.add(invo << 32 | edge[1], edge)
        self.into.add(edge[2] << 32 | edge[3], edge)
        self.callers[invo] = caller
        self.lhs[invo] = lhs
        if self.linked is not None:
            self.linked.append(edge)

    def unlink(self, edge: _Edge) -> None:
        self.from_site.drop(edge[0] << 32 | edge[1], edge)
        self.into.drop(edge[2] << 32 | edge[3], edge)

    def reach(self, meth: int, ctx: int) -> None:
        self.ctxs.add(meth, ctx)
        if self.reached is not None:
            self.reached.append(meth << 32 | ctx)

    def links(self, invo: int, callee: int) -> bool:
        """Whether call site ``invo`` has an edge to ``callee`` in some
        context."""
        caller = self.callers.get(invo)
        if caller is None:
            return False
        for ctx in self.ctxs.of(caller):
            for edge in self.from_site.of(invo << 32 | ctx):
                if edge[2] == callee:
                    return True
        return False


@dataclass(frozen=True)
class Retraction:
    """What one :meth:`PointsToSolver.retract` took out of the fixpoint."""

    #: The five output relations mapped to the string-level tuples the
    #: retraction removed (the rederived fixpoint is a subset of the old).
    removed: Dict[str, FrozenSet[tuple]]
    #: The share :data:`REDERIVE_MAX_SHARE` bounds: nodes over-deleted
    #: (cleared and rederived) plus activations dropped, against all
    #: nodes plus all reachable activations.
    region: int
    nodes: int


class _Epoch:
    """A solver's mutation count, shared with its snapshots' views."""

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class _SnapshotView:
    """A read-only view over one of a solver's id-keyed tables.

    It copies nothing: it reads the solver's own table, so it is valid
    until the solver next mutates.  It records the solver's mutation
    epoch when made and raises ``RuntimeError`` on any read after a later
    :meth:`~PointsToSolver.extend` or :meth:`~PointsToSolver.retract`,
    instead of silently showing the new fixpoint.  A key of the wrong
    shape or type is absent, as in the dict or set the view stands for.
    """

    __slots__ = ("_table", "_epoch", "_at")

    def __init__(self, table, epoch: _Epoch) -> None:
        self._table = table
        self._epoch = epoch
        self._at = epoch.n

    def _live(self):
        if self._epoch.n != self._at:
            raise RuntimeError(
                "stale solution view: the solver was extended or "
                "retracted after this snapshot"
            )
        return self._table


class _NodeView(_SnapshotView, Mapping):
    """A tuple-keyed ``key -> node`` mapping over a nested id table;
    subclasses say how keys nest (``_pairs``, ``__getitem__``)."""

    __slots__ = ()

    def _pairs(self) -> Iterator[Tuple[tuple, int]]:
        raise NotImplementedError

    def _nodes(self) -> Iterator[int]:
        for inner in self._live().values():
            yield from inner.values()

    def __iter__(self) -> Iterator[tuple]:
        return (key for key, _node in self._pairs())

    def __len__(self) -> int:
        return sum(map(len, self._live().values()))

    def items(self) -> Iterator[Tuple[tuple, int]]:  # type: ignore[override]
        return self._pairs()

    def values(self) -> Iterator[int]:  # type: ignore[override]
        return self._nodes()


class _VarNodes(_NodeView):
    """``(var, ctx) -> node`` over the solver's ``ctx -> var -> node``."""

    __slots__ = ()

    def __getitem__(self, key: Tuple[int, int]) -> int:
        table = self._live()
        try:
            var, ctx = key
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return table[ctx][var]

    def _pairs(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        for ctx, vmap in self._live().items():
            for var, node in vmap.items():
                yield (var, ctx), node


class _FldNodes(_NodeView):
    """``(heap, hctx, fld) -> node`` over the solver's ``fld -> pair id
    -> node`` and its pair table."""

    __slots__ = ("_pair_ids", "_pair_heap", "_pair_hctx")

    def __init__(self, solver: "PointsToSolver") -> None:
        super().__init__(solver._fld_nodes, solver._epoch)
        self._pair_ids = solver._pair_ids
        self._pair_heap = solver._pair_heap
        self._pair_hctx = solver._pair_hctx

    def __getitem__(self, key: Tuple[int, int, int]) -> int:
        table = self._live()
        try:
            heap, hctx, fld = key
            pid = self._pair_ids[heap << _PAIR_KEY_SHIFT | hctx]
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return table[fld][pid]

    def _pairs(self) -> Iterator[Tuple[Tuple[int, int, int], int]]:
        ph, pc = self._pair_heap, self._pair_hctx
        for fld, fmap in self._live().items():
            for pid, node in fmap.items():
                yield (ph[pid], pc[pid], fld), node


class _ThrowNodes(_NodeView):
    """``(meth, ctx) -> node`` over the solver's ``meth << 32 | ctx ->
    node``."""

    __slots__ = ()

    def __getitem__(self, key: Tuple[int, int]) -> int:
        table = self._live()
        try:
            meth, ctx = key
            packed = meth << 32 | ctx
        except (TypeError, ValueError):
            raise KeyError(key) from None
        return table[packed]

    def __len__(self) -> int:
        return len(self._live())

    def _pairs(self) -> Iterator[Tuple[Tuple[int, int], int]]:
        for key, node in self._live().items():
            yield (key >> 32, key & _CTX_MASK), node

    def _nodes(self) -> Iterator[int]:
        return iter(self._live().values())


class _Dispatches(_SnapshotView, Mapping):
    """``invo -> frozenset of callees`` over the solver's flat
    ``{invo << 32 | callee}``, grouped by site on first read."""

    __slots__ = ("_grouped",)

    def __init__(self, table: Set[int], epoch: _Epoch) -> None:
        super().__init__(table, epoch)
        self._grouped: Optional[Dict[int, FrozenSet[int]]] = None

    def _groups(self) -> Dict[int, FrozenSet[int]]:
        table = self._live()
        if self._grouped is None:
            grouped: Dict[int, List[int]] = {}
            for key in table:
                grouped.setdefault(key >> 32, []).append(key & _CTX_MASK)
            self._grouped = {k: frozenset(v) for k, v in grouped.items()}
        return self._grouped

    def __getitem__(self, invo: int) -> FrozenSet[int]:
        return self._groups()[invo]

    def __iter__(self) -> Iterator[int]:
        return iter(self._groups())

    def __len__(self) -> int:
        return len(self._groups())


class _Reachable(_SnapshotView, AbstractSet):
    """``{(meth, ctx)}`` over the solver's ``{meth << 32 | ctx}``."""

    __slots__ = ()

    def __contains__(self, key: object) -> bool:
        table = self._live()
        try:
            meth, ctx = key  # type: ignore[misc]
            return meth << 32 | ctx in table
        except (TypeError, ValueError):
            return False

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        for key in self._live():
            yield key >> 32, key & _CTX_MASK

    def __len__(self) -> int:
        return len(self._live())


@dataclass
class RawSolution:
    """Interned analysis output; wrapped by ``results.AnalysisResult``.

    ``pts`` maps node id -> int *bitmask of pair ids*; a pair id ``p``
    packs one distinct ``(heap, hctx)`` pair, recovered as
    ``(pair_heap[p], pair_hctx[p])`` (or via :meth:`pair` /
    :meth:`iter_pts`).  Bit ``p`` of ``pts[node]`` is set iff the pair is
    in the node's points-to set; materialize with :meth:`iter_pids` and
    count with :meth:`pts_size`.  ``var_nodes`` recovers the (var, ctx)
    key of each variable node.

    ``var_nodes``, ``fld_nodes``, ``throw_nodes``, ``reachable`` and
    ``vcall_dispatches`` are read-only views over the solver's own id
    tables, not copies: they read like the dict and set they stand for
    (iterating ``items()`` and ``values()``, ``len``, ``in``, ``[key]``)
    and are valid until the solver next mutates.  Reading one after a later :meth:`PointsToSolver.extend` or
    :meth:`PointsToSolver.retract` raises ``RuntimeError``; take a new
    :meth:`PointsToSolver.snapshot` instead.

    ``throw_nodes`` is empty until an exception escapes some activation
    (exceptional flow materialises on the first escape).
    """

    vars: Interner
    heaps: Interner
    meths: Interner
    invos: Interner
    flds: Interner
    ctxs: ContextTable
    hctxs: ContextTable
    var_nodes: Mapping[Tuple[int, int], int]
    fld_nodes: Mapping[Tuple[int, int, int], int]
    static_nodes: Dict[int, int]
    throw_nodes: Mapping[Tuple[int, int], int]
    static_flds: Interner
    pts: List[int]
    pair_heap: List[int]
    pair_hctx: List[int]
    reachable: AbstractSet[Tuple[int, int]]
    call_graph: Set[Tuple[int, int, int, int]]
    vcall_dispatches: Mapping[int, FrozenSet[int]]
    #: keyed by bare invocation-site id -> resolved target method ids
    #: (the context-insensitive projection of virtual-dispatch outcomes);
    #: a view like the node tables.
    tuple_count: int
    seconds: float

    def pair(self, pid: int) -> Tuple[int, int]:
        """Unpack a packed pair id to its ``(heap, hctx)`` id pair."""
        return self.pair_heap[pid], self.pair_hctx[pid]

    def iter_pids(self, node: int) -> Iterator[int]:
        """Iterate a node's points-to set as pair ids."""
        return iter_bits(self.pts[node])

    def pts_size(self, node: int) -> int:
        """Cardinality of a node's points-to set."""
        return popcount(self.pts[node])

    def iter_pts(self, node: int) -> Iterator[Tuple[int, int]]:
        """Iterate a node's points-to set as ``(heap, hctx)`` id pairs."""
        ph, pc = self.pair_heap, self.pair_hctx
        for pid in iter_bits(self.pts[node]):
            yield ph[pid], pc[pid]


#: The interners a solver shares with its packed program.
_INTERNERS = (
    "vars", "heaps", "meths", "invos", "flds", "sigs", "types", "static_flds",
)


class PointsToSolver:
    """One-shot solver: construct, :meth:`solve`, read the solution.

    It reads ``facts`` (rows) when given, else ``pack`` (a fresh
    :class:`~repro.analysis.pack.PackedProgram` of ``program`` when none
    is given); passing both is an error.
    """

    def __init__(
        self,
        program: Program,
        policy: ContextPolicy,
        facts: Optional[FactBase] = None,
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
        tracer: Tracer = NULL_TRACER,
        pack: Optional[PackedProgram] = None,
    ) -> None:
        if facts is not None and pack is not None:
            raise ValueError("a solver reads rows or a packed program, not both")
        if facts is None:
            if pack is None:
                pack = PackedProgram(program)
            elif pack.program is not program:
                raise ValueError("the packed program is of another program")
        self.program = program
        self.policy = policy
        self.max_tuples = max_tuples
        self.max_seconds = max_seconds
        # Spans wrap phase boundaries only; the hot loop contributes
        # counter samples solely inside the (cold) periodic clock-check
        # branch, so tracing costs nothing per operation and cannot change
        # derivation order or results.
        self._tracer = tracer

        # Interners: a packed program's are shared by its run's solvers;
        # a solver over rows interns into its own.
        self._pack = pack
        for name in _INTERNERS:
            setattr(self, name, Interner() if pack is None else getattr(pack, name))
        self.ctxs = ContextTable()
        self.hctxs = ContextTable()

        # Packed (heap, hctx) pair table -----------------------------------
        self._pair_ids: Dict[int, int] = {}
        self._pair_heap: List[int] = []
        self._pair_hctx: List[int] = []
        self._pairs_by_heap: Dict[int, int] = {}  # heap -> pair-id bitmask
        # Heap type per pair id (None for typeless heaps), filled at mint
        # time: a heap's type is registered before its allocating body
        # first plays (at fact compilation or on the body's first reach),
        # so the value is fixed for the pair's lifetime.  Lets the dispatch
        # loop index a list instead of chasing two dicts per receiver.
        self._pair_heap_type: List[Optional[int]] = []

        # Graph state ---------------------------------------------------------
        # Adjacency is sparse: most nodes have no out-edges, so edges live
        # in node-keyed dicts rather than per-node list slots.  Node tables
        # are nested int-keyed dicts (ctx -> var -> node, fld -> pair ->
        # node): int keys hash as themselves, avoiding a tuple allocation
        # and hash-combine on every lookup in the hot construction path.
        self._pts: List[int] = []  # node -> pair-id bitmask
        # Insertion log, armed while :meth:`extend` runs: every
        # (node, new-pids-mask) batch the mutation choke points admit is
        # appended, so the incremental result delta falls out exactly
        # instead of re-scanning the O(result) points-to state.  Masks
        # are immutable ints, so logged batches are exact snapshots;
        # consumers still union per node (a node can be logged twice).
        self._added_log: Optional[List[Tuple[int, int]]] = None
        self._out_plain: Dict[int, List[int]] = {}  # src -> unfiltered dsts
        self._out_filtered: Dict[int, List[Tuple[int, int]]] = {}
        self._edge_seen: Set[int] = set()  # src << 32 | dst (plain edges)
        self._filtered_edge_seen: Set[Tuple[int, int, int]] = set()
        self._var_nodes: Dict[int, Dict[int, int]] = {}  # ctx -> var -> node
        self._fld_nodes: Dict[int, Dict[int, int]] = {}  # fld -> pair -> node
        self._static_nodes: Dict[int, int] = {}
        self._throw_nodes: Dict[int, int] = {}  # meth << 32 | ctx -> node
        # Set by the first exception to escape an activation: until then
        # no call edge has a throw node or a throw consumer (see the
        # module docstring and _first_escape).
        self._escaped = False
        # node -> packed key of the table entry holding it (see "Node
        # management"): the incremental paths read only the nodes they
        # touched instead of scanning the tables.
        self._owners = array("Q")

        # Per-kind consumer tables, keyed by node.
        self._load_cons: Dict[int, List[Tuple[int, int]]] = {}
        self._store_cons: Dict[int, List[Tuple[int, int]]] = {}
        self._vcall_cons: Dict[
            int, List[Tuple[int, int, int, int, int, Tuple[int, ...]]]
        ] = {}
        self._special_cons: Dict[
            int, List[Tuple[int, int, int, int, int, Tuple[int, ...]]]
        ] = {}
        self._throw_cons: Dict[int, List[Tuple[int, int]]] = {}

        self._worklist: Deque[int] = deque()
        self._pending: Dict[int, int] = {}  # node -> pending delta mask

        self._reachable: Set[int] = set()  # meth << 32 | ctx
        self._call_graph: Set[Tuple[int, int, int, int]] = set()
        # Receiver-dispatched call targets, ``invo << 32 | callee``: one
        # flat set, not a set per call site.
        self._vcall_targets: Set[int] = set()
        # A warm solver's edit indexes (keep_indexes); a cold one has none.
        self._indexes: Optional[_EditIndexes] = None

        # Caches ---------------------------------------------------------
        # The merge cache is keyed per receiver pair id unless the policy
        # declares its MERGE receiver-independent (call-site flavors), in
        # which case one entry per (invo, callee, caller ctx) suffices —
        # megamorphic sites then pay one policy call instead of one per
        # receiver object.
        self._record_cache: Dict[Tuple[int, int], int] = {}  # -> pair id
        self._merge_cache: Dict[object, int] = {}
        self._site_merge: bool = not policy.merge_uses_receiver
        self._merge_static_cache: Dict[Tuple[int, int], int] = {}
        self._dispatch_cache: Dict[int, int] = {}  # heap type << 32 | sig

        # Cast-filter index: per cast type, the subtype-name closure, the
        # allowed heap ids, and the allowed pair ids.  All three are kept
        # up to date incrementally by _register_heap_type and _pair;
        # _heap_filters inverts the index (heap -> cast types allowing it)
        # so minting a pair updates exactly the filters that need it.
        self._filter_closures: Dict[int, FrozenSet[str]] = {}
        self._filter_heaps: Dict[int, Set[int]] = {}
        self._filter_pairs: Dict[int, int] = {}  # type -> allowed-pair mask
        self._heap_filters: Dict[int, List[int]] = {}
        self._heaps_by_typename: Dict[str, List[int]] = {}

        self._tuple_count = 0
        self._ops_since_clock = 0
        # Bumped by every extend and retract: snapshots' views go stale.
        self._epoch = _Epoch()
        self._stopwatch = Stopwatch()

        # Heap types registered with this solve (the cast-filter index);
        # a packed program's heaps join on their method's first reach.
        self._heap_type: Dict[int, int] = {}
        # A method's body is built on first reach (_body): read from the
        # packed program, or built from the rows given, which
        # construction groups by method.  So a solver over a slice costs
        # O(slice), not O(program).  A solver over rows takes whole-
        # program lookups from the fact base's shared index; the fact
        # base itself is not kept.
        self._index: Optional[FactIndex] = None
        self._rows: Dict[str, List[Sequence[tuple]]] = {}
        self._bodies: Dict[int, _MethodBody] = {}
        with tracer.span("solver.init", analysis=policy.name):
            if facts is not None:
                self._index = facts.index()
                self._rows = self._compile_rows(facts)

    # ------------------------------------------------------------------
    # Fact compilation: rows -> interned instruction lists -> method bodies
    # ------------------------------------------------------------------

    def _compile_rows(self, facts: FactBase) -> Dict[str, List[Sequence[tuple]]]:
        """Intern a fact base's instruction rows, grouped by method: one
        field per :data:`_INSTR_FIELDS` entry, later the method's body's
        own.  A field is a list once a row lands in it, the shared empty
        tuple until then.  A variable's method and a call's result
        variable come from the fact base's index."""
        assert self._index is not None
        var_meth = self._index.var_meth.__getitem__
        ret_of = self._index.ret_of_invo
        args_of = facts.args_of_invo
        grouped: Dict[str, List[Sequence[tuple]]] = {}

        def field(meth: str, i: int) -> list:
            raw = grouped.get(meth)
            if raw is None:
                raw = grouped[meth] = list(_NO_INSTRS)
            out = raw[i]
            if not out:
                out = raw[i] = []
            return out  # type: ignore[return-value]

        vi = self.vars.intern
        ti = self.types.intern
        fi = self.flds.intern
        si = self.static_flds.intern
        ii = self.invos.intern
        mi = self.meths.intern
        heap = self._heap

        def call_parts(invo: str) -> Tuple[int, Tuple[int, ...]]:
            lhs = ret_of.get(invo)
            lhs_i = vi(lhs) if lhs is not None else _NONE
            return lhs_i, tuple(map(vi, args_of.get(invo, ())))

        for var, h, meth in facts.alloc:
            field(meth, 0).append((vi(var), heap(h)))
        for to, frm in facts.move:
            field(var_meth(to), 1).append((vi(frm), vi(to)))
        for to, typ, frm, meth in facts.cast:
            field(meth, 2).append((vi(frm), vi(to), ti(typ)))
        for to, base, fld in facts.load:
            field(var_meth(to), 3).append((vi(to), vi(base), fi(fld)))
        for base, fld, frm in facts.store:
            field(var_meth(base), 4).append((vi(base), fi(fld), vi(frm)))
        for to, cls, fld in facts.staticload:
            field(var_meth(to), 8).append((vi(to), si((cls, fld))))
        for cls, fld, frm in facts.staticstore:
            field(var_meth(frm), 9).append((si((cls, fld)), vi(frm)))
        for var, meth in facts.throwinstr:
            field(meth, 10).append(vi(var))
        for meth, typ, var in facts.catchclause:
            field(meth, 11).append((ti(typ), vi(var)))
        for base, sig, invo, meth in facts.vcall:
            field(meth, 5).append(
                (vi(base), self.sigs.intern(sig), ii(invo), *call_parts(invo))
            )
        for base, callee, invo, meth in facts.specialcall:
            field(meth, 6).append(
                (vi(base), mi(callee), ii(invo), *call_parts(invo))
            )
        for callee, invo, meth in facts.scall:
            field(meth, 7).append((mi(callee), ii(invo), *call_parts(invo)))
        return grouped

    def _body(self, meth: int) -> _MethodBody:
        """A method's compiled body, built the first time it is needed (an
        empty one for a method without instructions): read from the
        packed program, registering the heaps it allocates with this
        solve, or built from this solver's rows.

        Reaching a method goes through here, so the hot call-linking
        paths read ``_bodies`` directly for methods already reachable.
        """
        mb = self._bodies.get(meth)
        if mb is None:
            pack = self._pack
            if pack is None:
                name = self.meths.value(meth)
                mb = self._new_body(name, self._rows.pop(name, None))
            else:
                mb = pack.body(meth)
                self._register_heaps(mb)
            self._bodies[meth] = mb
            if self._indexes is not None:
                self._indexes.own(meth, self._var_ids(meth))
        return mb

    def _var_ids(self, meth: int) -> Iterator[int]:
        """The variables of method ``meth``'s compiled body, as its
        packed program lists them (cheaper than walking the body)."""
        assert self._pack is not None, "edit indexes need a packed program"
        return map(self.vars.get, self._pack.vars_of(self.meths.value(meth)))

    def _register_heaps(self, mb: _MethodBody) -> None:
        """Register the types of the heaps a packed body allocates that
        this solve has not registered yet."""
        assert self._pack is not None
        registered, types = self._heap_type, self._pack.heap_types
        for _var, heap in mb.allocs:
            if heap not in registered:
                self._register_heap_type(heap, types[heap])

    def _new_body(
        self, meth: str, raw: Optional[List[Sequence[tuple]]]
    ) -> _MethodBody:
        """Wrap compiled instruction fields (empty/``None``: none) in a
        body, with formals, returns and ``this`` from the fact base's
        index."""
        index = self._index
        assert index is not None
        vi = self.vars.intern
        this = index.this_of.get(meth)
        return _MethodBody(
            *(raw or _NO_INSTRS),
            formals=tuple(map(vi, index.formals.get(meth, ()))),
            returns=tuple(map(vi, index.returns.get(meth, ()))),
            this=vi(this) if this is not None else _NONE,
        )

    def _heap(self, heap: str) -> int:
        """Intern an allocated heap row, registering its type on first
        sight — before any pair of it can be minted.  (A packed program
        types its heaps itself; :meth:`_body` registers them.)"""
        heap_i = self.heaps.intern(heap)
        if heap_i not in self._heap_type:
            typ = self._index.heap_type.get(heap)
            if typ is not None:
                self._register_heap_type(heap_i, self.types.intern(typ))
        return heap_i

    # ------------------------------------------------------------------
    # Packed pair ids and the heap-type / cast-filter index
    # ------------------------------------------------------------------
    def _pair(self, heap: int, hctx: int) -> int:
        """Dense id of the (heap, hctx) pair, minting one if new."""
        key = heap << _PAIR_KEY_SHIFT | hctx
        pid = self._pair_ids.get(key)
        if pid is None:
            pid = len(self._pair_heap)
            self._pair_ids[key] = pid
            self._pair_heap.append(heap)
            self._pair_hctx.append(hctx)
            self._pair_heap_type.append(self._heap_type.get(heap))
            bit = 1 << pid
            self._pairs_by_heap[heap] = self._pairs_by_heap.get(heap, 0) | bit
            allowing = self._heap_filters.get(heap)
            if allowing:
                filter_pairs = self._filter_pairs
                for type_i in allowing:
                    # masks are immutable ints: reassign, never mutate
                    filter_pairs[type_i] |= bit
        return pid

    def _admit_heap_to_filter(self, type_i: int, heap: int) -> None:
        """Make ``heap`` (and its existing pairs) visible to one filter."""
        self._filter_heaps[type_i].add(heap)
        self._heap_filters.setdefault(heap, []).append(type_i)
        of_heap = self._pairs_by_heap.get(heap)
        if of_heap:
            self._filter_pairs[type_i] |= of_heap

    def _register_heap_type(self, heap: int, type_i: int) -> None:
        """Record a heap's type and fold it into every cached cast filter."""
        self._heap_type[heap] = type_i
        pht = self._pair_heap_type
        for pid in iter_bits(self._pairs_by_heap.get(heap, 0)):
            pht[pid] = type_i
        tname = self.types.value(type_i)
        self._heaps_by_typename.setdefault(tname, []).append(heap)
        for t_i, closure in self._filter_closures.items():
            if tname in closure:
                self._admit_heap_to_filter(t_i, heap)

    def _allowed_pairs(self, type_i: int) -> int:
        """Mask of pair ids whose heap's type is a subtype of ``type_i``.

        Built once per cast type from the hierarchy's precomputed subtype
        closure, then maintained incrementally — never rescanned.
        """
        pairs = self._filter_pairs.get(type_i)
        if pairs is None:
            # Cold build path: runs once per distinct cast type.
            target = self.types.value(type_i)
            with self._tracer.span("solver.castfilter", type=target):
                hierarchy = self.program.hierarchy
                closure = (
                    hierarchy.subtypes(target)
                    if target in hierarchy
                    else frozenset()
                )
                self._filter_closures[type_i] = frozenset(closure)
                self._filter_heaps[type_i] = set()
                self._filter_pairs[type_i] = 0
                for tname in closure:
                    for heap in self._heaps_by_typename.get(tname, ()):
                        self._admit_heap_to_filter(type_i, heap)
                # re-read: _admit_heap_to_filter rebinds the (immutable) mask
                pairs = self._filter_pairs[type_i]
        return pairs

    # ------------------------------------------------------------------
    # Node management
    # ------------------------------------------------------------------
    # Every node is created inline below (and in _play_body, _link_call
    # and _propagate): one append to ``_pts`` and one to ``_owners``, the
    # owner packed as ``hi << 32 | lo`` from the key of the table entry
    # holding the node — var ``(ctx, var)``, field ``(fld, pair)``, throw
    # ``(meth, ctx)``, static ``(0, sfld)``.  Every id the solver interns
    # is below 2**32 (its packed keys assume as much), so an owner fits an
    # unsigned 64-bit slot exactly and cannot overflow.  The kind is not
    # stored: :meth:`_owner` finds it by probing the tables.

    def _vmap(self, ctx: int) -> Dict[int, int]:
        vmap = self._var_nodes.get(ctx)
        if vmap is None:
            vmap = self._var_nodes[ctx] = {}
        return vmap

    def _vnode(self, var: int, ctx: int) -> int:
        vmap = self._var_nodes.get(ctx)
        if vmap is None:
            vmap = self._var_nodes[ctx] = {}
        node = vmap.get(var)
        if node is None:
            node = vmap[var] = len(self._pts)
            self._pts.append(0)
            self._owners.append(ctx << 32 | var)
        return node

    def _fnode(self, pid: int, fld: int) -> int:
        fmap = self._fld_nodes.get(fld)
        if fmap is None:
            fmap = self._fld_nodes[fld] = {}
        node = fmap.get(pid)
        if node is None:
            node = fmap[pid] = len(self._pts)
            self._pts.append(0)
            self._owners.append(fld << 32 | pid)
        return node

    def _snode(self, sfld: int) -> int:
        node = self._static_nodes.get(sfld)
        if node is None:
            node = self._static_nodes[sfld] = len(self._pts)
            self._pts.append(0)
            self._owners.append(sfld)
        return node

    def _tnode(self, meth: int, ctx: int) -> int:
        """The node holding exceptions escaping (meth, ctx) — the
        THROWPOINTSTO relation."""
        key = meth << 32 | ctx
        node = self._throw_nodes.get(key)
        if node is None:
            node = self._throw_nodes[key] = len(self._pts)
            self._pts.append(0)
            self._owners.append(key)
        return node

    def _owner(self, node: int) -> Tuple[int, int, int]:
        """The table entry holding ``node``: ``(kind, hi, lo)`` with kind
        one of ``_VAR`` (``_var_nodes[hi][lo]``), ``_FLD``
        (``_fld_nodes[hi][lo]``), ``_THROW`` (``_throw_nodes[hi << 32 |
        lo]``) or ``_STATIC`` (``_static_nodes[lo]``).

        The packed owner names one key per table; the entry that maps it
        back to ``node`` is the one (a node is in exactly one entry).
        """
        packed = self._owners[node]
        hi, lo = packed >> 32, packed & _CTX_MASK
        if self._var_nodes.get(hi, _NO_NODES).get(lo) == node:
            return _VAR, hi, lo
        if self._fld_nodes.get(hi, _NO_NODES).get(lo) == node:
            return _FLD, hi, lo
        if self._throw_nodes.get(packed) == node:
            return _THROW, hi, lo
        if not hi and self._static_nodes.get(lo) == node:
            return _STATIC, hi, lo
        raise KeyError(f"node {node} has no owner")

    # ------------------------------------------------------------------
    # Propagation primitives
    # ------------------------------------------------------------------
    def _add_pts(self, node: int, pids: int) -> None:
        """Bulk-insert a mask of pair ids into a node's points-to set."""
        pts = self._pts[node]
        new = pids & ~pts
        if not new:
            return
        self._pts[node] = pts | new
        log = self._added_log
        if log is not None:
            log.append((node, new))
        self._charge(popcount(new))
        pending = self._pending.get(node)
        if pending is None:
            self._pending[node] = new
            self._worklist.append(node)
        else:
            self._pending[node] = pending | new

    def _add_pts1(self, node: int, pid: int) -> None:
        """Single-pair fast path (allocations, this-binding, catches)."""
        bit = 1 << pid
        pts = self._pts[node]
        if pts & bit:
            return
        self._pts[node] = pts | bit
        log = self._added_log
        if log is not None:
            log.append((node, bit))
        # _charge(1), inlined: this path runs once per derived singleton.
        self._tuple_count += 1
        if self.max_tuples is not None and self._tuple_count > self.max_tuples:
            raise BudgetExceeded(
                "tuple budget exceeded",
                self._tuple_count,
                self._stopwatch.elapsed(),
            )
        self._ops_since_clock += 1
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
            self._tracer.counter_sample("solver.tuples", self._tuple_count)
        pending = self._pending.get(node)
        if pending is None:
            self._pending[node] = bit
            self._worklist.append(node)
        else:
            self._pending[node] = pending | bit

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
            self._tracer.counter_sample("solver.tuples", self._tuple_count)

    def _add_edge(self, src: int, dst: int, filter_type: int = _NONE) -> None:
        if filter_type == _NONE:
            # Packed dedup key: node ids are dense, so the low (dst) bits
            # spread well across the set table.
            key = src << 32 | dst
            if key in self._edge_seen:
                return
            self._edge_seen.add(key)
            out = self._out_plain.get(src)
            if out is None:
                self._out_plain[src] = [dst]
            else:
                out.append(dst)
            if self._indexes is not None:
                self._indexes.in_plain.add(dst, src)
            current = self._pts[src]
            if current:
                self._add_pts(dst, current)
        else:
            fkey = (src, dst, filter_type)
            if fkey in self._filtered_edge_seen:
                return
            self._filtered_edge_seen.add(fkey)
            out = self._out_filtered.get(src)
            if out is None:
                self._out_filtered[src] = [(dst, filter_type)]
            else:
                out.append((dst, filter_type))
            if self._indexes is not None:
                self._indexes.in_filtered.add(dst, src << 32 | filter_type)
            current = self._pts[src]
            if current:
                filtered = current & self._allowed_pairs(filter_type)
                if filtered:
                    self._add_pts(dst, filtered)

    # ------------------------------------------------------------------
    # Consumer registration (replaying the current set on attach)
    # ------------------------------------------------------------------
    def _register_load(self, node: int, fld: int, to_node: int) -> None:
        self._load_cons.setdefault(node, []).append((fld, to_node))
        current = self._pts[node]
        if current:
            # masks are immutable: ``current`` is a stable snapshot even
            # though registration below may grow self._pts[node]
            for pid in iter_bits(current):
                self._add_edge(self._fnode(pid, fld), to_node)

    def _register_store(self, node: int, fld: int, from_node: int) -> None:
        self._store_cons.setdefault(node, []).append((fld, from_node))
        current = self._pts[node]
        if current:
            for pid in iter_bits(current):
                self._add_edge(from_node, self._fnode(pid, fld))

    def _register_vcall(
        self,
        node: int,
        consumer: Tuple[int, int, int, int, int, Tuple[int, ...]],
    ) -> None:
        self._vcall_cons.setdefault(node, []).append(consumer)
        current = self._pts[node]
        if current:
            sig, invo, ctx, in_meth, lhs, args = consumer
            for pid in iter_bits(current):
                self._dispatch_vcall(pid, sig, invo, ctx, in_meth, lhs, args)

    def _register_special(
        self,
        node: int,
        consumer: Tuple[int, int, int, int, int, Tuple[int, ...]],
    ) -> None:
        self._special_cons.setdefault(node, []).append(consumer)
        current = self._pts[node]
        if current:
            callee, invo, ctx, in_meth, lhs, args = consumer
            for pid in iter_bits(current):
                self._resolve_receiver_call(
                    pid, invo, ctx, in_meth, callee, lhs, args
                )

    def _register_throw(self, node: int, meth: int, ctx: int) -> None:
        self._throw_cons.setdefault(node, []).append((meth, ctx))
        current = self._pts[node]
        if current:
            for pid in iter_bits(current):
                self._raise_in(meth, ctx, pid)

    # ------------------------------------------------------------------
    # Context constructor memoization
    # ------------------------------------------------------------------
    def _record(self, heap: int, ctx: int) -> int:
        """Pair id of the allocation (heap, RECORD(heap, ctx))."""
        key = (heap, ctx)
        pid = self._record_cache.get(key)
        if pid is None:
            value = self.policy.record(self.heaps.value(heap), self.ctxs.value(ctx))
            pid = self._pair(heap, self.hctxs.intern(value))
            self._record_cache[key] = pid
        return pid

    def _merge(self, pid: int, invo: int, meth: int, ctx: int) -> int:
        if self._site_merge:
            # Receiver-independent MERGE: one entry per call site, callee
            # and caller context (packed key; meth matters because the
            # introspective policy refines per (invo, meth)).
            key: object = (invo << 32 | meth) << 32 | ctx
        else:
            key = (pid, invo, ctx)
        callee = self._merge_cache.get(key)
        if callee is None:
            value = self.policy.merge(
                self.heaps.value(self._pair_heap[pid]),
                self.hctxs.value(self._pair_hctx[pid]),
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
        key = meth << 32 | ctx
        if key in self._reachable:
            return
        self._reachable.add(key)
        if self._indexes is not None:
            self._indexes.reach(meth, ctx)
        self._charge(1)
        self._play_body(self._body(meth), meth, ctx)

    def _play_body(self, mb: _MethodBody, meth: int, ctx: int) -> None:
        """Compile one body's instructions into nodes/edges/consumers.

        Runs once per newly reachable (meth, ctx) — and again with
        *delta* bodies holding only an edit's added instructions when
        :meth:`extend` replays them into already-reachable contexts
        (every registration below is idempotent, so replaying never
        double-derives).
        """
        # All variables in this body share ``ctx``: resolve nodes through
        # the per-context var map once, with int (not tuple) keys.
        vmap = self._vmap(ctx)
        pts = self._pts
        vmap_get = vmap.get
        own = self._owners.append
        tag = ctx << 32

        def vnode(var: int) -> int:
            node = vmap_get(var)
            if node is None:
                node = vmap[var] = len(pts)
                pts.append(0)
                own(tag | var)
            return node

        for var, heap in mb.allocs:
            self._add_pts1(vnode(var), self._record(heap, ctx))
        for frm, to in mb.moves:
            self._add_edge(vnode(frm), vnode(to))
        for frm, to, typ in mb.casts:
            self._add_edge(vnode(frm), vnode(to), typ)
        for to, base, fld in mb.loads:
            self._register_load(vnode(base), fld, vnode(to))
        for base, fld, frm in mb.stores:
            self._register_store(vnode(base), fld, vnode(frm))
        for to, sfld in mb.staticloads:
            self._add_edge(self._snode(sfld), vnode(to))
        for sfld, frm in mb.staticstores:
            self._add_edge(vnode(frm), self._snode(sfld))
        for var in mb.throws:
            self._register_throw(vnode(var), meth, ctx)
        for base, sig, invo, lhs, args in mb.vcalls:
            self._register_vcall(
                vnode(base), (sig, invo, ctx, meth, lhs, args)
            )
        for base, callee, invo, lhs, args in mb.specialcalls:
            self._register_special(
                vnode(base), (callee, invo, ctx, meth, lhs, args)
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
        if self._indexes is not None:
            self._indexes.link(edge, caller_meth, lhs)
        self._charge(1)
        # A first escape while the callee is reached below finds this
        # edge in the call graph and gives it its throw consumer then.
        escaped = self._escaped
        if callee << 32 | callee_ctx not in self._reachable:
            self._make_reachable(callee, callee_ctx)
        mb = self._bodies[callee]  # reachable, hence compiled
        if args or (lhs != _NONE and mb.returns):
            # Parameter/return binding: resolve caller- and callee-side
            # var maps once, then look vars up with bare int keys.
            cmap = self._vmap(caller_ctx)
            emap = self._vmap(callee_ctx)
            pts = self._pts
            owners = self._owners
            for actual, formal in zip(args, mb.formals):
                src = cmap.get(actual)
                if src is None:
                    src = cmap[actual] = len(pts)
                    pts.append(0)
                    owners.append(caller_ctx << 32 | actual)
                dst = emap.get(formal)
                if dst is None:
                    dst = emap[formal] = len(pts)
                    pts.append(0)
                    owners.append(callee_ctx << 32 | formal)
                self._add_edge(src, dst)
            if lhs != _NONE:
                dst = cmap.get(lhs)
                if dst is None:
                    dst = cmap[lhs] = len(pts)
                    pts.append(0)
                    owners.append(caller_ctx << 32 | lhs)
                for ret in mb.returns:
                    src = emap.get(ret)
                    if src is None:
                        src = emap[ret] = len(pts)
                        pts.append(0)
                        owners.append(callee_ctx << 32 | ret)
                    self._add_edge(src, dst)
        # Exceptions escaping the callee are (re-)raised in the caller.
        if escaped:
            self._register_throw(
                self._tnode(callee, callee_ctx), caller_meth, caller_ctx
            )

    def _raise_in(self, meth: int, ctx: int, pid: int) -> None:
        """An exception object is raised in (meth, ctx): bind it to every
        type-matching catch clause, or let it escape via the throw node."""
        caught = False
        for catch_type, catch_var in self._body(meth).catches:
            if self._allowed_pairs(catch_type) >> pid & 1:
                self._add_pts1(self._vnode(catch_var, ctx), pid)
                caught = True
        if not caught:
            if not self._escaped:
                self._first_escape()
            self._add_pts1(self._tnode(meth, ctx), pid)

    def _first_escape(self) -> None:
        """Materialise exceptional flow: give every call edge linked so
        far its callee's throw node and the consumer re-raising in its
        caller, as :meth:`_link_call` gives each later edge.  The nodes
        are all new and empty, so nothing replays."""
        self._escaped = True
        callers: Dict[int, int] = {}
        for meth, mb in self._bodies.items():
            for invo in _call_invos(mb):
                callers[invo] = meth
        for invo, cc, callee, ec in self._call_graph:
            self._register_throw(self._tnode(callee, ec), callers[invo], cc)

    def _dispatch(self, heap_type: int, sig: int) -> int:
        key = heap_type << 32 | sig
        target = self._dispatch_cache.get(key)
        if target is None:
            meth = self.program.lookup(
                self.types.value(heap_type), self.sigs.value(sig)
            )
            target = self.meths.intern(meth.id) if meth is not None else _NONE
            self._dispatch_cache[key] = target
        return target

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _dispatch_vcall(
        self,
        pid: int,
        sig: int,
        invo: int,
        ctx: int,
        in_meth: int,
        lhs: int,
        args: Tuple[int, ...],
    ) -> None:
        heap_type = self._pair_heap_type[pid]
        if heap_type is None:
            return
        callee = self._dispatch(heap_type, sig)
        if callee == _NONE:
            return
        self._resolve_receiver_call(pid, invo, ctx, in_meth, callee, lhs, args)

    def _resolve_receiver_call(
        self,
        pid: int,
        invo: int,
        caller_ctx: int,
        caller_meth: int,
        callee: int,
        lhs: int,
        args: Tuple[int, ...],
    ) -> None:
        if self._site_merge:
            mkey: object = (invo << 32 | callee) << 32 | caller_ctx
        else:
            mkey = (pid, invo, caller_ctx)
        callee_ctx = self._merge_cache.get(mkey)
        if callee_ctx is None:
            callee_ctx = self._merge(pid, invo, callee, caller_ctx)
        self._vcall_targets.add(invo << 32 | callee)
        self._link_call(
            invo, caller_ctx, caller_meth, callee, callee_ctx, lhs, args
        )
        mb = self._bodies[callee]  # linked above, hence compiled
        if mb.this != _NONE:
            self._add_pts1(self._vnode(mb.this, callee_ctx), pid)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def solve(self) -> RawSolution:
        """Run to fixpoint (or budget) and return the raw solution."""
        self._stopwatch.restart()
        tracer = self._tracer
        ctx0 = self.ctxs.empty_id
        with tracer.span(
            "solver.seed", entry_points=len(self.program.entry_points)
        ):
            for ep in self.program.entry_points:
                self._make_reachable(self.meths.intern(ep), ctx0)
        with tracer.span("solver.propagate"):
            self._propagate()
            # Counters are derived from existing solver state at span
            # end — the hot loop itself carries no tracing cost.
            tracer.annotate(
                tuples=self._tuple_count,
                pairs=len(self._pair_heap),
                nodes=len(self._pts),
                edges=len(self._edge_seen),
                filtered_edges=len(self._filtered_edge_seen),
                reachable=len(self._reachable),
                compiled_methods=len(self._bodies),
                call_edges=len(self._call_graph),
                vcall_targets=len(self._vcall_targets),
            )
        with tracer.span("solver.snapshot"):
            return self.snapshot()

    # ------------------------------------------------------------------
    # Monotonic extension (incremental fast path)
    # ------------------------------------------------------------------
    def extend(
        self,
        program: Program,
        bodies: Mapping[int, _MethodBody],
        added: Mapping[str, Iterable[tuple]],
    ) -> Dict[str, FrozenSet[tuple]]:
        """Extend a solved fixpoint with an edit's additions, in place.

        ``program`` is the post-edit program, to which this solver's
        packed program has moved, and ``bodies`` the new bodies it
        compiled there (:meth:`PackedProgram.recompile
        <repro.analysis.pack.PackedProgram.recompile>`), by method.  Of
        ``added`` (the edit's added rows) only the program-level rows
        are read: ``LOOKUP`` and ``REACHABLEROOT``.

        Returns only the result delta: each of the five output relations
        mapped to the string-level tuples this extension derived —
        collected from an insertion log armed for the duration of the
        call, so reporting costs O(delta), not O(result).  A caller that
        wants the whole new fixpoint reads :meth:`snapshot` afterwards.

        The resumable-worklist path of the incremental subsystem: the
        interned pair table, node tables, cast-filter index and all
        memoization caches survive from the previous solve.  Each body
        this solver has compiled grows by the entries its new body adds
        (compared field by field, as sets), and exactly those are
        replayed into every context already reaching it; then the
        ordinary worklist runs to the new fixpoint.  Any other method is
        compiled from the moved packed program when first reached.  Sound
        because every solver operation is idempotent and the guarded
        hazards below are exactly the non-monotonic inputs:

        * ``CATCHCLAUSE``/``SUBTYPE`` rows would stale the escaped-exception
          state and the incrementally-maintained cast-filter closures;
        * a new body that loses entries (they need :meth:`retract`
          first), or that changes the formals, ``this`` or returns of a
          compiled method or adds a call on a call site this solver has
          seen, would have to re-bind call edges that ``_link_call``
          already linked and memoized.

        The caller (:mod:`repro.incremental`) classifies deltas before
        ever getting here; the ``ValueError`` guards are belt and
        braces.  Virtual dispatch over new LOOKUP entries and cast
        filters read ``program``.
        """
        edited = self._edited(program, bodies)
        for name in ("CATCHCLAUSE", "SUBTYPE"):
            if added.get(name):
                raise ValueError(f"cannot extend monotonically: {name} rows")
        indexes = self.keep_indexes()
        grown: List[Tuple[int, _MethodBody, _MethodBody]] = []
        for meth, mb, gone, more in edited:
            if more is None:
                continue
            name = self.meths.value(meth)
            if gone is not None:
                raise ValueError(f"retractions in {name} need retract first")
            if more.returns:
                raise ValueError(f"FORMALRETURN addition on pre-existing method {name}")
            for invo in _call_invos(more):
                if invo in indexes.callers:
                    raise ValueError(
                        f"call added on pre-existing call site {self.invos.value(invo)}"
                    )
            grown.append((meth, mb, more))
        self.program = program
        self._epoch.n += 1
        self._stopwatch.restart()

        # Arm the insertion logs: everything derived below reports into
        # the result delta without an O(result) rescan.  On an exception
        # the solver is inconsistent and the session replaces it
        # wholesale, dangling logs included.
        self._added_log = []
        indexes.linked = []
        indexes.reached = []

        # Evict negative dispatch-cache entries the new LOOKUP rows turn
        # positive.  An *absent* key needs nothing: no consumer/receiver
        # combination ever attempted it, so no stale conclusion exists.
        # A cached real target for an added row would mean the previous
        # target was overridden — a retraction, never classified here.
        retry: Set[int] = set()
        for typ, sig, _target in added.get("LOOKUP", ()):
            if typ in self.types and sig in self.sigs:
                key = self.types.get(typ) << 32 | self.sigs.get(sig)
                cached = self._dispatch_cache.get(key)
                if cached is not None:
                    if cached != _NONE:
                        raise ValueError(
                            f"LOOKUP({typ}, {sig}) already resolved; "
                            "override requires recompute"
                        )
                    del self._dispatch_cache[key]
                    retry.add(key)

        # Grow the bodies, with their new heaps' types registered first:
        # pairs minted during replay must see them, and cached cast
        # filters must admit the new heaps.
        for meth, mb, more in grown:
            self._register_heaps(more)
            indexes.own(meth, _body_vars(more))
            for name in _INSTR_FIELDS:
                extra = getattr(more, name)
                if extra:
                    setattr(mb, name, [*getattr(mb, name), *extra])

        # The contexts reaching each grown method now: one reached during
        # the replays plays the whole grown body instead.
        ctxs = indexes.ctxs
        reaching = [tuple(ctxs.of(meth)) for meth, _mb, _more in grown]
        for (meth, _mb, more), meth_ctxs in zip(grown, reaching):
            for ctx in meth_ctxs:
                self._play_body(more, meth, ctx)

        # Receivers observed *before* a LOOKUP key existed concluded
        # "no target" through the (now evicted) cache — re-dispatch them.
        if retry:
            pht = self._pair_heap_type
            for node, consumers in list(self._vcall_cons.items()):
                current = self._pts[node]
                if not current:
                    continue
                for sig, invo, ctx, in_meth, lhs, args in list(consumers):
                    for pid in iter_bits(current):
                        ht = pht[pid]
                        if ht is not None and ht << 32 | sig in retry:
                            self._dispatch_vcall(
                                pid, sig, invo, ctx, in_meth, lhs, args
                            )

        ctx0 = self.ctxs.empty_id
        for (ep,) in added.get("REACHABLEROOT", ()):
            self._make_reachable(self.meths.intern(ep), ctx0)

        self._propagate()
        log, self._added_log = self._added_log, None
        linked, reached = indexes.linked, indexes.reached
        indexes.linked = indexes.reached = None
        return self._extend_delta(log, linked, reached)

    def _edited(
        self, program: Program, bodies: Mapping[int, _MethodBody]
    ) -> List[Tuple[int, _MethodBody, Optional[_MethodBody], Optional[_MethodBody]]]:
        """The edit :meth:`extend` and :meth:`retract` take: each method
        of ``bodies`` with its compiled body and what the new body takes
        out and puts in (:func:`_split`).  Raises ``ValueError`` unless
        this solver reads a packed program that has moved to ``program``
        and compiled each body's method, keeping its formals and
        ``this``."""
        pack = self._pack
        if pack is None:
            raise ValueError("edits need a solver built over a packed program")
        if pack.program is not program:
            raise ValueError("the packed program has not moved to this program")
        edited = []
        for meth, new in bodies.items():
            mb = self._bodies.get(meth)
            if mb is None or new.formals != mb.formals or new.this != mb.this:
                raise ValueError(
                    f"{self.meths.value(meth)}: not compiled here, or its "
                    "formals or this changed"
                )
            edited.append((meth, mb, *_split(mb, new)))
        return edited

    def keep_indexes(self) -> "_EditIndexes":
        """Build the indexes :meth:`extend` and :meth:`retract` read, once:
        from then on this solver keeps them current.  A session calls this
        right after its solve; an edit on a solver without them builds
        them first."""
        if self._indexes is None:
            self._indexes = _EditIndexes.of(self)
        return self._indexes

    def _extend_delta(
        self,
        log: List[Tuple[int, int]],
        linked: List[_Edge],
        reached: List[int],
    ) -> Dict[str, FrozenSet[tuple]]:
        """Translate the insertion logs into string-level added tuples."""
        per_node: Dict[int, int] = {}
        for node, payload in log:
            per_node[node] = per_node.get(node, 0) | payload
        return self._delta_rows(per_node, linked, reached)

    def _delta_rows(
        self,
        per_node: Mapping[int, int],
        calls: Iterable[Tuple[int, int, int, int]],
        acts: Iterable[int],
    ) -> Dict[str, FrozenSet[tuple]]:
        """String-level tuples of per-node pair masks, call edges and
        activations (``meth << 32 | ctx`` keys).

        Tuple shapes match :meth:`AnalysisResult.iter_var_points_to` and
        friends exactly — the session folds them into its cached
        relations.  Each node's owner (:meth:`_owner`) names its row, so
        this reads only the nodes in ``per_node``.  Static-field nodes are
        skipped: they feed variables internally but are not part of any
        exported relation.
        """
        ph, pc = self._pair_heap, self._pair_hctx
        heap_v = self.heaps.value
        hctx_v = self.hctxs.value
        ctx_v = self.ctxs.value
        owner = self._owner
        var_rows: Set[tuple] = set()
        fld_rows: Set[tuple] = set()
        throw_rows: Set[tuple] = set()
        for node, pids in per_node.items():
            if not pids:
                continue
            kind, hi, lo = owner(node)
            if kind == _VAR:
                head: tuple = (self.vars.value(lo), ctx_v(hi))
                rows = var_rows
            elif kind == _FLD:
                head = (heap_v(ph[lo]), hctx_v(pc[lo]), self.flds.value(hi))
                rows = fld_rows
            elif kind == _THROW:
                head = (self.meths.value(hi), ctx_v(lo))
                rows = throw_rows
            else:
                continue
            for pid in iter_bits(pids):
                rows.add((*head, heap_v(ph[pid]), hctx_v(pc[pid])))
        return {
            "VARPOINTSTO": frozenset(var_rows),
            "FLDPOINTSTO": frozenset(fld_rows),
            "CALLGRAPH": frozenset(
                (self.invos.value(i), ctx_v(cc), self.meths.value(m), ctx_v(ec))
                for i, cc, m, ec in calls
            ),
            "REACHABLE": frozenset(
                (self.meths.value(k >> 32), ctx_v(k & 0xFFFFFFFF))
                for k in acts
            ),
            "THROWPOINTSTO": frozenset(throw_rows),
        }

    # ------------------------------------------------------------------
    # Delete-and-rederive (incremental retractions)
    # ------------------------------------------------------------------
    def retract(
        self,
        program: Program,
        bodies: Mapping[int, _MethodBody],
        removed: Mapping[str, Iterable[tuple]],
    ) -> Retraction:
        """Take an edit's retractions out of a solved fixpoint, in place.

        ``program`` is the post-edit program, to which this solver's
        packed program has moved, and ``bodies`` the new bodies it
        compiled there (:meth:`PackedProgram.recompile
        <repro.analysis.pack.PackedProgram.recompile>`), by method: the
        entries a compiled body has and its new body lacks (compared
        field by field, as sets) are retracted.  Of ``removed`` (the
        edit's removed rows) only ``HEAPTYPE`` is read: the heaps no
        longer allocated leave the cast-filter index.

        Delete-and-rederive (DRed; Gupta, Mumick & Subrahmanian, SIGMOD
        1993) over the warm solver's derived graph:

        1. **Over-delete.**  From the retracted instructions, follow the
           derived graph forward — plain and filtered edges, load/store
           field edges, virtual/special call consumers, escaping
           exceptions and call bindings — and collect every node whose
           points-to set could shrink (the *region*) and every call edge
           that could lose its support.  An activation survives iff it
           stays reachable from the roots over the call edges that keep
           theirs; the others join the over-deletion with all their
           nodes and outgoing calls, so cyclic support cannot keep a dead
           cycle alive.
        2. **Tear down.**  Clear the region's masks, its in-edges, the
           consumers of the retracted instructions and of the dropped
           activations and call edges, and the retracted entries of the
           compiled bodies.  Heaps whose type row goes leave the
           cast-filter index.
        3. **Re-derive.**  Every surviving activation owning a cleared
           node (or the source of a torn edge into a field or static
           node) re-emits its products into the region from its current
           state; then the ordinary worklist runs to the new fixpoint,
           re-linking the call edges and re-reaching the activations
           that are still derivable.

        Each step reads the solver's edit indexes (:meth:`keep_indexes`:
        call edges by site and by callee, activations by method, in-edges
        by destination), which it keeps current, so a retraction costs
        its region, not the program; each node's owner is recorded when
        the node is created (:meth:`_owner`).  The tuple count
        drops by exactly what is cleared and rises by what is rederived:
        afterwards it equals a fresh solve's, so a following
        :meth:`extend` trips the budget exactly when a fresh solve would.

        Raises ``ValueError`` — before changing anything — for rows outside
        :data:`REDERIVE_RELATIONS`, a catch clause that goes, a call that
        goes from a call site that stays (its arguments or result
        changed), or an over-deleted region larger than
        :data:`REDERIVE_MAX_SHARE` of the nodes (activations counted as
        nodes).
        """
        edited = self._edited(program, bodies)
        for name, rows in removed.items():
            if rows and name not in REDERIVE_RELATIONS:
                raise ValueError(f"cannot rederive {name} retractions")
        gone: Dict[int, _MethodBody] = {}
        refused: List[str] = []
        for meth, _mb, g, _more in edited:
            if g is None:
                continue
            if g.catches:
                raise ValueError("cannot rederive CATCHCLAUSE retractions")
            stays = set(_call_invos(bodies[meth]))
            refused += [self.invos.value(i) for i in _call_invos(g) if i in stays]
            gone[meth] = g
        if refused:
            raise ValueError(
                f"call-structure retractions on surviving call sites: "
                f"{', '.join(sorted(refused))}"
            )
        indexes = self.keep_indexes()
        # The contexts of the methods losing rows, as they are now.
        ctxs_of = {meth: tuple(indexes.ctxs.of(meth)) for meth in gone}
        region, cut, dead = self._overdelete(gone, ctxs_of)
        # What a rederive tears down against what a re-solve rebuilds:
        # nodes, plus activations (which need no node of their own).
        share = len(region) + len(dead)
        size = len(self._pts) + len(self._reachable)
        if share > REDERIVE_MAX_SHARE * size:
            raise ValueError(
                f"over-deleted region {share}/{size} nodes exceeds "
                f"{REDERIVE_MAX_SHARE:.0%}"
            )

        self.program = program
        self._epoch.n += 1
        self._stopwatch.restart()
        pts = self._pts
        old = {node: pts[node] for node in region}
        for meth, g in gone.items():
            # The pack lists the new bodies' variables; these may own nodes.
            indexes.own(meth, _body_vars(g))
        torn = self._tear_down(gone, ctxs_of, region, cut, dead)
        for heap, _typ in removed.get("HEAPTYPE", ()):
            if heap in self.heaps:
                self._unregister_heap_type(self.heaps.get(heap))
        self._rederive(region, torn)
        self._propagate()

        # A cut edge's dispatch outcome stays while its site still calls
        # the callee in some context.
        targets = self._vcall_targets
        for invo, _cc, callee, _ec in cut:
            key = invo << 32 | callee
            if key in targets and not indexes.links(invo, callee):
                targets.discard(key)

        lost: Dict[int, int] = {}
        for node, was in old.items():
            gone_pids = was & ~pts[node]
            if gone_pids:
                lost[node] = gone_pids
        return Retraction(
            removed=self._delta_rows(
                lost,
                (edge for edge in cut if edge not in self._call_graph),
                (key for key in dead if key not in self._reachable),
            ),
            region=share,
            nodes=size,
        )

    def _overdelete(
        self,
        gone: Mapping[int, _MethodBody],
        ctxs_of: Mapping[int, Sequence[int]],
    ) -> Tuple[Set[int], Set[_Edge], Set[int]]:
        """Step 1 of :meth:`retract`, read-only: the nodes whose points-to
        sets could shrink, the call edges that could lose their support,
        and the activations no longer reachable from the roots over the
        others (``meth << 32 | ctx`` keys)."""
        bodies = self._bodies
        pts = self._pts
        var_nodes = self._var_nodes
        fld_nodes = self._fld_nodes
        throw_nodes = self._throw_nodes
        indexes = self._indexes
        assert indexes is not None
        sites, into = indexes.from_site, indexes.into
        callers, lhs_of = indexes.callers, indexes.lhs
        region: Set[int] = set()
        todo: List[int] = []
        cut: Set[_Edge] = set()
        cut_todo: List[_Edge] = []
        dead: Set[int] = set()

        def mark(node: Optional[int]) -> None:
            if node is not None and node not in region:
                region.add(node)
                todo.append(node)

        def cut_site(invo: int, ctx: int) -> None:
            for edge in sites.of(invo << 32 | ctx):
                if edge not in cut:
                    cut.add(edge)
                    cut_todo.append(edge)

        def mark_raise(meth: int, ctx: int) -> None:
            # everything _raise_in(meth, ctx, ·) can write
            vmap = var_nodes.get(ctx, {})
            for _typ, var in bodies[meth].catches:
                mark(vmap.get(var))
            mark(throw_nodes.get(meth << 32 | ctx))

        # Seeds: what the retracted instructions and returns wrote.
        for meth, g in gone.items():
            for ctx in ctxs_of.get(meth, ()):
                vmap = var_nodes.get(ctx, {})
                for var, _heap in g.allocs:
                    mark(vmap.get(var))
                for _frm, to in g.moves:
                    mark(vmap.get(to))
                for _frm, to, _typ in g.casts:
                    mark(vmap.get(to))
                for to, _base, _fld in g.loads:
                    mark(vmap.get(to))
                for base, fld, _frm in g.stores:
                    fmap = fld_nodes.get(fld, {})
                    for pid in iter_bits(pts[vmap[base]]):
                        mark(fmap.get(pid))
                for to, _sfld in g.staticloads:
                    mark(vmap.get(to))
                for sfld, _frm in g.staticstores:
                    mark(self._static_nodes.get(sfld))
                if g.throws:
                    mark_raise(meth, ctx)
                for invo in _call_invos(g):
                    cut_site(invo, ctx)
                if g.returns:
                    for invo, cc, _callee, _ec in into.of(meth << 32 | ctx):
                        lhs = lhs_of[invo]
                        if lhs != _NONE:
                            mark(var_nodes[cc].get(lhs))

        # Forward closure, then activation reachability, until neither
        # grows: a dead activation's nodes and calls feed the closure.
        out_plain = self._out_plain
        out_filtered = self._out_filtered
        ctx0 = self.ctxs.empty_id
        roots = {
            self.meths.intern(ep) << 32 | ctx0 for ep in self.program.entry_points
        }
        checked = 0  # cut size at the last reachability pass
        while True:
            while todo or cut_todo:
                while todo:
                    node = todo.pop()
                    for dst in out_plain.get(node, ()):
                        mark(dst)
                    for dst, _typ in out_filtered.get(node, ()):
                        mark(dst)
                    current = pts[node]
                    if not current:
                        continue
                    for _fld, to in self._load_cons.get(node, ()):
                        mark(to)
                    for fld, _frm in self._store_cons.get(node, ()):
                        fmap = fld_nodes.get(fld, {})
                        for pid in iter_bits(current):
                            mark(fmap.get(pid))
                    for cons in (self._vcall_cons, self._special_cons):
                        for consumer in cons.get(node, ()):
                            cut_site(consumer[1], consumer[2])
                    for meth, ctx in self._throw_cons.get(node, ()):
                        mark_raise(meth, ctx)
                while cut_todo:
                    invo, cc, callee, ec = cut_todo.pop()
                    mb = bodies[callee]
                    emap = var_nodes.get(ec, {})
                    for formal in mb.formals:
                        mark(emap.get(formal))
                    if mb.this != _NONE:
                        mark(emap.get(mb.this))
                    caller, lhs = callers[invo], lhs_of[invo]
                    if lhs != _NONE:
                        mark(var_nodes[cc].get(lhs))
                    mark_raise(caller, cc)
            if len(cut) == checked:
                return region, cut, dead
            checked = len(cut)
            for key in self._unsupported(roots, cut):
                if key in dead:
                    continue
                dead.add(key)
                ctx = key & _CTX_MASK
                mb = bodies[key >> 32]
                vmap = var_nodes.get(ctx, {})
                for var in _body_vars(mb):
                    mark(vmap.get(var))
                mark(throw_nodes.get(key))
                for invo in _call_invos(mb):
                    cut_site(invo, ctx)

    def _tear_down(
        self,
        gone: Mapping[int, _MethodBody],
        ctxs_of: Mapping[int, Sequence[int]],
        region: Set[int],
        cut: Set[_Edge],
        dead: Set[int],
    ) -> List[Tuple[int, int]]:
        """Step 2 of :meth:`retract`: unregister the consumers of what
        goes, tear out every edge into the region (returned as ``(src,
        dst)`` pairs), clear the region, drop the cut call edges and dead
        activations with their tuple charges, and take the retracted
        instructions and returns out of the bodies."""
        bodies = self._bodies
        indexes = self._indexes
        assert indexes is not None
        for key in dead:
            meth, ctx = key >> 32, key & _CTX_MASK
            self._unplay(bodies[meth], meth, ctx)
            indexes.ctxs.drop(meth, ctx)
        for meth, g in gone.items():
            for ctx in ctxs_of.get(meth, ()):
                if meth << 32 | ctx not in dead:
                    self._unplay(g, meth, ctx)
        for edge in cut:
            indexes.unlink(edge)
            if self._escaped:
                invo, cc, callee, ec = edge
                _drop_consumer(
                    self._throw_cons,
                    self._throw_nodes[callee << 32 | ec],
                    (indexes.callers[invo], cc),
                )

        # The edges into the region, found from their destinations; each
        # source's out-list is filtered once.
        torn: List[Tuple[int, int]] = []
        edge_seen = self._edge_seen
        filtered_seen = self._filtered_edge_seen
        plain_srcs: Set[int] = set()
        filtered_srcs: Set[int] = set()
        for dst in region:
            for src in indexes.in_plain.pop_all(dst):
                edge_seen.discard(src << 32 | dst)
                torn.append((src, dst))
                plain_srcs.add(src)
            for packed in indexes.in_filtered.pop_all(dst):
                src = packed >> 32
                filtered_seen.discard((src, dst, packed & _CTX_MASK))
                filtered_srcs.add(src)
        out_plain = self._out_plain
        for src in plain_srcs:
            keep = [dst for dst in out_plain[src] if dst not in region]
            if keep:
                out_plain[src] = keep
            else:
                del out_plain[src]
        out_filtered = self._out_filtered
        for src in filtered_srcs:
            fkeep = [fedge for fedge in out_filtered[src] if fedge[0] not in region]
            if fkeep:
                out_filtered[src] = fkeep
            else:
                del out_filtered[src]

        cleared = 0
        pts = self._pts
        pending = self._pending
        for node in region:
            cleared += popcount(pts[node])
            pts[node] = 0
            pending.pop(node, None)
        self._call_graph -= cut
        self._reachable -= dead
        self._tuple_count -= cleared + len(cut) + len(dead)

        for meth, g in gone.items():
            mb = bodies[meth]
            for name in _INSTR_FIELDS:
                drop = getattr(g, name)
                if drop:
                    drop_set = set(drop)
                    kept = [e for e in getattr(mb, name) if e not in drop_set]
                    setattr(mb, name, kept or ())
            if g.returns:
                mb.returns = tuple(r for r in mb.returns if r not in g.returns)
            for invo in _call_invos(g):
                indexes.callers.pop(invo, None)
                indexes.lhs.pop(invo, None)
        return torn

    def _rederive(self, region: Set[int], torn: List[Tuple[int, int]]) -> None:
        """Step 3 of :meth:`retract`, before the worklist runs: every live
        activation owning a cleared variable or throw node, or the source
        of a torn edge into a field or static node (those in-edges come
        from the stores of the source's activation), re-emits its
        products (:meth:`_replay`).  The nodes' owners say which
        activations those are, so this reads the region and the torn
        edges only."""
        owner: Dict[int, Tuple[int, int]] = {}
        replay: Set[int] = set()
        for node in region.union(src for src, _dst in torn):
            kind, hi, lo = self._owner(node)
            if kind == _VAR:
                owner[node] = (lo, hi)
            elif kind == _THROW and node in region:
                replay.add(hi << 32 | lo)
        assert self._indexes is not None
        var_meth = self._indexes.var_meth

        def act_of(node: int) -> int:
            var, ctx = owner[node]
            return var_meth[var] << 32 | ctx

        for node in region:
            if node in owner:
                replay.add(act_of(node))
        for src, dst in torn:
            if dst not in owner and src in owner:
                replay.add(act_of(src))
        for key in replay:
            if key in self._reachable:
                self._replay(key >> 32, key & _CTX_MASK)

    def _unsupported(self, roots: Set[int], cut: Set[_Edge]) -> Set[int]:
        """The activations no longer reachable from ``roots`` over the call
        edges not in ``cut``, decided locally.

        Only the forward closure S of the cut edges' callees, over the
        edges not cut, can lose its support: any other activation kept a
        path from the roots free of cut edges.  An activation in S stays
        alive if it is a root, or is reached over edges not cut from an
        activation outside S; the rest of S is returned.  A dead cycle
        cannot keep itself alive, since its support from outside S is
        what is checked.
        """
        indexes = self._indexes
        assert indexes is not None
        bodies = self._bodies
        sites, callers = indexes.from_site, indexes.callers

        def closure(keys: Set[int], within: Optional[Set[int]]) -> None:
            # Grow ``keys`` over the edges not cut (inside ``within``).
            stack = list(keys)
            while stack:
                key = stack.pop()
                ctx = key & _CTX_MASK
                for invo in _call_invos(bodies[key >> 32]):
                    for edge in sites.of(invo << 32 | ctx):
                        if edge in cut:
                            continue
                        callee = edge[2] << 32 | edge[3]
                        if callee not in keys and (
                            within is None or callee in within
                        ):
                            keys.add(callee)
                            stack.append(callee)

        affected = {edge[2] << 32 | edge[3] for edge in cut}
        closure(affected, None)
        alive = set()
        into = indexes.into
        for key in affected:
            if key in roots or any(
                edge not in cut and callers[edge[0]] << 32 | edge[1] not in affected
                for edge in into.of(key)
            ):
                alive.add(key)
        closure(alive, affected)
        return affected - alive

    def _unplay(self, mb: _MethodBody, meth: int, ctx: int) -> None:
        """Unregister the consumers :meth:`_play_body` registered for
        ``mb``'s instructions in ``ctx``."""
        vmap = self._var_nodes[ctx]
        for to, base, fld in mb.loads:
            _drop_consumer(self._load_cons, vmap[base], (fld, vmap[to]))
        for base, fld, frm in mb.stores:
            _drop_consumer(self._store_cons, vmap[base], (fld, vmap[frm]))
        for var in mb.throws:
            _drop_consumer(self._throw_cons, vmap[var], (meth, ctx))
        for base, sig, invo, lhs, args in mb.vcalls:
            _drop_consumer(
                self._vcall_cons, vmap[base], (sig, invo, ctx, meth, lhs, args)
            )
        for base, callee, invo, lhs, args in mb.specialcalls:
            _drop_consumer(
                self._special_cons,
                vmap[base],
                (callee, invo, ctx, meth, lhs, args),
            )

    def _unregister_heap_type(self, heap: int) -> None:
        """Undo :meth:`_register_heap_type` for a heap no longer allocated."""
        type_i = self._heap_type.pop(heap, None)
        if type_i is None:
            return
        of_heap = self._pairs_by_heap.get(heap, 0)
        pht = self._pair_heap_type
        for pid in iter_bits(of_heap):
            pht[pid] = None
        self._heaps_by_typename[self.types.value(type_i)].remove(heap)
        for t_i in self._heap_filters.pop(heap, ()):
            self._filter_heaps[t_i].discard(heap)
            self._filter_pairs[t_i] &= ~of_heap

    def _replay(self, meth: int, ctx: int) -> None:
        """Re-emit everything a live activation derives, from its current
        state: instruction edges and seeds, its consumers fired over their
        bases' current points-to sets (not re-registered), and the
        bindings and escaping exceptions of its live call edges, in and
        out.  Idempotent: only what a retraction tore down is new."""
        mb = self._bodies[meth]
        pts = self._pts
        vnode = self._vnode
        add_edge = self._add_edge
        throw_nodes = self._throw_nodes
        indexes = self._indexes
        assert indexes is not None
        for var, heap in mb.allocs:
            self._add_pts1(vnode(var, ctx), self._record(heap, ctx))
        for frm, to in mb.moves:
            add_edge(vnode(frm, ctx), vnode(to, ctx))
        for frm, to, typ in mb.casts:
            add_edge(vnode(frm, ctx), vnode(to, ctx), typ)
        for to, base, fld in mb.loads:
            to_node = vnode(to, ctx)
            for pid in iter_bits(pts[vnode(base, ctx)]):
                add_edge(self._fnode(pid, fld), to_node)
        for base, fld, frm in mb.stores:
            from_node = vnode(frm, ctx)
            for pid in iter_bits(pts[vnode(base, ctx)]):
                add_edge(from_node, self._fnode(pid, fld))
        for to, sfld in mb.staticloads:
            add_edge(self._snode(sfld), vnode(to, ctx))
        for sfld, frm in mb.staticstores:
            add_edge(vnode(frm, ctx), self._snode(sfld))
        for var in mb.throws:
            for pid in iter_bits(pts[vnode(var, ctx)]):
                self._raise_in(meth, ctx, pid)
        for base, sig, invo, lhs, args in mb.vcalls:
            for pid in iter_bits(pts[vnode(base, ctx)]):
                self._dispatch_vcall(pid, sig, invo, ctx, meth, lhs, args)
        for base, callee, invo, lhs, args in mb.specialcalls:
            for pid in iter_bits(pts[vnode(base, ctx)]):
                self._resolve_receiver_call(
                    pid, invo, ctx, meth, callee, lhs, args
                )
        # Outgoing call edges: return bindings and escaping exceptions.
        for invo in _call_invos(mb):
            for edge in indexes.from_site.of(invo << 32 | ctx):
                lhs = indexes.lhs[invo]
                callee, ec = edge[2], edge[3]
                if lhs != _NONE:
                    dst = vnode(lhs, ctx)
                    for ret in self._bodies[callee].returns:
                        add_edge(vnode(ret, ec), dst)
                escapes = throw_nodes.get(callee << 32 | ec)
                if escapes is not None:
                    for pid in iter_bits(pts[escapes]):
                        self._raise_in(meth, ctx, pid)
        # Incoming call edges: argument bindings and the receiver.
        for edge in indexes.into.of(meth << 32 | ctx):
            invo, cc = edge[0], edge[1]
            base, target, args, virtual = self._call_site(invo)
            for actual, formal in zip(args, mb.formals):
                add_edge(vnode(actual, cc), vnode(formal, ctx))
            if base == _NONE or mb.this == _NONE:
                continue
            this_node = vnode(mb.this, ctx)
            for pid in iter_bits(pts[vnode(base, cc)]):
                if virtual:
                    ht = self._pair_heap_type[pid]
                    if ht is None or self._dispatch(ht, target) != meth:
                        continue
                if self._merge(pid, invo, meth, cc) == ctx:
                    self._add_pts1(this_node, pid)

    def _call_site(self, invo: int) -> Tuple[int, int, Tuple[int, ...], bool]:
        """Call site ``invo`` of a warm solver, read from its caller's
        current body: receiver var (``_NONE`` for a static call), sig or
        callee, args, and whether it dispatches virtually."""
        assert self._indexes is not None
        mb = self._bodies[self._indexes.callers[invo]]
        for base, target, site, _lhs, args in mb.vcalls:
            if site == invo:
                return base, target, args, True
        for base, target, site, _lhs, args in mb.specialcalls:
            if site == invo:
                return base, target, args, False
        for target, site, _lhs, args in mb.scalls:
            if site == invo:
                return _NONE, target, args, False
        raise KeyError(invo)

    def _propagate(self) -> None:
        worklist = self._worklist
        push = worklist.append
        pending = self._pending
        pending_get = pending.get
        pending_pop = pending.pop
        pts_list = self._pts
        out_plain = self._out_plain
        out_filtered = self._out_filtered
        load_cons = self._load_cons
        store_cons = self._store_cons
        vcall_cons = self._vcall_cons
        special_cons = self._special_cons
        throw_cons = self._throw_cons
        add_pts = self._add_pts
        add_edge = self._add_edge
        edge_seen = self._edge_seen
        fld_nodes = self._fld_nodes
        allowed_pairs = self._allowed_pairs
        dispatch_cache_get = self._dispatch_cache.get
        pair_heap_type = self._pair_heap_type
        max_tuples = self.max_tuples
        max_seconds = self.max_seconds
        elapsed = self._stopwatch.elapsed
        tracer = self._tracer
        added_log = self._added_log
        own = self._owners.append
        while worklist:
            node = worklist.popleft()
            delta = pending_pop(node, 0)
            if not delta:
                continue
            out = out_plain.get(node)
            if out:
                # _add_pts and _charge, inlined: this edge walk is the
                # single hottest path in the solver.  One ``&~`` and one
                # ``|`` admit the whole delta — no per-element hashing.
                for dst in out:
                    pts = pts_list[dst]
                    new = delta & ~pts
                    if new:
                        pts_list[dst] = pts | new
                        if added_log is not None:
                            added_log.append((dst, new))
                        n = popcount(new)
                        self._tuple_count += n
                        if (
                            max_tuples is not None
                            and self._tuple_count > max_tuples
                        ):
                            raise BudgetExceeded(
                                "tuple budget exceeded",
                                self._tuple_count,
                                elapsed(),
                            )
                        self._ops_since_clock += n
                        if self._ops_since_clock >= _CLOCK_CHECK_PERIOD:
                            self._ops_since_clock = 0
                            if (
                                max_seconds is not None
                                and elapsed() > max_seconds
                            ):
                                raise BudgetExceeded(
                                    "time budget exceeded",
                                    self._tuple_count,
                                    elapsed(),
                                )
                            tracer.counter_sample(
                                "solver.tuples", self._tuple_count
                            )
                        p = pending_get(dst)
                        if p is None:
                            pending[dst] = new
                            push(dst)
                        else:
                            pending[dst] = p | new
            fedges = out_filtered.get(node)
            if fedges:
                for dst, type_i in fedges:
                    filtered = delta & allowed_pairs(type_i)
                    if filtered:
                        add_pts(dst, filtered)
            cons = load_cons.get(node)
            if cons:
                for fld, to_node in cons:
                    fmap = fld_nodes.get(fld)
                    if fmap is None:
                        fmap = fld_nodes[fld] = {}
                    m = delta
                    while m:
                        low = m & -m
                        pid = low.bit_length() - 1
                        m ^= low
                        fn = fmap.get(pid)
                        if fn is None:
                            fn = fmap[pid] = len(pts_list)
                            pts_list.append(0)
                            own(fld << 32 | pid)
                            add_edge(fn, to_node)
                        elif fn << 32 | to_node not in edge_seen:
                            add_edge(fn, to_node)
            cons = store_cons.get(node)
            if cons:
                for fld, from_node in cons:
                    fmap = fld_nodes.get(fld)
                    if fmap is None:
                        fmap = fld_nodes[fld] = {}
                    m = delta
                    while m:
                        low = m & -m
                        pid = low.bit_length() - 1
                        m ^= low
                        fn = fmap.get(pid)
                        if fn is None:
                            fn = fmap[pid] = len(pts_list)
                            pts_list.append(0)
                            own(fld << 32 | pid)
                            add_edge(from_node, fn)
                        elif from_node << 32 | fn not in edge_seen:
                            add_edge(from_node, fn)
            cons = vcall_cons.get(node)
            if cons:
                for sig, invo, ctx, in_meth, lhs, args in cons:
                    m = delta
                    while m:
                        low = m & -m
                        pid = low.bit_length() - 1
                        m ^= low
                        ht = pair_heap_type[pid]
                        if ht is None:
                            continue
                        callee = dispatch_cache_get(ht << 32 | sig)
                        if callee is None:
                            callee = self._dispatch(ht, sig)
                        if callee == _NONE:
                            continue
                        self._resolve_receiver_call(
                            pid, invo, ctx, in_meth, callee, lhs, args
                        )
            cons = special_cons.get(node)
            if cons:
                for callee, invo, ctx, in_meth, lhs, args in cons:
                    for pid in iter_bits(delta):
                        self._resolve_receiver_call(
                            pid, invo, ctx, in_meth, callee, lhs, args
                        )
            cons = throw_cons.get(node)
            if cons:
                for meth, ctx in cons:
                    for pid in iter_bits(delta):
                        self._raise_in(meth, ctx, pid)

    def snapshot(self) -> RawSolution:
        """The current fixpoint, as views over the solver's tables (see
        :class:`RawSolution`): O(1), nothing is copied."""
        epoch = self._epoch
        return RawSolution(
            vars=self.vars,
            heaps=self.heaps,
            meths=self.meths,
            invos=self.invos,
            flds=self.flds,
            ctxs=self.ctxs,
            hctxs=self.hctxs,
            var_nodes=_VarNodes(self._var_nodes, epoch),
            fld_nodes=_FldNodes(self),
            static_nodes=self._static_nodes,
            throw_nodes=_ThrowNodes(self._throw_nodes, epoch),
            static_flds=self.static_flds,
            pts=self._pts,
            pair_heap=self._pair_heap,
            pair_hctx=self._pair_hctx,
            reachable=_Reachable(self._reachable, epoch),
            call_graph=self._call_graph,
            vcall_dispatches=_Dispatches(self._vcall_targets, epoch),
            tuple_count=self._tuple_count,
            seconds=self._stopwatch.elapsed(),
        )


def solve(
    program: Program,
    policy: ContextPolicy,
    facts: Optional[FactBase] = None,
    max_tuples: Optional[int] = None,
    max_seconds: Optional[float] = None,
    tracer: Tracer = NULL_TRACER,
    pack: Optional[PackedProgram] = None,
) -> RawSolution:
    """Convenience one-call entry point for :class:`PointsToSolver`."""
    return PointsToSolver(
        program,
        policy,
        facts=facts,
        max_tuples=max_tuples,
        max_seconds=max_seconds,
        tracer=tracer,
        pack=pack,
    ).solve()
