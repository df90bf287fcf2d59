"""User-facing analysis results.

:class:`AnalysisResult` wraps the solver's interned :class:`RawSolution`
behind string-keyed query methods, computing the *context-insensitive
projections* lazily: e.g. ``VarPointsTo(var, heap)`` ignoring contexts,
``CallGraph(invo, meth)`` ignoring contexts.

The paper's introspection metrics and precision clients read the packed
forms instead of the string sets:

* :attr:`AnalysisResult.var_masks` — each variable's pair masks OR-ed
  over its contexts;
* :attr:`AnalysisResult.call_edges` — the call graph as distinct id pairs;
* :class:`PackedProjections` — points-to sets as heap bitmasks, so a
  set's size is a popcount.

Ids become names only for the values they report.  The string-set
projections stay for the other clients and for the Datalog cross-checks
(:mod:`repro.introspection.datalog_metrics` is the metrics' oracle).

:class:`AnalysisStats` carries the size/timing numbers that the harness
reports (and that Figure 1's bimodality argument is about).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from .solver import RawSolution, iter_bits

__all__ = ["AnalysisResult", "AnalysisStats", "PackedProjections"]


@dataclass(frozen=True)
class AnalysisStats:
    """Sizes and timing of one analysis run."""

    analysis: str
    seconds: float
    tuple_count: int
    var_pts_tuples: int
    fld_pts_tuples: int
    call_graph_edges: int
    reachable_method_contexts: int
    reachable_methods: int
    contexts: int
    heap_contexts: int
    timed_out: bool = False

    def row(self) -> Dict[str, object]:
        """Flat dict for table rendering."""
        return {
            "analysis": self.analysis,
            "seconds": round(self.seconds, 3),
            "tuples": self.tuple_count,
            "var-pts": self.var_pts_tuples,
            "fld-pts": self.fld_pts_tuples,
            "cg-edges": self.call_graph_edges,
            "reach-methods": self.reachable_methods,
            "contexts": self.contexts,
            "timeout": self.timed_out,
        }


@dataclass(frozen=True)
class PackedProjections:
    """The insensitive projections introspection reads, in packed form.

    Points-to sets are bitmasks over one space of heap bits: ``heaps[b]``
    names bit ``b``, and no heap has two bits, so a set's size is a
    popcount and a union is an OR.  ``var`` maps each variable with a
    nonempty set to its mask; ``fld`` maps each (base heap's bit, field)
    with a nonempty set to its mask.  ``call_sites`` holds the distinct
    (invocation site, target method) edges of the call graph.
    """

    heaps: Sequence[str]
    var: Mapping[str, int]
    fld: Mapping[Tuple[int, Hashable], int]
    call_sites: FrozenSet[Tuple[str, str]]

    @classmethod
    def of(cls, result: object) -> "PackedProjections":
        """The projections of ``result``: cached on an
        :class:`AnalysisResult`; for any other view exposing the string-set
        projections (``var_points_to``, ``fld_points_to``, ``call_graph``;
        e.g. a reference-solver solution's) the sets are interned here."""
        if isinstance(result, AnalysisResult):
            return result.packed
        return cls.from_sets(
            result.var_points_to,  # type: ignore[attr-defined]
            result.fld_points_to,  # type: ignore[attr-defined]
            result.call_graph,  # type: ignore[attr-defined]
        )

    @classmethod
    def from_sets(
        cls,
        var_points_to: Mapping[str, Iterable[str]],
        fld_points_to: Mapping[Tuple[str, str], Iterable[str]],
        call_graph: Mapping[str, Iterable[str]],
    ) -> "PackedProjections":
        """Intern string-keyed projections; bits follow first appearance."""
        bit_of: Dict[str, int] = {}

        def mask(heaps: Iterable[str]) -> int:
            m = 0
            for heap in heaps:
                m |= 1 << bit_of.setdefault(heap, len(bit_of))
            return m

        var = {v: m for v, heaps in var_points_to.items() if (m := mask(heaps))}
        fld: Dict[Tuple[int, Hashable], int] = {}
        for (base, field_name), heaps in fld_points_to.items():
            m = mask(heaps)
            if m:
                fld[(bit_of.setdefault(base, len(bit_of)), field_name)] = m
        return cls(
            heaps=list(bit_of),
            var=var,
            fld=fld,
            call_sites=frozenset(
                (invo, meth) for invo, targets in call_graph.items() for meth in targets
            ),
        )


class AnalysisResult:
    """Queryable, string-keyed view over a solved analysis."""

    def __init__(self, raw: RawSolution, analysis_name: str) -> None:
        self.raw = raw
        self.analysis_name = analysis_name
        self._var_proj: Optional[Dict[str, Set[str]]] = None
        self._fld_proj: Optional[Dict[Tuple[str, str], Set[str]]] = None
        self._cg_proj: Optional[Dict[str, Set[str]]] = None
        self._reachable_methods: Optional[FrozenSet[str]] = None
        self._var_masks: Optional[Dict[int, int]] = None
        self._call_edges: Optional[FrozenSet[Tuple[int, int]]] = None
        self._packed: Optional[PackedProjections] = None

    # ------------------------------------------------------------------
    # Packed projections (introspection metrics, precision clients)
    # ------------------------------------------------------------------
    @property
    def var_masks(self) -> Dict[int, int]:
        """Variable id -> the union of its nodes' pair masks over all
        contexts.  Variables whose sets are all empty are absent."""
        if self._var_masks is None:
            pts = self.raw.pts
            masks: Dict[int, int] = {}
            for (var_i, _ctx), node in self.raw.var_nodes.items():
                m = pts[node]
                if m:
                    masks[var_i] = masks.get(var_i, 0) | m
            self._var_masks = masks
        return self._var_masks

    @property
    def call_edges(self) -> FrozenSet[Tuple[int, int]]:
        """The call graph without contexts: distinct (invocation id,
        method id) edges."""
        if self._call_edges is None:
            self._call_edges = frozenset(
                (invo_i, meth_i) for invo_i, _cc, meth_i, _ec in self.raw.call_graph
            )
        return self._call_edges

    @property
    def packed(self) -> PackedProjections:
        """This result's :class:`PackedProjections`, built once.

        When every heap has one pair (one heap context, as in the
        insensitive pass) pair ids serve as heap bits as they are;
        otherwise each variable's union mask, and each (base heap, field)
        union over base contexts, is projected onto heap ids once.
        """
        if self._packed is None:
            raw = self.raw
            pair_heap = raw.pair_heap
            heap_names = raw.heaps.values()
            project: Callable[[int], int]
            if len(set(pair_heap)) == len(pair_heap):
                heaps: List[str] = [heap_names[h] for h in pair_heap]
                bit_of: Union[Dict[int, int], range] = {
                    h: pid for pid, h in enumerate(pair_heap)
                }

                def project(mask: int) -> int:
                    return mask

            else:
                heaps = heap_names
                bit_of = range(len(heaps))
                heap_bit = [1 << h for h in pair_heap]

                def project(mask: int) -> int:
                    out = 0
                    for pid in iter_bits(mask):
                        out |= heap_bit[pid]
                    return out

            pts = raw.pts
            fld: Dict[Tuple[int, Hashable], int] = {}
            for (base_i, _hctx, fld_i), node in raw.fld_nodes.items():
                m = pts[node]
                if m:
                    key = (bit_of[base_i], fld_i)
                    fld[key] = fld.get(key, 0) | m
            var_names = raw.vars.values()
            invo_names, meth_names = raw.invos.values(), raw.meths.values()
            self._packed = PackedProjections(
                heaps=heaps,
                var={var_names[v]: project(m) for v, m in self.var_masks.items()},
                fld={key: project(m) for key, m in fld.items()},
                call_sites=frozenset(
                    (invo_names[i], meth_names[m]) for i, m in self.call_edges
                ),
            )
        return self._packed

    # ------------------------------------------------------------------
    # Insensitive projections
    # ------------------------------------------------------------------
    @property
    def var_points_to(self) -> Dict[str, Set[str]]:
        """Projection: variable -> set of heap allocation sites."""
        if self._var_proj is None:
            raw = self.raw
            pair_heap = raw.pair_heap
            proj: Dict[str, Set[str]] = {}
            for (var_i, _ctx), node in raw.var_nodes.items():
                pts = raw.pts[node]
                if not pts:
                    continue
                var = raw.vars.value(var_i)
                bucket = proj.setdefault(var, set())
                for pid in iter_bits(pts):
                    bucket.add(raw.heaps.value(pair_heap[pid]))
            self._var_proj = proj
        return self._var_proj

    @property
    def fld_points_to(self) -> Dict[Tuple[str, str], Set[str]]:
        """Projection: (base heap, field) -> set of heap allocation sites."""
        if self._fld_proj is None:
            raw = self.raw
            pair_heap = raw.pair_heap
            proj: Dict[Tuple[str, str], Set[str]] = {}
            for (base_i, _hctx, fld_i), node in raw.fld_nodes.items():
                pts = raw.pts[node]
                if not pts:
                    continue
                key = (raw.heaps.value(base_i), raw.flds.value(fld_i))
                bucket = proj.setdefault(key, set())
                for pid in iter_bits(pts):
                    bucket.add(raw.heaps.value(pair_heap[pid]))
            self._fld_proj = proj
        return self._fld_proj

    @property
    def call_graph(self) -> Dict[str, Set[str]]:
        """Projection: invocation site -> set of target method ids."""
        if self._cg_proj is None:
            raw = self.raw
            proj: Dict[str, Set[str]] = {}
            for invo_i, _cc, meth_i, _ec in raw.call_graph:
                proj.setdefault(raw.invos.value(invo_i), set()).add(
                    raw.meths.value(meth_i)
                )
            self._cg_proj = proj
        return self._cg_proj

    @property
    def reachable_methods(self) -> FrozenSet[str]:
        """Projection: all method ids reachable under some context."""
        if self._reachable_methods is None:
            raw = self.raw
            self._reachable_methods = frozenset(
                raw.meths.value(m) for m, _c in raw.reachable
            )
        return self._reachable_methods

    def var_mask(self, var: str) -> int:
        """``var``'s pair mask OR-ed over contexts (0 if unknown)."""
        raw = self.raw
        if var not in raw.vars:
            return 0
        return self.var_masks.get(raw.vars.get(var), 0)

    def mask_heaps(self) -> Callable[[int], FrozenSet[str]]:
        """A function naming the heap sites of one of this result's pair
        masks.  It holds only the pair -> heap-name list, not the
        solution, so it can outlive the result."""
        heaps = self.raw.heaps.values()
        names = [heaps[h] for h in self.raw.pair_heap]
        return lambda mask: frozenset(names[pid] for pid in iter_bits(mask))

    def points_to(self, var: str) -> FrozenSet[str]:
        """Heap sites ``var`` may point to (insensitive projection); reads
        ``var``'s union mask and names only its heaps."""
        pair_heap, heap_name = self.raw.pair_heap, self.raw.heaps.value
        return frozenset(
            heap_name(pair_heap[pid]) for pid in iter_bits(self.var_mask(var))
        )

    def vcall_resolved_targets(self, invo: str) -> FrozenSet[str]:
        """Methods a virtual call site may dispatch to."""
        raw = self.raw
        if invo not in raw.invos:
            return frozenset()
        targets = raw.vcall_dispatches.get(raw.invos.get(invo), set())
        return frozenset(raw.meths.value(m) for m in targets)

    # ------------------------------------------------------------------
    # Context-sensitive iteration (tests, Datalog cross-validation)
    # ------------------------------------------------------------------
    def iter_var_points_to(self) -> Iterator[Tuple[str, tuple, str, tuple]]:
        """(var, ctx, heap, hctx) tuples — the full VARPOINTSTO relation."""
        raw = self.raw
        for (var_i, ctx), node in raw.var_nodes.items():
            var = raw.vars.value(var_i)
            ctx_v = raw.ctxs.value(ctx)
            for heap_i, hctx in raw.iter_pts(node):
                yield var, ctx_v, raw.heaps.value(heap_i), raw.hctxs.value(hctx)

    def iter_fld_points_to(self) -> Iterator[Tuple[str, tuple, str, str, tuple]]:
        """(baseH, baseHCtx, fld, heap, hctx) — the full FLDPOINTSTO relation."""
        raw = self.raw
        for (base_i, bhctx, fld_i), node in raw.fld_nodes.items():
            base = raw.heaps.value(base_i)
            bh_v = raw.hctxs.value(bhctx)
            fld = raw.flds.value(fld_i)
            for heap_i, hctx in raw.iter_pts(node):
                yield base, bh_v, fld, raw.heaps.value(heap_i), raw.hctxs.value(hctx)

    def iter_call_graph(self) -> Iterator[Tuple[str, tuple, str, tuple]]:
        """(invo, callerCtx, meth, calleeCtx) — the full CALLGRAPH relation."""
        raw = self.raw
        for invo_i, cc, meth_i, ec in raw.call_graph:
            yield (
                raw.invos.value(invo_i),
                raw.ctxs.value(cc),
                raw.meths.value(meth_i),
                raw.ctxs.value(ec),
            )

    def iter_reachable(self) -> Iterator[Tuple[str, tuple]]:
        """(meth, ctx) — the full REACHABLE relation."""
        raw = self.raw
        for meth_i, ctx in raw.reachable:
            yield raw.meths.value(meth_i), raw.ctxs.value(ctx)

    def iter_throw_points_to(self) -> Iterator[Tuple[str, tuple, str, tuple]]:
        """(meth, ctx, heap, hctx) — the THROWPOINTSTO relation: exception
        objects escaping each method context uncaught."""
        raw = self.raw
        for (meth_i, ctx), node in raw.throw_nodes.items():
            meth = raw.meths.value(meth_i)
            ctx_v = raw.ctxs.value(ctx)
            for heap_i, hctx in raw.iter_pts(node):
                yield meth, ctx_v, raw.heaps.value(heap_i), raw.hctxs.value(hctx)

    @property
    def throw_points_to(self) -> Dict[str, Set[str]]:
        """Projection: method -> exception heap sites escaping it uncaught."""
        proj: Dict[str, Set[str]] = {}
        for meth, _ctx, heap, _hctx in self.iter_throw_points_to():
            proj.setdefault(meth, set()).add(heap)
        return proj

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    def stats(self, timed_out: bool = False) -> AnalysisStats:
        raw = self.raw
        var_tuples = sum(raw.pts_size(n) for n in raw.var_nodes.values())
        fld_tuples = sum(raw.pts_size(n) for n in raw.fld_nodes.values())
        return AnalysisStats(
            analysis=self.analysis_name,
            seconds=raw.seconds,
            tuple_count=raw.tuple_count,
            var_pts_tuples=var_tuples,
            fld_pts_tuples=fld_tuples,
            call_graph_edges=len(raw.call_graph),
            reachable_method_contexts=len(raw.reachable),
            reachable_methods=len(self.reachable_methods),
            contexts=len(raw.ctxs),
            heap_contexts=len(raw.hctxs),
            timed_out=timed_out,
        )
