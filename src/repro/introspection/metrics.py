"""The six cost metrics of Section 3.

All metrics are computed over the *context-insensitive projections* of a
(normally context-insensitive) analysis result — exactly the quantities the
paper's example Datalog query computes with count aggregation:

1. **in-flow** of an invocation site: cumulative size of the points-to sets
   of its actual arguments (distinct ``(arg, heap)`` pairs, for invocation
   sites present in the call graph);
2. **total points-to volume** of a method: cumulative points-to size over
   all its local variables (variant: **max var-points-to**, the maximum);
3. **max field points-to** of an object: maximum field points-to set over
   its fields (variant: **total field points-to**, the sum);
4. **max var-field points-to** of a method: maximum metric-3 value among
   objects pointed to by the method's locals;
5. **pointed-by-vars** of an object: number of local variables that may
   point to it;
6. **pointed-by-objs** of an object: number of object-field pairs that may
   point to it.

Every metric defaults to 0 for program elements that don't appear — e.g.
unreachable methods or never-pointed-to objects.

:func:`compute_metrics` is the fast path used by the experiments.  It
reads the solver's packed masks (``PackedProjections`` in
:mod:`repro.analysis.results`): sizes are popcounts, the per-object
counts are per-position bit counts over the masks, and metric 4 tests
each method's OR of its locals' masks against one heap mask per
metric-3 value.  Ids become names only for the final dicts.
:mod:`repro.introspection.datalog_metrics` re-expresses the same metrics
as engine-level Datalog queries (the paper's formulation) and is the
fast path's oracle: the test suite checks the two agree, on insensitive
and context-sensitive results.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_
from typing import Dict

from ..analysis.pack import ProgramFacts
from ..analysis.results import AnalysisResult, PackedProjections
from ..analysis.solver import bit_counts, popcount

__all__ = ["IntrospectionMetrics", "compute_metrics"]


@dataclass
class IntrospectionMetrics:
    """Metric values keyed by invocation site, method, or allocation site."""

    in_flow: Dict[str, int] = field(default_factory=dict)  # metric 1, per invo
    total_pts_volume: Dict[str, int] = field(default_factory=dict)  # 2, per meth
    max_var_pts: Dict[str, int] = field(default_factory=dict)  # 2 variant
    max_field_pts: Dict[str, int] = field(default_factory=dict)  # 3, per heap
    total_field_pts: Dict[str, int] = field(default_factory=dict)  # 3 variant
    max_var_field_pts: Dict[str, int] = field(default_factory=dict)  # 4, per meth
    pointed_by_vars: Dict[str, int] = field(default_factory=dict)  # 5, per heap
    pointed_by_objs: Dict[str, int] = field(default_factory=dict)  # 6, per heap

    def object_weight(self, heap: str) -> int:
        """Heuristic B's object score: total-field-pts x pointed-by-vars —
        "an object's total potential for weighing down the analysis"."""
        return self.total_field_pts.get(heap, 0) * self.pointed_by_vars.get(heap, 0)


def compute_metrics(
    result: AnalysisResult, facts: ProgramFacts
) -> IntrospectionMetrics:
    """Compute all six metrics from a result's packed projections.

    ``result`` may also be any view with ``reachable_methods`` and the
    string-set projections (see :meth:`PackedProjections.of`), such as a
    reference solver's pass 1.  ``facts`` is read by name: the run's
    packed program or a fact base.
    """
    packed = PackedProjections.of(result)
    heaps = packed.heaps
    metrics = IntrospectionMetrics()

    # Metric 3 (max + total variants), per base object bit.
    max_fld: Dict[int, int] = {}
    total_fld: Dict[int, int] = {}
    for (base, _fld), mask in packed.fld.items():
        size = popcount(mask)
        if size > max_fld.get(base, 0):
            max_fld[base] = size
        total_fld[base] = total_fld.get(base, 0) + size

    # Metric 2 (both variants), per reachable method (only their locals
    # point anywhere) over its locals' masks; each method's OR of those
    # masks feeds metric 4.
    var_mask = packed.var
    meth_mask: Dict[str, int] = {}
    reachable = result.reachable_methods
    for method in facts.program.methods():
        meth = method.id
        if meth not in reachable:
            continue
        masks = list(filter(None, map(var_mask.get, facts.vars_of(meth))))
        if masks:
            sizes = list(map(popcount, masks))
            metrics.total_pts_volume[meth] = sum(sizes)
            metrics.max_var_pts[meth] = max(sizes)
            meth_mask[meth] = reduce(or_, masks)

    # Metric 4: the largest metric-3 value among the heaps a method's
    # locals reach — the first value, from the top, whose heaps meet the
    # method's mask.
    heaps_of_value: Dict[int, int] = {}
    for base, size in max_fld.items():
        heaps_of_value[size] = heaps_of_value.get(size, 0) | (1 << base)
    ranked = sorted(heaps_of_value.items(), reverse=True)
    any_fields = reduce(or_, heaps_of_value.values(), 0)
    for meth, mask in meth_mask.items():
        if not mask & any_fields:
            continue
        for size, value_mask in ranked:
            if mask & value_mask:
                metrics.max_var_field_pts[meth] = size
                break

    # Metric 1: in-flow, per invocation site in the call graph: the sizes
    # of its distinct arguments, summed.
    size_of = dict(zip(var_mask, map(popcount, var_mask.values()))).get
    args_of = facts.args_of
    for invo in {invo for invo, _meth in packed.call_sites}:
        args = args_of(invo)
        total = 0
        for arg in set(args) if len(args) > 1 else args:
            total += size_of(arg, 0)
        metrics.in_flow[invo] = total

    metrics.max_field_pts = {heaps[b]: n for b, n in max_fld.items()}
    metrics.total_field_pts = {heaps[b]: n for b, n in total_fld.items()}
    # Metrics 5 and 6: how many variable / object-field masks hold each bit.
    by_vars = bit_counts(var_mask.values(), len(heaps))
    by_objs = bit_counts(packed.fld.values(), len(heaps))
    metrics.pointed_by_vars = {heaps[b]: n for b, n in enumerate(by_vars) if n}
    metrics.pointed_by_objs = {heaps[b]: n for b, n in enumerate(by_objs) if n}
    return metrics
