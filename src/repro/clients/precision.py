"""The paper's three precision metrics (Figures 5–7, lower is better).

1. **Polymorphic virtual call sites** — "calls that cannot be devirtualized":
   reachable virtual call sites whose resolved target set has two or more
   methods (zero-target sites are unreachable/dead and excluded).
2. **Reachable methods** — size of the context-insensitive projection of
   REACHABLE.
3. **Reachable casts that may fail** — "casts that cannot be eliminated":
   cast instructions in reachable methods whose source variable may point to
   an object whose type is not a subtype of the cast's target type.

These are standard client analyses; each may have unique needs, but (paper,
Section 4) "the three metrics together should yield a reasonable projection
of precision".

All three read the packed result: polymorphic sites come from the
distinct (invocation id, method id) call edges, and the cast check walks
only the reachable casts' source variables' union masks, with one subtype
verdict per (heap, type).  Names are looked up only for what is reported.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Set, Tuple

from ..analysis.pack import ProgramFacts
from ..analysis.results import AnalysisResult
from ..analysis.solver import iter_bits

__all__ = ["PrecisionReport", "measure_precision"]


@dataclass(frozen=True)
class PrecisionReport:
    """The three precision metrics for one analysis run."""

    analysis: str
    polymorphic_call_sites: int
    reachable_methods: int
    casts_may_fail: int

    def row(self) -> Dict[str, object]:
        return {
            "analysis": self.analysis,
            "poly-vcalls": self.polymorphic_call_sites,
            "reach-methods": self.reachable_methods,
            "casts-may-fail": self.casts_may_fail,
        }

    def dominates(self, other: "PrecisionReport") -> bool:
        """True if at least as precise as ``other`` on every metric."""
        return (
            self.polymorphic_call_sites <= other.polymorphic_call_sites
            and self.reachable_methods <= other.reachable_methods
            and self.casts_may_fail <= other.casts_may_fail
        )


def polymorphic_vcall_sites(
    result: AnalysisResult, facts: ProgramFacts
) -> FrozenSet[str]:
    """Virtual call sites resolving to two or more target methods."""
    targets = Counter(invo for invo, _meth in result.call_edges)
    invo_name = result.raw.invos.value
    is_vcall = facts.is_vcall
    return frozenset(
        name
        for invo, n in targets.items()
        if n >= 2 and is_vcall(name := invo_name(invo))
    )


def casts_that_may_fail(
    result: AnalysisResult, facts: ProgramFacts
) -> FrozenSet[str]:
    """Identify reachable casts whose source may hold an incompatible object.

    Returns one witness string per failing cast instruction (the cast's
    target variable, unique per instruction in our IR encoding).
    """
    raw = result.raw
    is_subtype = facts.program.hierarchy.is_subtype
    heap_type_of, heap_name, pair_heap = (
        facts.heap_type_of, raw.heaps.value, raw.pair_heap
    )
    var_ids, var_masks = raw.vars, result.var_masks
    fails: Dict[Tuple[int, str], bool] = {}
    failing: Set[str] = set()
    for to, type_name, frm in facts.casts_in(result.reachable_methods):
        if frm not in var_ids:
            continue
        for pid in iter_bits(var_masks.get(var_ids.get(frm), 0)):
            key = (pair_heap[pid], type_name)
            verdict = fails.get(key)
            if verdict is None:
                verdict = fails[key] = not is_subtype(
                    heap_type_of(heap_name(key[0])), type_name
                )
            if verdict:
                failing.add(to)
                break
    return frozenset(failing)


def measure_precision(
    result: AnalysisResult, facts: ProgramFacts
) -> PrecisionReport:
    """Compute all three paper metrics for one analysis result."""
    return PrecisionReport(
        analysis=result.analysis_name,
        polymorphic_call_sites=len(polymorphic_vcall_sites(result, facts)),
        reachable_methods=len(result.reachable_methods),
        casts_may_fail=len(casts_that_may_fail(result, facts)),
    )
