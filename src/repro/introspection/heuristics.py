"""Heuristics that decide which program elements *not* to refine.

A heuristic consumes the Section 3 metrics (computed over the first,
context-insensitive pass) and produces the exclusion sets — the allocation
sites and the ``(invocation site, target method)`` pairs to analyze with
the cheap context during the second pass.  The universes it draws from are
the pass-1 results: objects allocated in reachable methods, call-site pairs
present in the pass-1 call graph (a superset of anything the more precise
pass 2 can discover, so exclusions are well-defined).

The paper's two reference heuristics:

* **Heuristic A** (aggressive) — exclude objects with pointed-by-vars
  (metric 5) above ``K``; exclude call sites with in-flow (metric 1) above
  ``L`` *or* invoking methods with max var-field points-to (metric 4)
  above ``M``.  Paper constants: K=100, L=100, M=200.
* **Heuristic B** (selective) — exclude call sites invoking methods with
  total points-to volume (metric 2) above ``P``; exclude objects whose
  ``total field points-to x pointed-by-vars`` product (metrics 3x5)
  exceeds ``Q``.  Paper constants: P=Q=10000.

The constants are constructor parameters: the paper emphasizes that its
value comes from the idea rather than tuning, and our ablation benchmark
(`benchmarks/test_ablation_constants.py`) sweeps them to show the same
robustness.  Because our synthetic benchmarks are one to two orders of
magnitude smaller than DaCapo-on-JDK, the experiment harness instantiates
the heuristics with proportionally scaled defaults (see EXPERIMENTS.md);
the paper's absolute values remain the documented defaults here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Set, Tuple

from ..analysis.results import AnalysisResult, PackedProjections
from ..contexts.introspective import RefinementDecision
from ..facts.encoder import FactBase
from .metrics import IntrospectionMetrics

__all__ = [
    "Heuristic",
    "string_exclusion_decision",
    "HeuristicA",
    "HeuristicB",
    "CustomHeuristic",
    "RefineEverything",
    "call_site_universe",
    "object_universe",
    "heuristic_from_spec",
]

#: Constant names per heuristic label, for error messages and validation.
_CONSTANT_NAMES = {"A": ("K", "L", "M"), "B": ("P", "Q")}


def heuristic_from_spec(label: str, constants: "str | None" = None) -> "Heuristic":
    """Build Heuristic A or B from a label and an optional constants string.

    ``constants`` is the CLI/service ``--heuristic-constants`` syntax:
    comma-separated integers, three (``K,L,M``) for A and two (``P,Q``)
    for B.  Raises :class:`ValueError` with a usage-style message on an
    unknown label, wrong arity, or non-integer constants.
    """
    if label not in _CONSTANT_NAMES:
        raise ValueError(
            f"unknown heuristic {label!r}: expected 'A' or 'B'"
        )
    names = _CONSTANT_NAMES[label]
    values: Dict[str, int] = {}
    if constants is not None:
        parts = [p.strip() for p in constants.split(",")]
        usage = ",".join(names)
        if len(parts) != len(names):
            raise ValueError(
                f"heuristic {label} takes {len(names)} constants ({usage}); "
                f"got {len(parts)} in {constants!r}"
            )
        try:
            values = {n: int(p) for n, p in zip(names, parts)}
        except ValueError:
            raise ValueError(
                f"heuristic constants must be integers ({usage}); "
                f"got {constants!r}"
            ) from None
    return HeuristicA(**values) if label == "A" else HeuristicB(**values)


def call_site_universe(result: AnalysisResult) -> FrozenSet[Tuple[str, str]]:
    """All (invo, target method) pairs of the pass-1 call graph (the
    packed projections' distinct call edges, built once per result)."""
    return PackedProjections.of(result).call_sites


def object_universe(result: AnalysisResult, facts: FactBase) -> FrozenSet[str]:
    """All allocation sites in methods reachable in pass 1."""
    reachable = result.reachable_methods
    return frozenset(
        heap for _var, heap, meth in facts.alloc if meth in reachable
    )


def string_exclusion_decision(facts: FactBase) -> RefinementDecision:
    """Doop's documented hard-coded heuristic — "allocating strings ...
    context-insensitively" (paper Section 5) — expressed in the paper's own
    machinery: a *fixed* refinement decision excluding exactly the string
    constant heap objects.  This is the formal sense in which the paper's
    introspective approach subsumes the frameworks' hard-coded heuristics:
    each of them is one constant RefinementDecision, whereas introspection
    computes the decision from the program."""
    return RefinementDecision(
        excluded_objects=set(facts.string_const_heaps), excluded_sites=set()
    )


class Heuristic(ABC):
    """Strategy interface: metrics -> exclusion decision."""

    #: Label used in reports ("A", "B", ...).
    name: str = "?"

    @abstractmethod
    def decide(
        self,
        metrics: IntrospectionMetrics,
        facts: FactBase,
        pass1: AnalysisResult,
    ) -> RefinementDecision:
        """Return the refinement decision (exclusion sets)."""

    def describe(self) -> str:
        return f"Heuristic {self.name}"


@dataclass
class HeuristicA(Heuristic):
    """Paper Heuristic A: aggressive scalability (K, L, M thresholds)."""

    K: int = 100
    L: int = 100
    M: int = 200

    name = "A"

    def decide(
        self,
        metrics: IntrospectionMetrics,
        facts: FactBase,
        pass1: AnalysisResult,
    ) -> RefinementDecision:
        excluded_objects = {
            heap
            for heap in object_universe(pass1, facts)
            if metrics.pointed_by_vars.get(heap, 0) > self.K
        }
        excluded_sites = {
            (invo, meth)
            for invo, meth in call_site_universe(pass1)
            if metrics.in_flow.get(invo, 0) > self.L
            or metrics.max_var_field_pts.get(meth, 0) > self.M
        }
        return RefinementDecision(excluded_objects, excluded_sites)

    def describe(self) -> str:
        return f"Heuristic A (K={self.K}, L={self.L}, M={self.M})"


@dataclass
class HeuristicB(Heuristic):
    """Paper Heuristic B: selective, precision-preserving (P, Q thresholds)."""

    P: int = 10000
    Q: int = 10000

    name = "B"

    def decide(
        self,
        metrics: IntrospectionMetrics,
        facts: FactBase,
        pass1: AnalysisResult,
    ) -> RefinementDecision:
        excluded_sites = {
            (invo, meth)
            for invo, meth in call_site_universe(pass1)
            if metrics.total_pts_volume.get(meth, 0) > self.P
        }
        excluded_objects = {
            heap
            for heap in object_universe(pass1, facts)
            if metrics.object_weight(heap) > self.Q
        }
        return RefinementDecision(excluded_objects, excluded_sites)

    def describe(self) -> str:
        return f"Heuristic B (P={self.P}, Q={self.Q})"


@dataclass
class CustomHeuristic(Heuristic):
    """Compose a heuristic from arbitrary per-element predicates.

    ``exclude_object(heap, metrics)`` / ``exclude_site(invo, meth, metrics)``
    return True for elements to analyze cheaply.  Used by the metric
    ablation benchmarks to test each metric in isolation.
    """

    exclude_object: Callable[[str, IntrospectionMetrics], bool]
    exclude_site: Callable[[str, str, IntrospectionMetrics], bool]
    label: str = "custom"

    def __post_init__(self) -> None:
        self.name = self.label

    def decide(
        self,
        metrics: IntrospectionMetrics,
        facts: FactBase,
        pass1: AnalysisResult,
    ) -> RefinementDecision:
        excluded_objects = {
            heap
            for heap in object_universe(pass1, facts)
            if self.exclude_object(heap, metrics)
        }
        excluded_sites = {
            (invo, meth)
            for invo, meth in call_site_universe(pass1)
            if self.exclude_site(invo, meth, metrics)
        }
        return RefinementDecision(excluded_objects, excluded_sites)


class RefineEverything(Heuristic):
    """Degenerate heuristic: empty exclusions (the plain refined analysis).

    Useful as a sanity baseline: introspective + RefineEverything must equal
    the full context-sensitive analysis.
    """

    name = "all"

    def decide(
        self,
        metrics: IntrospectionMetrics,
        facts: FactBase,
        pass1: AnalysisResult,
    ) -> RefinementDecision:
        return RefinementDecision.refine_everything()
