"""Fact deltas: what an edit means to the engines, and which tier absorbs it.

A :class:`FactDelta` holds per-relation EDB row additions and
retractions.  The edit model describes intent, the delta describes
consequence (a one-line source edit can renumber later site ids and show
up as removals).  An :class:`~repro.incremental.session.IncrementalSession`
takes its delta from the old and new rows of the methods an edit made
dirty; :func:`diff_facts` is the whole-base reference it is held to —
it compares two :class:`~repro.facts.encoder.FactBase` snapshots
(before/after an edit) relation by relation.

:func:`classify_delta` then decides which incremental tier can absorb the
delta:

* ``monotonic`` — pure additions outside the hazard set; the packed
  solver can extend its prior fixpoint by replaying only the delta into
  its worklist.
* ``rederive`` — retractions confined to :data:`REDERIVE_RELATIONS`
  (instruction and call-structure rows of methods that stay), plus any
  additions the monotonic rules accept.  Deletion from a least fixpoint
  is non-monotonic, so the solver over-deletes what the retracted rows
  could have fed and re-derives what still holds.
* ``full`` — retractions outside that set or of a removed method, rows
  in :data:`MONOTONIC_HAZARDS` (relations that feed negation or cached
  type-hierarchy state), or structural rows attached to pre-existing
  methods: a whole-analysis solve.

The hazard set is *derived* facts for the Datalog model: an EDB addition
is unsafe iff its relation can transitively derive into a negated
predicate (see :func:`negation_tainted`); a test pins the frozen constant
to the derivation.  The packed solver adds two hazards of its own:
``SUBTYPE`` rows would stale its incremental cast-filter index, and
``CATCHCLAUSE`` rows re-route exceptions that already escaped (the same
negation, operationally).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Mapping, Optional, Set, Tuple

from ..analysis.solver import REDERIVE_RELATIONS
from ..datalog.rules import RuleProgram
from ..datalog.terms import Atom
from ..facts.encoder import FactBase

__all__ = [
    "FactDelta",
    "MONOTONIC_HAZARDS",
    "REDERIVE_RELATIONS",
    "classify_delta",
    "diff_facts",
    "negation_tainted",
]

#: EDB relations whose *additions* are not monotonic for either engine:
#: they feed negated predicates in the Datalog model (CAUGHTTYPE and the
#: complement-polarity refinement gates) or cached hierarchy state in the
#: packed solver.  Any delta touching these recomputes.
MONOTONIC_HAZARDS: FrozenSet[str] = frozenset(
    {
        "CATCHCLAUSE",
        "SUBTYPE",
        "SITENOTTOREFINE",
        "OBJECTNOTTOREFINE",
    }
)


def negation_tainted(program: RuleProgram) -> FrozenSet[str]:
    """Predicates whose growth can shrink some derived relation.

    Seeds with every negated predicate (and every aggregate-body
    predicate — aggregates are implicit negation), then walks rule
    dependencies *backwards*: if a rule's head is tainted, every positive
    body predicate that can feed it is tainted too.  EDB additions
    outside this set can only ever add derived tuples, which is what the
    monotonic fast path requires.
    """
    tainted: Set[str] = set()
    for rule in program.rules:
        tainted |= rule.negated_preds()
    for agg in program.aggregates:
        tainted |= agg.body_preds()
        tainted |= agg.head_preds()
    changed = True
    while changed:
        changed = False
        for rule in program.rules:
            if rule.head_preds() & tainted:
                for lit in rule.body:
                    if isinstance(lit, Atom) and lit.pred not in tainted:
                        tainted.add(lit.pred)
                        changed = True
    return frozenset(tainted)


#: Relations binding structure onto an existing method.  Additions are
#: only monotonic when the owning method is itself new — a new formal on
#: an old method would have to re-bind arguments over call edges that
#: were already linked.
_METHOD_STRUCTURE = ("FORMALARG", "FORMALRETURN", "THISVAR")

#: Same idea for call sites: the solver freezes a site's argument/return
#: wiring into its consumer tuples when the site first becomes reachable,
#: so new actuals on an old invocation would leave stale consumers.
_CALL_STRUCTURE = ("ACTUALARG", "ACTUALRETURN")


@dataclass(frozen=True)
class FactDelta:
    """Per-relation EDB row additions and retractions."""

    added: Mapping[str, FrozenSet[tuple]]
    removed: Mapping[str, FrozenSet[tuple]]

    @property
    def is_empty(self) -> bool:
        return not self.added and not self.removed

    @property
    def rows_added(self) -> int:
        return sum(len(rows) for rows in self.added.values())

    @property
    def rows_removed(self) -> int:
        return sum(len(rows) for rows in self.removed.values())

    def touched(self) -> FrozenSet[str]:
        """Names of every relation with any added or removed row."""
        return frozenset(self.added) | frozenset(self.removed)

    def summary(self) -> str:
        return (
            f"+{self.rows_added}/-{self.rows_removed} rows over "
            f"{len(self.touched())} relations"
        )


def diff_facts(old: FactBase, new: FactBase) -> FactDelta:
    """Row-level set difference of two fact bases, per relation."""
    old_rel = {k: set(v) for k, v in old.as_relation_dict().items()}
    new_rel = {k: set(v) for k, v in new.as_relation_dict().items()}
    added: Dict[str, FrozenSet[tuple]] = {}
    removed: Dict[str, FrozenSet[tuple]] = {}
    for name in set(old_rel) | set(new_rel):
        before = old_rel.get(name, set())
        after = new_rel.get(name, set())
        plus = after - before
        minus = before - after
        if plus:
            added[name] = frozenset(plus)
        if minus:
            removed[name] = frozenset(minus)
    return FactDelta(added=added, removed=removed)


def _additions_refusal(
    delta: FactDelta,
    old_method_ids: AbstractSet[str],
    old_invo_ids: AbstractSet[str],
    hazards: FrozenSet[str],
) -> Optional[str]:
    """Why the monotonic rules refuse ``delta``'s additions (``None``:
    they accept them)."""
    hot = sorted(set(delta.added) & hazards)
    if hot:
        return f"additions to hazard relations: {', '.join(hot)}"
    for name in _METHOD_STRUCTURE:
        stale = {
            row[0] for row in delta.added.get(name, ()) if row[0] in old_method_ids
        }
        if stale:
            return (
                f"{name} additions on pre-existing methods: "
                f"{', '.join(sorted(stale))}"
            )
    for name in _CALL_STRUCTURE:
        stale = {
            row[0] for row in delta.added.get(name, ()) if row[0] in old_invo_ids
        }
        if stale:
            return (
                f"{name} additions on pre-existing call sites: "
                f"{', '.join(sorted(stale))}"
            )
    return None


def classify_delta(
    delta: FactDelta,
    old_method_ids: AbstractSet[str],
    old_invo_ids: AbstractSet[str] = frozenset(),
    hazards: FrozenSet[str] = MONOTONIC_HAZARDS,
    removed_methods: AbstractSet[str] = frozenset(),
) -> Tuple[str, str]:
    """Pick the cheapest sound tier for a delta.

    Returns ``(tier, reason)`` where tier is ``"noop"``, ``"monotonic"``,
    ``"rederive"`` or ``"full"`` (a fresh solve) and the reason is a
    short human-readable explanation (surfaced in session outcomes and
    the service API).  ``removed_methods`` names the methods the edit
    deleted outright.  A ``rederive`` reason is the retracted relations'
    names; the session adds the over-deleted region to it.
    """
    if delta.is_empty:
        return "noop", "no fact changes"
    refusal = _additions_refusal(delta, old_method_ids, old_invo_ids, hazards)
    if delta.removed:
        if removed_methods:
            return "full", f"removed methods: {', '.join(sorted(removed_methods))}"
        names = sorted(delta.removed)
        blocked = [name for name in names if name not in REDERIVE_RELATIONS]
        if blocked:
            return "full", f"retractions in {', '.join(blocked)} cannot be rederived"
        if refusal is not None:
            return "full", f"retractions with {refusal}"
        return "rederive", ", ".join(names)
    if refusal is not None:
        return "full", refusal
    return "monotonic", f"pure additions ({delta.rows_added} rows)"
