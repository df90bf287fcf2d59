"""Warm edit sessions: edit scripts in, result deltas out.

An :class:`IncrementalSession` owns one evolving
:class:`~repro.fuzz.sketch.ProgramSketch` and one warm packed worklist
solver, and absorbs :class:`~repro.incremental.edits.EditScript`\\ s
without re-solving from scratch whenever the fact delta allows it.  Each
apply runs the tier ladder:

``noop``
    the edit changed no facts (e.g. adding then removing in one script);
    the previous result is returned untouched.
``monotonic``
    pure additions outside the hazard set: the solver replays only the
    delta bodies into its live worklist state
    (:meth:`~repro.analysis.solver.PointsToSolver.extend`).
``rederive``
    retractions of instruction and call-structure rows in methods that
    stay: delete-and-rederive on the warm solver
    (:meth:`~repro.analysis.solver.PointsToSolver.retract`), then the
    script's additions, if the monotonic rules accept them, with
    ``extend``.  The reason names the retracted relations and the
    over-deleted region (``rederive: FORMALRETURN; 19/3779 nodes``).
``full``
    other retractions, removed methods, an over-deleted region past
    :data:`~repro.analysis.solver.REDERIVE_MAX_SHARE`, hazard rows, or
    anything else the classifier refuses: the always-correct escape
    hatch, a fresh solve.

The write path is per method.  The session keeps every method's encoding
(a :class:`~repro.facts.encoder.MethodRows`); an apply re-encodes only
the methods the script's :class:`~repro.incremental.edits.Footprint`
makes dirty, assembles the new :class:`~repro.facts.encoder.FactBase`
from the cached rows with :func:`~repro.facts.encoder.assemble_facts`
(list-equal to ``encode_program``), and takes the
:class:`~repro.incremental.differ.FactDelta` from the dirty methods' old
and new rows alone (:func:`~repro.facts.encoder.method_rows_delta`, which
also keeps a shared string constant's ``HEAPTYPE``/``ALLOCCLASS`` rows
until its last use).  The dirty set grows past the edited bodies where
encoding crosses methods:

* an added or removed method is dirty, and so is every method with a
  static or special call on its signature (those rows resolve through
  ``Program.lookup``, which walks superclasses);
* the ``SUBTYPE``/``LOOKUP`` rows are re-derived when a class is added
  or removed, or when an added or removed method is an instance method
  or shares a signature with one (a static method can shadow an
  inherited instance method); otherwise they are reused;
* a class-level edit makes every method with a static or special call
  dirty (the hierarchy reaches no other row of a method);
* ``REACHABLEROOT`` enters the delta when the entry points changed.

The post-edit :class:`~repro.ir.program.Program` is per method too.  A
script that declares or removes no class and no field is applied with
:meth:`Program.derive <repro.ir.program.Program.derive>`: only the
methods it edited, added or removed are rebuilt from the sketch, the
rest is shared with the previous program, and only the dirty methods
(the same set the encoding uses) and the entry points are re-validated.
A class or field edit rebuilds and re-validates the whole program with
``ProgramSketch.build``.  A failed build or solve leaves the program,
the row cache, :attr:`facts` and the warm solver as they were.

Every apply returns an :class:`EditOutcome` carrying the tier taken, the
fact delta, *result* deltas (added/removed tuples per output relation;
the warm tiers take them from the solver, ``full`` from two relation
differences), and timing split into delta-apply (edit + build or derive
+ encoding the dirty methods + assembly + delta + classify) and solve;
the fact digest is computed when first read.  Equality with a
from-scratch solve is enforced by the ``incremental-equivalence`` fuzz
oracle and the bench harness; if a warm tier's belt-and-braces guards
refuse a delta the session falls back to ``full`` and says so in the
outcome reason.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..analysis.solver import PointsToSolver
from ..contexts.policies import policy_by_name
from ..facts.encoder import (
    FactBase,
    MethodRows,
    assemble_facts,
    encode_program,
    method_rows_delta,
    type_rows,
)
from ..fuzz.oracles import solver_relations
from ..fuzz.sketch import ProgramSketch
from ..ir.program import Method, Program
from ..ir.validate import validate_program
from ..utils import Stopwatch
# ``diff_facts`` is not called here; it stays importable from this module
# because the benchmark's traced run wraps the module's names.
from .differ import FactDelta, classify_delta, diff_facts  # noqa: F401
from .edits import Edit, EditScript, Footprint

__all__ = ["EditOutcome", "IncrementalSession", "RESULT_RELATIONS"]

#: The five output relations every outcome reports deltas over (the same
#: canonical string-level relations the fuzz oracles compare).
RESULT_RELATIONS = (
    "VARPOINTSTO",
    "FLDPOINTSTO",
    "CALLGRAPH",
    "REACHABLE",
    "THROWPOINTSTO",
)

#: Internal relation store: plain mutable sets so the solver's monotonic
#: fast path can union its reported additions in place (O(delta)) instead
#: of rebuilding O(result) frozensets per edit.
Relations = Dict[str, set]

#: A result delta as the solver reports it: (added, removed) tuples per
#: output relation.
ResultDelta = Tuple[Dict[str, FrozenSet[tuple]], Dict[str, FrozenSet[tuple]]]


def _instance_sigs(program: Program) -> FrozenSet[str]:
    return frozenset(m.sig for m in program.methods() if not m.is_static)


def _present(program: Program, ids: Iterable[str]) -> Dict[str, Method]:
    """The methods of ``program`` among ``ids``, by id."""
    found: Dict[str, Method] = {}
    for mid in ids:
        try:
            found[mid] = program.method(mid)
        except KeyError:
            pass
    return found


def _jsonify(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonify(v) for v in value]
    return value


@dataclass(frozen=True)
class EditOutcome:
    """What one :meth:`IncrementalSession.apply` did, and what changed."""

    tier: str  # "noop" | "monotonic" | "rederive" | "full"
    reason: str
    delta: FactDelta
    apply_seconds: float
    solve_seconds: float
    facts: FactBase = field(repr=False, compare=False)
    result_added: Dict[str, FrozenSet[tuple]]
    result_removed: Dict[str, FrozenSet[tuple]]

    @cached_property
    def digest(self) -> str:
        """The post-edit :meth:`FactBase.digest`, computed on first read."""
        return self.facts.digest()

    @property
    def result_rows_added(self) -> int:
        return sum(len(rows) for rows in self.result_added.values())

    @property
    def result_rows_removed(self) -> int:
        return sum(len(rows) for rows in self.result_removed.values())

    def summary(self) -> str:
        return (
            f"{self.tier}: facts {self.delta.summary()}; results "
            f"+{self.result_rows_added}/-{self.result_rows_removed} in "
            f"{self.solve_seconds * 1000:.1f}ms"
        )

    def to_payload(self, max_rows_per_relation: int = 50) -> dict:
        """JSON-serializable view (rows capped per relation, count exact)."""

        def rows_payload(
            per_rel: Dict[str, FrozenSet[tuple]]
        ) -> Dict[str, dict]:
            out = {}
            for name in sorted(per_rel):
                rows = sorted(per_rel[name], key=repr)
                out[name] = {
                    "count": len(rows),
                    "rows": [_jsonify(r) for r in rows[:max_rows_per_relation]],
                }
            return out

        return {
            "tier": self.tier,
            "reason": self.reason,
            "digest": self.digest,
            "fact_delta": {
                "rows_added": self.delta.rows_added,
                "rows_removed": self.delta.rows_removed,
                "relations": sorted(self.delta.touched()),
            },
            "timing": {
                "apply_seconds": round(self.apply_seconds, 6),
                "solve_seconds": round(self.solve_seconds, 6),
            },
            "result_delta": {
                "added": rows_payload(self.result_added),
                "removed": rows_payload(self.result_removed),
            },
        }


class IncrementalSession:
    """One warm analysis kept alive across a sequence of edits."""

    def __init__(
        self,
        sketch: ProgramSketch,
        analysis: str = "insens",
        max_tuples: Optional[int] = None,
    ) -> None:
        self.analysis = analysis
        self.max_tuples = max_tuples
        self.sketch = sketch.clone()
        self.program: Program = self.sketch.build()
        # The row cache: every method's encoding, by method id.
        self._methods: Dict[str, MethodRows] = {
            m.id: MethodRows(self.program, m) for m in self.program.methods()
        }
        self._instance_sigs = _instance_sigs(self.program)
        self.facts: FactBase = self._assemble(
            self.program, {}, *type_rows(self.program)
        )
        # The policy binds alloc_class_of at construction; a session-owned
        # dict (grown from each delta, before each solve) keeps it fresh.
        # An alloc site's declaring class never changes while the site id
        # exists, so stale entries are never *wrong*.
        self._alloc_class: Dict[str, str] = dict(self.facts.alloc_class)
        self._policy = policy_by_name(
            analysis, alloc_class_of=self._alloc_class.__getitem__
        )
        self._solver: Optional[PointsToSolver] = None
        self.edits_applied = 0
        self.tier_counts: Dict[str, int] = {}
        sw = Stopwatch()
        self._relations: Relations = self._solve_fresh(self.program, self.facts)
        self.initial_solve_seconds = sw.elapsed()

    # ------------------------------------------------------------------
    # The per-method write path
    # ------------------------------------------------------------------
    def _dirty(self, footprint: Footprint) -> Set[str]:
        """The ids of the methods whose rows or validity ``footprint``
        can change (some may be gone from the new program)."""
        changed = footprint.methods
        dirty = footprint.bodies | changed.keys()
        sigs = {sig for sig, _static in changed.values()}
        if footprint.classes:
            # The hierarchy reaches a method's rows only through the
            # callees its static and special calls resolve to.
            dirty.update(
                mid for mid, cached in self._methods.items() if cached.call_sigs
            )
        elif sigs:
            dirty.update(
                mid
                for mid, cached in self._methods.items()
                if not cached.call_sigs.isdisjoint(sigs)
            )
        return dirty

    def _build(self, footprint: Footprint, dirty: Set[str]) -> Program:
        """The post-edit program, validated.

        A class or field edit rebuilds it from the sketch.  Any other
        script derives it from :attr:`program`: only the methods the
        script edited, added or removed are rebuilt, and only the dirty
        methods (and the entry points) are re-validated — with classes
        and fields unchanged, no other method's validity can move.
        """
        if footprint.classes or footprint.fields:
            return self.sketch.build()
        touched = footprint.bodies | footprint.methods.keys()
        old = self.program
        program = old.derive(
            [
                Method(
                    ms.class_name,
                    ms.name,
                    tuple(ms.params),
                    tuple(ms.instructions),
                    ms.is_static,
                )
                for ms in self.sketch.methods
                if ms.id in touched
            ],
            # Each removed method; one re-added in the script moves to
            # the end of its class, as in a build from the sketch.
            [mid for mid in footprint.methods if mid in self._methods],
            self.sketch.entry_points,
        )
        validate_program(program, _present(program, dirty).values())
        return program

    def _encode_dirty(
        self, program: Program, footprint: Footprint, dirty: Set[str]
    ) -> Tuple[Dict[str, Optional[MethodRows]], bool]:
        """Re-encode the ``dirty`` methods.

        Returns the fresh rows by method id (``None``: the method is
        gone) and whether the SUBTYPE/LOOKUP rows must be re-derived.
        """
        retype = footprint.classes or any(
            not static or sig in self._instance_sigs
            for sig, static in footprint.methods.values()
        )
        present = _present(program, dirty)
        fresh: Dict[str, Optional[MethodRows]] = {
            mid: MethodRows(program, method) for mid, method in present.items()
        }
        for mid in dirty - present.keys():
            # Gone, unless it came and went within the script.
            if mid in self._methods:
                fresh[mid] = None
        return fresh, retype

    def _assemble(
        self,
        program: Program,
        fresh: Mapping[str, Optional[MethodRows]],
        subtype: List[tuple],
        lookup: List[tuple],
    ) -> FactBase:
        """The whole fact base: the cached rows, ``fresh`` overriding
        them, in ``program.methods()`` order."""
        cache = self._methods
        return assemble_facts(
            program,
            [fresh.get(m.id) or cache[m.id] for m in program.methods()],
            subtype,
            lookup,
        )

    def _delta(
        self,
        fresh: Mapping[str, Optional[MethodRows]],
        facts: FactBase,
        retype: bool,
        reroot: bool,
    ) -> FactDelta:
        """The fact delta from the dirty methods' old and new rows (plus
        the type and root rows when those were re-derived)."""
        old = self.facts
        added, removed = method_rows_delta(
            [self._methods[mid] for mid in fresh if mid in self._methods],
            [entry for entry in fresh.values() if entry is not None],
            old,
            facts,
        )
        rederived = ("subtype", "lookup") if retype else ()
        if reroot:
            rederived += ("reachableroot",)
        for name in rederived:
            was = set(getattr(old, name))
            now = set(getattr(facts, name))
            if now - was:
                added[name] = now - was
            if was - now:
                removed[name] = was - now
        return FactDelta(
            added={name.upper(): frozenset(rows) for name, rows in added.items()},
            removed={name.upper(): frozenset(rows) for name, rows in removed.items()},
        )

    # ------------------------------------------------------------------
    # Solver plumbing
    # ------------------------------------------------------------------
    def _solve_fresh(self, program: Program, facts: FactBase) -> Relations:
        self._solver = PointsToSolver(
            program, self._policy, facts=facts, max_tuples=self.max_tuples
        )
        return {
            name: set(rows)
            for name, rows in zip(
                RESULT_RELATIONS, solver_relations(self._solver.solve())
            )
        }

    def _warm(
        self,
        tier: str,
        program: Program,
        facts: FactBase,
        delta: FactDelta,
        reason: str,
    ) -> Tuple[ResultDelta, str]:
        """The ``monotonic`` or ``rederive`` tier on the warm solver.

        A rederive takes the retractions out first
        (:meth:`~repro.analysis.solver.PointsToSolver.retract`), then
        replays the additions (:meth:`~repro.analysis.solver.PointsToSolver.extend`).
        Both report their result delta natively, so the cached sets are
        updated in place and the returned ``(added, removed)`` are exact
        without any full-relation comparison.  Returns them with the
        outcome's reason.
        """
        solver = self._solver
        assert solver is not None
        lost: Dict[str, FrozenSet[tuple]] = {}
        if tier == "rederive":
            retraction = solver.retract(program, facts, delta.removed)
            lost = retraction.removed
            reason = (
                f"rederive: {reason}; {retraction.region}/{retraction.nodes} nodes"
            )
        gained = solver.extend(program, facts, delta.added) if delta.added else {}
        added: Dict[str, FrozenSet[tuple]] = {}
        removed: Dict[str, FrozenSet[tuple]] = {}
        for name in RESULT_RELATIONS:
            minus = lost.get(name, frozenset())
            plus = gained.get(name, frozenset())
            rows = self._relations[name]
            if minus:
                rows -= minus
                # a tuple retracted and re-derived by the additions stays
                removed[name] = minus - plus
            if plus:
                rows |= plus
                added[name] = plus - minus
        return (added, removed), reason

    # ------------------------------------------------------------------
    # The session API
    # ------------------------------------------------------------------
    def relations(self) -> Dict[str, FrozenSet[tuple]]:
        """The current five output relations (string level).

        Defensive frozen copies: the session mutates its internal sets in
        place on monotonic edits, and callers hold results across edits.
        """
        return {name: frozenset(rows) for name, rows in self._relations.items()}

    def apply(
        self, edits: Union[EditScript, Iterable[Edit]]
    ) -> EditOutcome:
        """Apply an edit script and bring the result to the new fixpoint.

        On a failed edit or an invalid resulting program the sketch is
        rolled back and the exception propagates; the session stays at
        its previous consistent state.
        """
        script = (
            edits if isinstance(edits, EditScript) else EditScript(list(edits))
        )
        sw = Stopwatch()
        inverse = script.apply(self.sketch)
        footprint = inverse.footprint
        try:
            dirty = self._dirty(footprint)
            program = self._build(footprint, dirty)
            fresh, retype = self._encode_dirty(program, footprint, dirty)
            types = (
                type_rows(program)
                if retype
                else (self.facts.subtype, self.facts.lookup)
            )
            facts = self._assemble(program, fresh, *types)
            delta = self._delta(fresh, facts, retype, footprint.entry_points)
        except Exception:
            inverse.apply(self.sketch)
            raise
        # The old fact base's maps are the old method and call-site ids.
        tier, reason = classify_delta(
            delta,
            self.facts.vars_of_method.keys(),
            self.facts.method_of_invo.keys(),
            removed_methods={mid for mid, entry in fresh.items() if entry is None},
        )
        # Policies read alloc_class_of during the solve below.
        self._alloc_class.update(delta.added.get("ALLOCCLASS", ()))
        apply_seconds = sw.elapsed()

        sw.restart()
        old_relations = self._relations
        # The solver-reported result delta; None means a fresh solve.
        changes: Optional[ResultDelta] = None
        try:
            if tier == "noop":
                changes = ({}, {})
            elif tier in ("monotonic", "rederive"):
                try:
                    changes, reason = self._warm(tier, program, facts, delta, reason)
                except ValueError as exc:
                    # A warm path's guard refused the delta the classifier
                    # accepted: fall back to the escape hatch and say so.
                    if tier == "rederive":
                        reason = f"rederive refused ({exc}); retractions in {reason}"
                    else:
                        reason = f"fast path refused ({exc}); {reason}"
                    tier = "full"
            if changes is None:
                self._relations = self._solve_fresh(program, facts)
        except Exception:
            # The solve itself failed (e.g. a tuple-budget trip mid
            # extension), possibly leaving the warm solver inconsistent.
            # Revert the sketch and rebuild the warm state at the old
            # program so the session survives; then let the error out.
            # The row cache and ``facts`` were not yet touched.
            inverse.apply(self.sketch)
            self._relations = self._solve_fresh(self.program, self.facts)
            raise
        solve_seconds = sw.elapsed()

        for mid, entry in fresh.items():
            if entry is None:
                del self._methods[mid]
            else:
                self._methods[mid] = entry
        if retype:
            self._instance_sigs = _instance_sigs(program)
        self.program = program
        self.facts = facts
        self.edits_applied += len(script)
        self.tier_counts[tier] = self.tier_counts.get(tier, 0) + 1

        result_added: Dict[str, FrozenSet[tuple]] = {}
        result_removed: Dict[str, FrozenSet[tuple]] = {}
        if changes is not None:
            # Solver-reported delta (warm tiers / noop): exact by
            # construction — every fuzz-oracle equivalence check also
            # revalidates it — and O(delta) where the full comparison
            # below is O(result).
            for out, rows in zip((result_added, result_removed), changes):
                for name, part in rows.items():
                    if part:
                        out[name] = part
        else:
            relations = self._relations
            for name in RESULT_RELATIONS:
                plus = relations[name] - old_relations[name]
                minus = old_relations[name] - relations[name]
                if plus:
                    result_added[name] = frozenset(plus)
                if minus:
                    result_removed[name] = frozenset(minus)
        return EditOutcome(
            tier=tier,
            reason=reason,
            delta=delta,
            apply_seconds=apply_seconds,
            solve_seconds=solve_seconds,
            facts=facts,
            result_added=result_added,
            result_removed=result_removed,
        )

    def check_against_scratch(self) -> List[str]:
        """Compare the warm result to a from-scratch solve; returns the
        names of mismatching relations (empty = equivalent).  Test/bench
        helper — a real session never needs it."""
        program = self.sketch.build()
        facts = encode_program(program)
        policy = policy_by_name(
            self.analysis, alloc_class_of=facts.alloc_class_of
        )
        raw = PointsToSolver(
            program, policy, facts=facts, max_tuples=self.max_tuples
        ).solve()
        scratch = dict(zip(RESULT_RELATIONS, solver_relations(raw)))
        return [
            name
            for name in RESULT_RELATIONS
            if scratch[name] != self._relations[name]
        ]
