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
(a :class:`~repro.facts.encoder.MethodRows`), the number of methods using
each shared string constant, and the current ``SUBTYPE``/``LOOKUP`` rows.
An apply re-encodes only the methods the script's
:class:`~repro.incremental.edits.Footprint` makes dirty and takes the
:class:`~repro.incremental.differ.FactDelta` from the dirty methods' old
and new rows alone (:func:`~repro.facts.encoder.method_rows_delta`; the
use counts say when a shared string constant's ``HEAPTYPE``/``ALLOCCLASS``
rows come and go).  The classifier's pre-existing methods are the row
cache's keys, and its pre-existing call sites those of the dirty
methods' old rows (a site id names its method), so a warm apply does
work in the size of the edit, not of the program.

The solver reads no method's rows.  It reads a
:class:`~repro.analysis.pack.PackedProgram`, built at set-up and by each
``full`` re-solve, that moves with the program on the warm tiers
(:meth:`~repro.analysis.pack.PackedProgram.recompile`): it takes the
dirty methods' new bodies, and of the delta only ``HEAPTYPE`` removals
and ``LOOKUP`` and ``REACHABLEROOT`` additions.

No apply assembles a :class:`~repro.facts.encoder.FactBase`.
:attr:`IncrementalSession.facts` and
:attr:`EditOutcome.facts` (with its ``digest``) are built on first read
with :func:`~repro.facts.encoder.assemble_facts` from that edit's rows,
list-equal to ``encode_program`` of that edit's program, however many
edits came after.  Each edit leaves behind only the cache entries it
replaced, so an outcome nobody reads costs O(edit) to keep.  The dirty
set grows past the edited bodies where encoding crosses methods:

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
the session's caches, :attr:`facts` and the warm solver as they were.

The five output relations are each stored once, as a frozen base plus
the rows added and removed since (refrozen past :data:`REFREEZE_SHARE`
of the base); :meth:`IncrementalSession.relations` hands out immutable
:class:`RelationView`\\ s over them at O(delta) a read.

Every apply returns an :class:`EditOutcome` carrying the tier taken, the
fact delta, *result* deltas (added/removed tuples per output relation;
the warm tiers take them from the solver, ``full`` from two relation
differences), and timing split into delta-apply (edit + build or derive
+ encoding the dirty methods + delta + classify) and solve (which
includes the packed program's move); the fact base and its digest are
built when first read.  Equality with a
from-scratch solve is enforced by the ``incremental-equivalence`` fuzz
oracle and the bench harness; if a warm tier's belt-and-braces guards
refuse a delta the session falls back to ``full`` and says so in the
outcome reason.
"""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, filterfalse
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from ..analysis.pack import PackedProgram
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

__all__ = ["EditOutcome", "IncrementalSession", "RESULT_RELATIONS", "RelationView"]

#: The five output relations every outcome reports deltas over (the same
#: canonical string-level relations the fuzz oracles compare).
RESULT_RELATIONS = (
    "VARPOINTSTO",
    "FLDPOINTSTO",
    "CALLGRAPH",
    "REACHABLE",
    "THROWPOINTSTO",
)

#: The share of a relation's frozen base its overlay (the rows added and
#: removed since the base was frozen) may reach before the base is
#: refrozen.  A read copies the overlay and a refreeze copies the whole
#: relation, so a small share keeps reads cheap and a large one makes
#: refreezes rare.
REFREEZE_SHARE = 0.125

#: A result delta as the solver reports it: (added, removed) tuples per
#: output relation.
ResultDelta = Tuple[Dict[str, FrozenSet[tuple]], Dict[str, FrozenSet[tuple]]]


#: A set of rows, frozen or not.
Rows = Union[Set[tuple], FrozenSet[tuple]]


def _fold(base: FrozenSet[tuple], added: Rows, removed: Rows) -> FrozenSet[tuple]:
    """``base`` less ``removed`` plus ``added``, copied only if either
    is non-empty."""
    rows = base - removed if removed else base
    return rows | added if added else rows


class RelationView(AbstractSet):
    """One output relation as it was when read: immutable, and never
    changed by later edits.

    A frozen base less the rows removed since it was frozen, plus the
    rows added since.  ``in`` and ``len`` cost O(1); iteration, equality
    and set algebra (whose results are ``frozenset``\\ s) cost what they
    would on a ``frozenset`` of the same rows.
    """

    __slots__ = ("_base", "_added", "_removed")

    def __init__(
        self,
        base: FrozenSet[tuple],
        added: FrozenSet[tuple],
        removed: FrozenSet[tuple],
    ) -> None:
        # added is disjoint from base; removed is a subset of it
        self._base = base
        self._added = added
        self._removed = removed

    def __contains__(self, row: object) -> bool:
        return row in self._added or (
            row in self._base and row not in self._removed
        )

    def __len__(self) -> int:
        return len(self._base) - len(self._removed) + len(self._added)

    def __iter__(self) -> Iterator[tuple]:
        if self._removed:
            kept = filterfalse(self._removed.__contains__, self._base)
            return chain(kept, self._added)
        return chain(self._base, self._added)

    def __repr__(self) -> str:
        return f"RelationView({set(self)!r})"

    def frozen(self) -> FrozenSet[tuple]:
        """The rows as a ``frozenset`` (the base itself when nothing
        changed since it was frozen)."""
        return _fold(self._base, self._added, self._removed)

    @classmethod
    def _from_iterable(cls, rows: Iterable[tuple]) -> FrozenSet[tuple]:
        return frozenset(rows)

    def __le__(self, other: object) -> bool:
        if isinstance(other, RelationView):
            other = other.frozen()
        if isinstance(other, (set, frozenset)):
            # base - removed <= other  iff  base - other <= removed
            return other.issuperset(self._added) and (
                self._base.difference(other) <= self._removed
            )
        if not isinstance(other, AbstractSet):
            return NotImplemented
        return all(row in other for row in self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractSet):
            return NotImplemented
        return len(self) == len(other) and self <= other

    def _operand(self, other: object) -> Optional[Rows]:
        if isinstance(other, RelationView):
            return other.frozen()
        if isinstance(other, (set, frozenset)):
            return other
        if isinstance(other, AbstractSet):
            return frozenset(other)
        return None

    def __sub__(self, other: object) -> FrozenSet[tuple]:
        rows = self._operand(other)
        return NotImplemented if rows is None else self.frozen() - rows

    def __rsub__(self, other: object) -> FrozenSet[tuple]:
        rows = self._operand(other)
        return NotImplemented if rows is None else frozenset(rows) - self.frozen()

    def __or__(self, other: object) -> FrozenSet[tuple]:
        rows = self._operand(other)
        return NotImplemented if rows is None else self.frozen() | rows

    def __and__(self, other: object) -> FrozenSet[tuple]:
        rows = self._operand(other)
        return NotImplemented if rows is None else self.frozen() & rows

    def __xor__(self, other: object) -> FrozenSet[tuple]:
        rows = self._operand(other)
        return NotImplemented if rows is None else self.frozen() ^ rows

    __ror__ = __or__
    __rand__ = __and__
    __rxor__ = __xor__


class _Relation:
    """The session's store of one output relation: a frozen base and the
    rows added and removed since, refrozen once those pass
    :data:`REFREEZE_SHARE` of the base.  Reads share one view until the
    next change."""

    __slots__ = ("base", "added", "removed", "_view")

    def __init__(self, rows: FrozenSet[tuple]) -> None:
        self.base = rows
        self.added: Set[tuple] = set()  # not in base
        self.removed: Set[tuple] = set()  # in base
        self._view: Optional[RelationView] = None

    def view(self) -> RelationView:
        if self._view is None:
            self._view = RelationView(
                self.base, frozenset(self.added), frozenset(self.removed)
            )
        return self._view

    def update(self, plus: FrozenSet[tuple], minus: FrozenSet[tuple]) -> None:
        """Take out the rows of ``minus`` (all present) and put in those
        of ``plus`` (all absent)."""
        if not plus and not minus:
            return
        self._view = None
        base = self.base
        self.added -= minus
        self.removed |= minus & base
        self.removed -= plus
        self.added |= plus - base
        if len(self.added) + len(self.removed) > REFREEZE_SHARE * len(base):
            self.base = _fold(base, self.added, self.removed)
            self.added = set()
            self.removed = set()


#: The session's five relations, by name.
Relations = Dict[str, _Relation]


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


class _Epoch:
    """One state of a session's row cache, as a link in a chain.

    The newest epoch is the live cache itself.  When an edit replaces
    cache entries, the epoch it leaves behind keeps just those entries
    (``replaced``: method id to its old rows) and a link to the epoch
    after it, so an older state is the live cache with each later edit's
    replacements undone.  Epochs hold no program, so a snapshot kept
    alive does not keep the programs of the edits after it.
    """

    __slots__ = ("replaced", "newer")

    def __init__(self) -> None:
        self.replaced: Dict[str, MethodRows] = {}
        self.newer: Optional[_Epoch] = None


class _Snapshot:
    """The fact base of one edit's program, assembled on first read.

    Holds the program, its SUBTYPE/LOOKUP rows and the epoch of the row
    cache it was taken at; none of them is copied, so taking one costs
    O(1).
    """

    __slots__ = ("program", "types", "epoch", "cache", "_facts")

    def __init__(
        self,
        program: Program,
        types: Tuple[List[tuple], List[tuple]],
        epoch: _Epoch,
        cache: Mapping[str, MethodRows],
    ) -> None:
        self.program = program
        self.types = types
        self.epoch = epoch
        self.cache = cache
        self._facts: Optional[FactBase] = None

    def facts(self) -> FactBase:
        if self._facts is None:
            # The entry a method had at this epoch is the first one a later
            # edit replaced, or the live one if none did.
            rows: Dict[str, MethodRows] = {}
            epoch = self.epoch
            while epoch.newer is not None:
                for mid, entry in epoch.replaced.items():
                    rows.setdefault(mid, entry)
                epoch = epoch.newer
            self._facts = assemble_facts(
                self.program,
                [rows.get(m.id) or self.cache[m.id] for m in self.program.methods()],
                *self.types,
            )
        return self._facts


@dataclass(frozen=True)
class EditOutcome:
    """What one :meth:`IncrementalSession.apply` did, and what changed."""

    tier: str  # "noop" | "monotonic" | "rederive" | "full"
    reason: str
    delta: FactDelta
    apply_seconds: float
    solve_seconds: float
    snapshot: _Snapshot = field(repr=False, compare=False)
    result_added: Dict[str, FrozenSet[tuple]]
    result_removed: Dict[str, FrozenSet[tuple]]

    @property
    def facts(self) -> FactBase:
        """The post-edit :class:`FactBase`, assembled on first read."""
        return self.snapshot.facts()

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
    """One warm analysis kept alive across a sequence of edits.

    Not thread-safe: an apply updates caches that a first read of a
    fact base walks, so callers serialise both (the service holds one
    lock per session).
    """

    def __init__(
        self,
        sketch: ProgramSketch,
        analysis: str = "insens",
        max_tuples: Optional[int] = None,
    ) -> None:
        self.analysis = analysis
        self.max_tuples = max_tuples
        self.sketch = sketch.clone()
        program = self.program = self.sketch.build()
        # The row cache: every method's encoding, by method id, with the
        # number of methods using each shared string constant.
        self._methods: Dict[str, MethodRows] = {}
        self._string_uses: Dict[str, int] = {}
        # Signature -> ids of the cached methods whose static or special
        # calls resolve to a method of that signature.
        self._sig_callers: Dict[str, Set[str]] = {}
        uses = self._string_uses
        for m in program.methods():
            entry = self._methods[m.id] = MethodRows(program, m)
            for heap in entry.strings:
                uses[heap] = uses.get(heap, 0) + 1
            for sig in entry.call_sigs:
                self._sig_callers.setdefault(sig, set()).add(m.id)
        self._instance_sigs = _instance_sigs(program)
        self._types = type_rows(program)
        self._epoch = _Epoch()
        self._snapshot = _Snapshot(program, self._types, self._epoch, self._methods)
        self._pack: Optional[PackedProgram] = None
        self._solver: Optional[PointsToSolver] = None
        self.edits_applied = 0
        self.tier_counts: Dict[str, int] = {}
        sw = Stopwatch()
        self._relations: Relations = self._solve_fresh(program)
        self.initial_solve_seconds = sw.elapsed()

    @property
    def facts(self) -> FactBase:
        """The current :class:`FactBase`, assembled on first read."""
        return self._snapshot.facts()

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
        else:
            for sig in sigs:
                dirty.update(self._sig_callers.get(sig, ()))
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
        sketch = self.sketch
        # A method with only its body edited keeps its place, whatever the
        # order; an added one goes to the end of its class in the order
        # given, which must be the sketch's, as in a build from it.
        kept = map(sketch.method_by_id, footprint.bodies - footprint.methods.keys())
        added = [ms for ms in map(sketch.method_by_id, footprint.methods) if ms is not None]
        if len(added) > 1:
            at = {id(ms): i for i, ms in enumerate(sketch.methods)}
            added.sort(key=lambda ms: at[id(ms)])
        program = self.program.derive(
            [
                Method(
                    ms.class_name,
                    ms.name,
                    tuple(ms.params),
                    tuple(ms.instructions),
                    ms.is_static,
                )
                for ms in [*kept, *added]
                if ms is not None
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
    ) -> Tuple[Dict[str, Optional[MethodRows]], Tuple[List[tuple], List[tuple]]]:
        """Re-encode the ``dirty`` methods.

        Returns the fresh rows by method id (``None``: the method is
        gone) and the SUBTYPE/LOOKUP rows: re-derived if the footprint
        can change them, else the current ones.
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
        return fresh, type_rows(program) if retype else self._types

    def _delta(
        self,
        program: Program,
        fresh: Mapping[str, Optional[MethodRows]],
        types: Tuple[List[tuple], List[tuple]],
        reroot: bool,
    ) -> Tuple[FactDelta, Dict[str, int]]:
        """The fact delta from the dirty methods' old and new rows (plus
        the type and root rows when those changed), and the new use
        counts of the string constants those methods use."""
        old = [self._methods[mid] for mid in fresh if mid in self._methods]
        new = [entry for entry in fresh.values() if entry is not None]
        uses = self._string_uses
        counts: Dict[str, int] = {}
        for step, entries in ((-1, old), (1, new)):
            for entry in entries:
                for heap in entry.strings:
                    counts[heap] = counts.get(heap, uses.get(heap, 0)) + step
        added, removed = method_rows_delta(
            old,
            new,
            {heap for heap in counts if heap in uses},
            {heap for heap, count in counts.items() if count},
        )
        rederived = []
        if types is not self._types:
            rederived += zip(("subtype", "lookup"), self._types, types)
        if reroot:
            rederived.append((
                "reachableroot",
                [(ep,) for ep in self.program.entry_points],
                [(ep,) for ep in program.entry_points],
            ))
        for name, was_rows, now_rows in rederived:
            was = set(was_rows)
            now = set(now_rows)
            if now - was:
                added[name] = now - was
            if was - now:
                removed[name] = was - now
        delta = FactDelta(
            added={name.upper(): frozenset(rows) for name, rows in added.items()},
            removed={name.upper(): frozenset(rows) for name, rows in removed.items()},
        )
        return delta, counts

    def _commit(
        self,
        program: Program,
        fresh: Mapping[str, Optional[MethodRows]],
        types: Tuple[List[tuple], List[tuple]],
        counts: Mapping[str, int],
    ) -> _Snapshot:
        """Move the caches to the post-edit program; returns its snapshot.

        The entries ``fresh`` replaces stay reachable from the epoch left
        behind, for the snapshots taken before.
        """
        cache = self._methods
        replaced = self._epoch.replaced
        sig_callers = self._sig_callers
        for mid, entry in fresh.items():
            was = cache.get(mid)
            if was is not None:
                replaced[mid] = was
                for sig in was.call_sigs:
                    callers = sig_callers[sig]
                    callers.discard(mid)
                    if not callers:
                        del sig_callers[sig]
            if entry is None:
                del cache[mid]
            else:
                cache[mid] = entry
                for sig in entry.call_sigs:
                    sig_callers.setdefault(sig, set()).add(mid)
        epoch = _Epoch()
        self._epoch.newer = epoch
        self._epoch = epoch
        uses = self._string_uses
        for heap, count in counts.items():
            if count:
                uses[heap] = count
            else:
                uses.pop(heap, None)
        if types is not self._types:
            self._instance_sigs = _instance_sigs(program)
            self._types = types
        self.program = program
        self._snapshot = _Snapshot(program, types, epoch, cache)
        return self._snapshot

    # ------------------------------------------------------------------
    # Solver plumbing
    # ------------------------------------------------------------------
    def _solve_fresh(self, program: Program) -> Relations:
        """Solve ``program`` from scratch, over a new packed program that
        then moves with the session's program."""
        pack = self._pack = PackedProgram(program)
        policy = policy_by_name(self.analysis, alloc_class_of=pack.alloc_class_of)
        solver = self._solver = PointsToSolver(
            program, policy, max_tuples=self.max_tuples, pack=pack
        )
        raw = solver.solve()
        # Here, not inside the next edit: set-up and a ``full`` re-solve
        # pay for the indexes the warm tiers read.
        solver.keep_indexes()
        # A frozenset built from a generator may hold a table up to four
        # times its rows; the one copy made by union() is sized to fit.
        return {
            name: _Relation(frozenset().union(rows))
            for name, rows in zip(RESULT_RELATIONS, solver_relations(raw))
        }

    def _warm(
        self,
        tier: str,
        program: Program,
        fresh: Mapping[str, Optional[MethodRows]],
        delta: FactDelta,
        reason: str,
    ) -> Tuple[ResultDelta, str]:
        """The ``monotonic`` or ``rederive`` tier on the warm solver.

        The packed program moves to ``program`` first, compiling again
        the dirty methods it has compiled
        (:meth:`~repro.analysis.pack.PackedProgram.recompile`).  A
        rederive takes what their new bodies lose out first
        (:meth:`~repro.analysis.solver.PointsToSolver.retract`), then
        replays what they gain (:meth:`~repro.analysis.solver.PointsToSolver.extend`).
        Both report their result delta natively, so the relations' overlays
        are updated from it and the returned ``(added, removed)`` are exact
        without any full-relation comparison.  Returns them with the
        outcome's reason.
        """
        solver, pack = self._solver, self._pack
        assert solver is not None and pack is not None
        bodies = pack.recompile(
            program, [mid for mid, entry in fresh.items() if entry is not None]
        )
        lost: Dict[str, FrozenSet[tuple]] = {}
        if tier == "rederive":
            retraction = solver.retract(program, bodies, delta.removed)
            lost = retraction.removed
            reason = (
                f"rederive: {reason}; {retraction.region}/{retraction.nodes} nodes"
            )
        gained = solver.extend(program, bodies, delta.added) if delta.added else {}
        added: Dict[str, FrozenSet[tuple]] = {}
        removed: Dict[str, FrozenSet[tuple]] = {}
        for name in RESULT_RELATIONS:
            minus = lost.get(name, frozenset())
            plus = gained.get(name, frozenset())
            # a tuple retracted and re-derived by the additions stays
            minus, plus = minus - plus, plus - minus
            self._relations[name].update(plus, minus)
            if minus:
                removed[name] = minus
            if plus:
                added[name] = plus
        return (added, removed), reason

    # ------------------------------------------------------------------
    # The session API
    # ------------------------------------------------------------------
    def relations(self) -> Dict[str, RelationView]:
        """The current five output relations (string level), as
        :class:`RelationView`\\ s.

        A view is immutable: a caller may hold it across later edits.
        The session stores each relation once, as a frozen base plus the
        rows added and removed since; a read copies only those, so it
        costs O(delta), not O(result).
        """
        return {name: rows.view() for name, rows in self._relations.items()}

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
            fresh, types = self._encode_dirty(program, footprint, dirty)
            delta, counts = self._delta(program, fresh, types, footprint.entry_points)
        except Exception:
            inverse.apply(self.sketch)
            raise
        # A site id names its method, so the pre-existing call sites the
        # delta can mention are the dirty methods' old ones.
        tier, reason = classify_delta(
            delta,
            self._methods.keys(),
            {
                invo
                for mid in fresh
                if mid in self._methods
                for invo in self._methods[mid].args_of_invo
            },
            removed_methods={mid for mid, entry in fresh.items() if entry is None},
        )
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
                    changes, reason = self._warm(tier, program, fresh, delta, reason)
                except ValueError as exc:
                    # A warm path's guard refused the delta the classifier
                    # accepted: fall back to the escape hatch and say so.
                    if tier == "rederive":
                        reason = f"rederive refused ({exc}); retractions in {reason}"
                    else:
                        reason = f"fast path refused ({exc}); {reason}"
                    tier = "full"
            if changes is None:
                self._relations = self._solve_fresh(program)
        except Exception:
            # The solve itself failed (e.g. a tuple-budget trip mid
            # extension), possibly leaving the warm solver and its packed
            # program inconsistent.  Revert the sketch and rebuild the
            # warm state at the old program so the session survives; then
            # let the error out.  The caches were not yet touched.
            inverse.apply(self.sketch)
            self._relations = self._solve_fresh(self.program)
            raise
        solve_seconds = sw.elapsed()

        snapshot = self._commit(program, fresh, types, counts)
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
            for name in RESULT_RELATIONS:
                now = self._relations[name].base  # fresh, so no overlay
                was = old_relations[name].view().frozen()
                plus = now - was
                minus = was - now
                if plus:
                    result_added[name] = plus
                if minus:
                    result_removed[name] = minus
        return EditOutcome(
            tier=tier,
            reason=reason,
            delta=delta,
            apply_seconds=apply_seconds,
            solve_seconds=solve_seconds,
            snapshot=snapshot,
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
            if scratch[name] != self._relations[name].view()
        ]
