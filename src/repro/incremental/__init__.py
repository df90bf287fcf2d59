"""Incremental analysis: program deltas in, result deltas out.

The subsystem has three layers, bottom-up:

* :mod:`~repro.incremental.edits` — a typed, invertible, JSON-round-
  trippable edit vocabulary over :class:`~repro.fuzz.sketch.ProgramSketch`
  (the same program model the fuzzer mutates); an applied script reports
  its :class:`~repro.incremental.edits.Footprint`, what it touched.
* :mod:`~repro.incremental.differ` — the per-relation EDB row
  additions/retractions of an edit (:class:`FactDelta`, with
  :func:`diff_facts` as the whole-base reference) and the classifier
  picking the cheapest sound re-analysis tier.
* :mod:`~repro.incremental.session` — the warm
  :class:`~repro.incremental.session.IncrementalSession` tying it
  together over the packed solver.  It keeps each method's encoded rows
  and re-encodes only the methods an edit's footprint makes dirty, so
  the fact delta comes from those rows alone; the monotonic fast path
  and delete-and-rederive live on the solver itself
  (:meth:`repro.analysis.solver.PointsToSolver.extend` and
  :meth:`~repro.analysis.solver.PointsToSolver.retract`).  The service's
  ``/sessions`` endpoints and ``repro bench --incremental`` sit on top.

See ``docs/incremental.md`` for the full tour.
"""

from .differ import (
    FactDelta,
    MONOTONIC_HAZARDS,
    REDERIVE_RELATIONS,
    classify_delta,
    diff_facts,
    negation_tainted,
)
from .edits import (
    AddClass,
    AddEntryPoint,
    AddField,
    AddMethod,
    DeleteInstruction,
    Edit,
    EditError,
    EditScript,
    InsertInstruction,
    RemoveClass,
    RemoveEntryPoint,
    RemoveField,
    RemoveMethod,
    edit_from_json,
    random_edit_script,
)
from .session import (
    EditOutcome,
    IncrementalSession,
    RESULT_RELATIONS,
    RelationView,
)

__all__ = [
    "AddClass",
    "AddEntryPoint",
    "AddField",
    "AddMethod",
    "DeleteInstruction",
    "Edit",
    "EditError",
    "EditOutcome",
    "EditScript",
    "FactDelta",
    "IncrementalSession",
    "InsertInstruction",
    "MONOTONIC_HAZARDS",
    "REDERIVE_RELATIONS",
    "RESULT_RELATIONS",
    "RelationView",
    "RemoveClass",
    "RemoveEntryPoint",
    "RemoveField",
    "RemoveMethod",
    "classify_delta",
    "diff_facts",
    "edit_from_json",
    "negation_tainted",
    "random_edit_script",
]
