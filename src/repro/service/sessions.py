"""Warm edit-sessions behind the service's ``/sessions`` routes.

A session is one :class:`~repro.incremental.session.IncrementalSession`
kept alive server-side: ``POST /sessions`` builds the program (benchmark
or inline source), pays the from-scratch solve once, and every subsequent
``POST /sessions/{id}/edits`` ships a JSON
:class:`~repro.incremental.edits.EditScript` and gets back the *result
delta* — added/removed tuples per output relation — plus timing split
into delta-apply and solve, and the tier the session actually took
(``noop``/``monotonic``/``full``).

Unlike jobs, sessions are stateful and synchronous: edits run in the
HTTP handler thread under a per-session lock (an edit on a warm session
is orders of magnitude cheaper than the solve a job pays — that is the
point of the subsystem), and a failed edit script rolls back, leaving
the session at its previous consistent state (HTTP 400, session intact).
Any other failure inside the solve is a server fault, not a bad edit: it
propagates (the route answers 500), and the session has still rolled
back.

The store bounds live sessions (each one pins a solved fixpoint in
memory); creation beyond the cap is refused with HTTP 409 until a
session is deleted.
"""

from __future__ import annotations

import threading
import time
import uuid
from typing import Any, Dict, List, Optional, Tuple

from ..analysis.solver import BudgetExceeded
from ..benchgen.dacapo import DACAPO_SPECS, benchmark_names, build_benchmark
from ..contexts.policies import policy_by_name
from ..frontend import parse_source
from ..fuzz.sketch import ProgramSketch
from ..incremental.edits import EditError, EditScript
from ..incremental.session import IncrementalSession
from ..ir.program import ProgramError
from ..ir.types import TypeError_
from ..ir.validate import ValidationError

__all__ = ["EditSessionRecord", "SessionError", "SessionStore"]

_CREATE_FIELDS = {"benchmark", "source", "analysis", "max_tuples"}

#: What an edit script can legitimately raise: a bad edit, an invalid
#: resulting program, or a result over the tuple budget.
_EDIT_ERRORS = (
    EditError,
    ProgramError,
    ValidationError,
    TypeError_,
    BudgetExceeded,
)


class SessionError(ValueError):
    """Invalid session request; ``status`` picks the HTTP response code."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


class EditSessionRecord:
    """One live session: the warm analysis plus identity and bookkeeping."""

    def __init__(self, session: IncrementalSession, spec: Dict[str, Any]) -> None:
        self.id = uuid.uuid4().hex[:12]
        self.session = session
        self.spec = spec
        self.created_at = time.time()
        self.last_edit_at: Optional[float] = None
        self.lock = threading.Lock()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-able status view (``GET /sessions/{id}``)."""
        s = self.session
        return {
            "id": self.id,
            "spec": self.spec,
            "analysis": s.analysis,
            "digest": s.facts.digest(),
            "program": s.program.summary(),
            "initial_solve_seconds": round(s.initial_solve_seconds, 6),
            "edits_applied": s.edits_applied,
            "tier_counts": dict(s.tier_counts),
            "created_at": self.created_at,
            "last_edit_at": self.last_edit_at,
        }


class SessionStore:
    """Thread-safe registry of live edit sessions."""

    def __init__(self, max_sessions: int = 16) -> None:
        self.max_sessions = max_sessions
        self._sessions: Dict[str, EditSessionRecord] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    # CRUD
    # ------------------------------------------------------------------
    def create(self, payload: Dict[str, Any]) -> EditSessionRecord:
        """Validate the payload, build the program, pay the warm solve."""
        if not isinstance(payload, dict):
            raise SessionError("session payload must be a JSON object")
        unknown = set(payload) - _CREATE_FIELDS
        if unknown:
            raise SessionError(
                f"unknown session fields: {', '.join(sorted(unknown))}"
            )
        benchmark = payload.get("benchmark")
        source = payload.get("source")
        if (benchmark is None) == (source is None):
            raise SessionError(
                "exactly one of 'benchmark' or 'source' must be given"
            )
        analysis = payload.get("analysis", "insens")
        max_tuples = payload.get("max_tuples")
        if max_tuples is not None and (
            not isinstance(max_tuples, int)
            or isinstance(max_tuples, bool)
            or max_tuples <= 0
        ):
            raise SessionError("'max_tuples' must be a positive integer")
        try:
            policy_by_name(analysis, alloc_class_of=lambda _h: "")
        except Exception as exc:  # noqa: BLE001 - surface as 400
            raise SessionError(str(exc)) from None
        if benchmark is not None:
            if benchmark not in DACAPO_SPECS:
                raise SessionError(
                    f"unknown benchmark {benchmark!r}; "
                    f"try one of: {', '.join(benchmark_names())}"
                )
            program = build_benchmark(benchmark)
        else:
            try:
                program = parse_source(source)
            except Exception as exc:  # noqa: BLE001 - bad source is a 400
                raise SessionError(f"{type(exc).__name__}: {exc}") from None
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                raise SessionError(
                    f"session limit reached ({self.max_sessions}); "
                    "delete a session first",
                    status=409,
                )
        session = IncrementalSession(
            ProgramSketch.from_program(program),
            analysis=analysis,
            max_tuples=max_tuples,
        )
        record = EditSessionRecord(
            session,
            spec={
                "benchmark": benchmark,
                "source": source,
                "analysis": analysis,
                "max_tuples": max_tuples,
            },
        )
        with self._lock:
            # Re-check under the lock: the warm solve above ran unlocked.
            if len(self._sessions) >= self.max_sessions:
                raise SessionError(
                    f"session limit reached ({self.max_sessions}); "
                    "delete a session first",
                    status=409,
                )
            self._sessions[record.id] = record
        return record

    def get(self, session_id: str) -> Optional[EditSessionRecord]:
        with self._lock:
            return self._sessions.get(session_id)

    def list(self) -> Tuple[EditSessionRecord, ...]:
        with self._lock:
            return tuple(self._sessions.values())

    def delete(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    # ------------------------------------------------------------------
    # Edits
    # ------------------------------------------------------------------
    def apply_edits(
        self, session_id: str, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Apply one edit script; return the outcome payload.

        The edit runs under the record's lock so concurrent posts to the
        same session serialize; distinct sessions edit in parallel.  Only
        the errors an edit can legitimately raise become a 400
        :class:`SessionError`; anything else propagates.
        """
        record = self.get(session_id)
        if record is None:
            raise SessionError(f"no such session: {session_id}", status=404)
        if not isinstance(payload, dict) or "edits" not in payload:
            raise SessionError("edit payload must be {'edits': [...]}")
        edits = payload["edits"]
        if not isinstance(edits, list):
            raise SessionError("'edits' must be a list of edit objects")
        try:
            script = EditScript.from_json(edits)
        except EditError as exc:
            raise SessionError(str(exc)) from None
        with record.lock:
            try:
                outcome = record.session.apply(script)
            except _EDIT_ERRORS as exc:  # the session rolled back
                raise SessionError(
                    f"edit rejected ({type(exc).__name__}: {exc}); "
                    "session unchanged"
                ) from None
            record.last_edit_at = time.time()
            result = outcome.to_payload()
        result["session_id"] = record.id
        result["edits_applied"] = record.session.edits_applied
        return result
