"""Analysis-as-a-service: the service core and its HTTP JSON API.

:class:`AnalysisService` ties the pieces together: a priority
:class:`~repro.service.jobs.JobQueue`, a
:class:`~repro.service.workers.WorkerPool`, a content-addressed
:class:`~repro.service.cache.ResultCache`, and a telemetry
:class:`~repro.service.telemetry.Registry`.  A single dispatcher thread
pops jobs as worker slots free up, computes the content key (building the
program and encoding its facts — cheap relative to a solve), answers from
the cache when possible, and otherwise ships the job to the pool.

Two optional guards serve crash safety and overload.  With ``journal``
every accepted job is appended to an fsynced
:class:`~repro.service.journal.JobJournal` before the 202 is sent and its
terminal state before a poller can see it, so a restart on the same file
replays every accepted-but-unfinished job under its original id.  With
``max_queue_depth`` a submission past that many queued jobs is refused
with :class:`~repro.service.jobs.Backpressure` (``429`` + ``Retry-After``).

The HTTP layer is a stdlib :class:`~http.server.ThreadingHTTPServer`
speaking JSON, mirroring the submit/poll shape of builder-style services:

===========================  ======  ======================================
``POST /jobs``               202     submit a job (benchmark or inline
                                     source; 429 past ``max_queue_depth``)
``GET /jobs``                200     list job snapshots
``GET /jobs/{id}``           200     one job's status snapshot
``GET /jobs/{id}/result``    200     terminal result payload (409 while
                                     queued/running)
``DELETE /jobs/{id}``        200     cancel a queued job (409 otherwise)
``POST /sessions``           201     open a warm edit session (pays the
                                     initial solve; 409 at capacity)
``GET /sessions``            200     list session snapshots
``GET /sessions/{id}``       200     one session's snapshot
``POST /sessions/{id}/edits``  200   apply an edit script, returning the
                                     result delta + tier + timing (400
                                     rejects, 500 server faults; the
                                     session is unchanged on both)
``DELETE /sessions/{id}``    200     close a session
``POST /queries``            200     answer a batch of demand ``pts(v)``
                                     queries over slices (cached via the
                                     result-cache tiers; 400 rejects)
``GET /healthz``             200     liveness + quick stats
``GET /metrics``             200     Prometheus text format
===========================  ======  ======================================

Sessions are the incremental subsystem over HTTP — see
``docs/incremental.md`` for the edit vocabulary and payload shapes.

``serve()`` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import re
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError, Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, Optional, Tuple

from .cache import ResultCache, cache_key
from .jobs import Backpressure, Job, JobQueue, JobSpec, JobState
from .journal import JobJournal
from .sessions import SessionError, SessionStore
from .telemetry import Registry
from .workers import WorkerPool

_log = logging.getLogger("repro.service")

__all__ = [
    "AnalysisService",
    "create_server",
    "local_service",
    "serve",
    "start_server",
]


class AnalysisService:
    """Queue + worker pool + cache + telemetry behind one submit() call."""

    def __init__(
        self,
        workers: int = 2,
        cache_capacity: int = 128,
        cache_dir: Optional[str] = None,
        receipt_dir: Optional[str] = None,
        max_sessions: int = 16,
        journal: Optional[str] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        self.receipt_dir = receipt_dir
        self.max_queue_depth = max_queue_depth
        self.telemetry = Registry()
        t = self.telemetry
        self._m_submitted = t.counter(
            "repro_service_jobs_submitted_total", "Jobs accepted for execution."
        )
        self._m_jobs = t.counter(
            "repro_service_jobs_total", "Jobs finished, by terminal state."
        )
        self._m_cache_hits = t.counter(
            "repro_service_cache_hits_total", "Result-cache hits, by tier."
        )
        self._m_cache_misses = t.counter(
            "repro_service_cache_misses_total", "Result-cache misses."
        )
        self._m_pass1 = t.counter(
            "repro_service_pass1_reuse_total",
            "Introspective jobs that reused a cached insensitive first pass.",
        )
        self._m_depth = t.gauge(
            "repro_service_queue_depth", "Jobs currently queued."
        )
        self._m_running = t.gauge(
            "repro_service_jobs_running", "Jobs currently executing."
        )
        self._m_workers = t.gauge(
            "repro_service_workers", "Configured worker-process count."
        )
        self._m_solve = t.histogram(
            "repro_service_solve_seconds", "Job execution wall time (seconds)."
        )
        self._m_solver_seconds = t.summary(
            "repro_service_solver_seconds",
            "Solver wall time per job (seconds), excluding build/encode.",
        )
        self._m_solver_tuples = t.summary(
            "repro_service_solver_tuples",
            "Tuples derived by the solver per job.",
        )
        self._m_solver_tps = t.gauge(
            "repro_service_solver_tuples_per_second",
            "Solver throughput of the most recent uncached job.",
        )
        self._m_stage = t.summary(
            "repro_service_stage_seconds",
            "Per-stage job wall time (seconds), labeled by stage.",
        )
        self._m_queries = t.counter(
            "repro_service_queries_total",
            "Demand queries answered, by outcome.",
        )
        self._m_query_seconds = t.summary(
            "repro_service_query_seconds",
            "Wall time per answered demand query (seconds).",
        )
        self._m_query_slice_vars = t.summary(
            "repro_service_query_slice_vars",
            "Planned slice size per answered demand query (variables).",
        )
        self._m_receipt_errors = t.counter(
            "repro_service_receipt_errors_total",
            "Receipt writes that failed (the job still completes).",
        )
        self._m_cache_errors = t.counter(
            "repro_service_cache_errors_total",
            "Result-cache disk-tier writes and unlinks that failed, by op.",
        )
        self._m_pool_restarts = t.counter(
            "repro_service_pool_restarts_total",
            "Broken worker-process pools replaced after a worker died.",
        )
        self._m_rejected = t.counter(
            "repro_service_rejected_total",
            "Submissions rejected with 429, by reason.",
        )
        self._m_journal_records = t.counter(
            "repro_service_journal_records_total",
            "Journal records appended, by type.",
        )
        self._m_journal_bytes = t.gauge(
            "repro_service_journal_bytes", "Job journal size on disk."
        )
        self._m_journal_errors = t.counter(
            "repro_service_journal_errors_total",
            "Journal appends after acceptance that failed (the job still "
            "completes; a restart may replay it).",
        )
        self._m_replayed = t.counter(
            "repro_service_replayed_jobs_total",
            "Jobs re-enqueued from the journal at startup.",
        )

        self.queue = JobQueue()
        self.pool = WorkerPool(workers, restarts=self._m_pool_restarts)
        self.cache = ResultCache(
            capacity=cache_capacity,
            cache_dir=cache_dir,
            hits=self._m_cache_hits,
            misses=self._m_cache_misses,
            errors=self._m_cache_errors,
        )
        self._m_workers.set(workers)
        self.sessions = SessionStore(max_sessions=max_sessions)
        self._m_sessions = t.gauge(
            "repro_service_sessions", "Live warm edit sessions."
        )
        self._m_session_edits = t.counter(
            "repro_service_session_edits_total",
            "Edit scripts applied to warm sessions, by tier.",
        )
        self._jobs: Dict[str, Job] = {}
        self._jobs_lock = threading.Lock()
        # Warm demand-query engines, LRU by facts digest (each one holds
        # an insensitive pass + memo tables; see repro.query).
        self._engines: "OrderedDict[str, Any]" = OrderedDict()
        self._engines_lock = threading.Lock()
        self._query_lock = threading.Lock()
        self._slots = threading.BoundedSemaphore(self.pool.slots)
        self._stop = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self.started_at = time.time()
        # Last: replay may enqueue jobs, which needs everything above.
        self.journal: Optional[JobJournal] = None
        if journal is not None:
            self.journal = JobJournal(journal)
            self._m_journal_bytes.set(self.journal.size_bytes())
            self._replay()

    # ------------------------------------------------------------------
    # Public API (used by the HTTP layer and directly by tests/harness)
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Accept a job: admission control (may raise
        :class:`~repro.service.jobs.Backpressure`), then, with a journal,
        a durable ``accepted`` record before the job becomes visible.
        """
        if (
            self.max_queue_depth is not None
            and self.queue.depth() >= self.max_queue_depth
        ):
            self._m_rejected.inc(reason="queue_full")
            raise Backpressure("queue_full", retry_after=1.0)
        job = Job(spec=spec)
        self._journal("accepted", id=job.id, spec=spec.to_payload())
        return self.enqueue(job)

    def _journal(self, type: str, **fields: Any) -> None:
        """Durably append one record (a no-op without a journal).

        A failed ``accepted`` append raises: a job is never acknowledged
        unless its acceptance is on disk.  Later records are best-effort:
        a full disk must not turn a finished job into a crashed service;
        the cost is a possible replay after restart.
        """
        if self.journal is None:
            return
        try:
            self.journal.append(type, **fields)
        except OSError as exc:
            if type == "accepted":
                raise
            self._m_journal_errors.inc()
            _log.warning(
                "journal append failed for job %s (%s): %r",
                fields.get("id"), type, exc,
            )
            return
        self._m_journal_records.inc(type=type)
        self._m_journal_bytes.set(self.journal.size_bytes())

    def _replay(self) -> None:
        """Re-enqueue accepted-but-unfinished jobs from the journal."""
        pending, _ = self.journal.pending()
        for job_id, record in pending.items():
            try:
                spec = JobSpec.from_payload(record["spec"])
            except (ValueError, TypeError, KeyError):
                # A journaled spec that no longer validates (e.g. a
                # benchmark renamed across versions) is finished as an
                # error, not silently dropped.
                self._journal("done", id=job_id, state=JobState.ERROR)
                continue
            self.enqueue(Job(spec=spec, id=job_id))
            self._m_replayed.inc()

    def enqueue(self, job: Job) -> Job:
        """Register and queue an already-constructed job (no admission)."""
        with self._jobs_lock:
            self._jobs[job.id] = job
        self.queue.put(job)
        self._m_submitted.inc()
        self._m_depth.set(self.queue.depth())
        return job

    def job(self, job_id: str) -> Optional[Job]:
        with self._jobs_lock:
            return self._jobs.get(job_id)

    def jobs(self) -> Tuple[Job, ...]:
        with self._jobs_lock:
            return tuple(self._jobs.values())

    def cancel(self, job_id: str) -> bool:
        job = self.job(job_id)
        if job is None:
            return False
        if self.queue.cancel(job):
            self._m_jobs.inc(state=JobState.CANCELLED)
            self._m_depth.set(self.queue.depth())
            # Keep the journal truthful: a cancelled job must not be
            # resurrected by a replay after a restart.
            self._journal("done", id=job.id, state=JobState.CANCELLED)
            return True
        return False

    def start(self) -> None:
        if self._dispatcher is not None:
            return
        self._stop.clear()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-dispatcher", daemon=True
        )
        self._dispatcher.start()

    def stop(self, wait: bool = True) -> None:
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        if self.journal is not None:
            self.journal.close()
        self.pool.shutdown(wait=wait)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            if not self._slots.acquire(timeout=0.1):
                continue
            job = self.queue.pop(timeout=0.1)
            self._m_depth.set(self.queue.depth())
            if job is None:
                self._slots.release()
                continue
            try:
                self._process(job)
            except Exception as exc:  # noqa: BLE001 - keep the loop alive
                self._finalize(
                    job,
                    {
                        "state": JobState.ERROR,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                    store_key=None,
                )

    def _process(self, job: Job) -> None:
        if job.cancel_requested:
            self._finalize(job, {"state": JobState.CANCELLED}, store_key=None)
            return
        job.mark_started()
        spec_payload = job.spec.to_payload()
        try:
            # Build + encode here (milliseconds) to learn the content key;
            # the solve (the expensive part) only happens on a cache miss.
            from .workers import _build_program  # local import: same logic
            from ..facts.encoder import encode_program

            program = _build_program(job.spec)
            digest = encode_program(program).digest()
        except Exception as exc:  # noqa: BLE001 - bad source/benchmark
            self._finalize(
                job,
                {
                    "state": JobState.ERROR,
                    "error": f"{type(exc).__name__}: {exc}",
                },
                store_key=None,
            )
            return
        key = cache_key(digest, job.spec)
        cached = self.cache.get(key)
        if cached is not None:
            cached = dict(cached)
            cached["cached"] = True
            self._finalize(job, cached, store_key=None)
            return
        job.state = JobState.RUNNING
        self._m_running.inc()
        try:
            future = self.pool.submit(spec_payload)
        except Exception:
            # The dispatcher finalizes the job; _on_done never runs.
            self._m_running.dec()
            raise
        future.add_done_callback(
            lambda f, j=job, k=key: self._on_done(j, k, f)
        )

    def _on_done(self, job: Job, key: str, future: "Future[Dict[str, Any]]") -> None:
        try:
            payload = future.result()
        except CancelledError:
            payload = {"state": JobState.CANCELLED}
        except Exception as exc:  # noqa: BLE001 - e.g. BrokenProcessPool
            # If a worker process died mid-job, the pool replaces itself
            # on the next submit; this job ends ERROR naming the cause.
            payload = {
                "state": JobState.ERROR,
                "error": f"{type(exc).__name__}: {exc}",
            }
        self._m_running.dec()
        self._finalize(job, payload, store_key=key)

    def _finalize(
        self,
        job: Job,
        payload: Dict[str, Any],
        store_key: Optional[str],
    ) -> None:
        """Drive a job to its terminal state and free its worker slot."""
        state = payload.get("state", JobState.ERROR)
        job.result = payload
        job.error = payload.get("error")
        job.cached = bool(payload.get("cached", False))
        job.mark_finished()
        self._m_jobs.inc(state=state)
        if "solve_seconds" in payload:
            self._m_solve.observe(payload["solve_seconds"])
        # Solver throughput: only jobs that actually ran a solve (cache
        # hits replay a payload without doing solver work).
        stats = payload.get("stats")
        if stats and not job.cached:
            seconds = stats.get("seconds") or 0.0
            tuples = stats.get("tuple_count") or 0
            self._m_solver_seconds.observe(seconds)
            self._m_solver_tuples.observe(tuples)
            if seconds > 0:
                self._m_solver_tps.set(round(tuples / seconds, 3))
        if not job.cached:
            for stage_name, stage_seconds in (payload.get("stages") or {}).items():
                self._m_stage.observe(stage_seconds, stage=stage_name)
        if payload.get("pass1_reused"):
            self._m_pass1.inc()
        if store_key is not None and state in (JobState.DONE, JobState.TIMEOUT):
            self.cache.put(store_key, payload)
        if (
            self.receipt_dir is not None
            and state == JobState.DONE
            and not job.cached
        ):
            # Every completed uncached job leaves a perf receipt in the
            # results warehouse (docs/warehouse.md).  Best-effort: a full
            # disk must not turn a finished job into a failed one.  The
            # terminal state is stamped into the snapshot by hand because
            # job.state flips only below: once a poller can observe DONE,
            # the receipt must already be on disk.
            try:
                from ..warehouse import receipt_from_service_job, write_receipt

                snapshot = job.snapshot()
                snapshot["state"] = state
                write_receipt(
                    receipt_from_service_job(snapshot, payload),
                    self.receipt_dir,
                )
            except Exception as exc:  # noqa: BLE001 - receipts are advisory
                self._m_receipt_errors.inc()
                _log.warning("receipt write failed for job %s: %r", job.id, exc)
        # Journal the terminal transition before the state flip: a replay
        # after a crash must never resurrect a job whose terminal state a
        # poller could already have observed.
        self._journal("done", id=job.id, state=state)
        job.state = state
        self._slots.release()

    # ------------------------------------------------------------------
    # Demand queries (POST /queries — synchronous, like sessions)
    # ------------------------------------------------------------------
    #: Warm query engines kept per service (each holds one insensitive
    #: pass; mirrors the worker pool's pass-1 cache limit).
    _ENGINE_CACHE_LIMIT = 4

    def _query_engine(self, program: Any, facts: Any, digest: str) -> Any:
        with self._engines_lock:
            engine = self._engines.get(digest)
            if engine is not None:
                self._engines.move_to_end(digest)
                return engine
        from ..query import QueryEngine

        engine = QueryEngine(program, facts=facts)  # pays the insens pass
        with self._engines_lock:
            self._engines.setdefault(digest, engine)
            self._engines.move_to_end(digest)
            while len(self._engines) > self._ENGINE_CACHE_LIMIT:
                self._engines.popitem(last=False)
            return self._engines[digest]

    def run_queries(self, payload: Any) -> Dict[str, Any]:
        """Answer one ``POST /queries`` batch; raises ``ValueError`` on 400s.

        The batch shares a slice union-solve inside the engine, the
        response caches in the ordinary :class:`ResultCache` tiers under
        a content key of ``(facts digest, flavor, vars, budgets)``, and a
        per-query blown budget lands in its answer slot — it fails alone.
        """
        if not isinstance(payload, dict):
            raise ValueError("payload must be a JSON object")
        allowed = {
            "vars",
            "flavor",
            "benchmark",
            "source",
            "max_tuples",
            "max_seconds",
        }
        unknown = sorted(set(payload) - allowed)
        if unknown:
            raise ValueError(f"unknown query fields: {', '.join(unknown)}")
        variables = payload.get("vars")
        if (
            not isinstance(variables, list)
            or not variables
            or not all(isinstance(v, str) for v in variables)
        ):
            raise ValueError("vars must be a non-empty list of variable names")
        flavor = payload.get("flavor", "insens")
        if not isinstance(flavor, str):
            raise ValueError("flavor must be a string")
        max_tuples = payload.get("max_tuples")
        max_seconds = payload.get("max_seconds")
        benchmark = payload.get("benchmark")
        source = payload.get("source")
        if (benchmark is None) == (source is None):
            raise ValueError("exactly one of benchmark or source is required")

        from ..facts.encoder import encode_program
        from .jobs import JobSpec
        from .workers import _build_program

        spec = JobSpec(benchmark=benchmark, source=source)
        program = _build_program(spec)
        facts = encode_program(program)
        digest = facts.digest()
        key = hashlib.sha256(
            json.dumps(
                {
                    "kind": "queries",
                    "facts": digest,
                    "flavor": flavor,
                    "vars": variables,
                    "max_tuples": max_tuples,
                    "max_seconds": max_seconds,
                },
                sort_keys=True,
            ).encode()
        ).hexdigest()
        cached = self.cache.get(key)
        if cached is not None:
            cached = dict(cached)
            cached["cached"] = True
            return cached

        engine = self._query_engine(program, facts, digest)
        engine.policy(flavor)  # unknown flavor -> ValueError -> 400
        with self._query_lock:
            outcomes = engine.query_batch(
                variables, flavor, max_tuples=max_tuples, max_seconds=max_seconds
            )
        for outcome in outcomes:
            if outcome.answer is not None:
                self._m_queries.inc(state="done")
                self._m_query_seconds.observe(outcome.answer.seconds)
                self._m_query_slice_vars.observe(outcome.answer.slice_variables)
            else:
                self._m_queries.inc(state="timeout")
        response: Dict[str, Any] = {
            "facts_digest": digest,
            "flavor": flavor,
            "cached": False,
            "slice_memo_entries": engine.memo_entries,
            "answers": [o.to_json() for o in outcomes],
        }
        self.cache.put(key, response)
        return response

    # ------------------------------------------------------------------
    # Introspection for /healthz
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        return {
            "status": "ok",
            "workers": self.pool.workers,
            "queue_depth": self.queue.depth(),
            "jobs": len(self.jobs()),
            "sessions": len(self.sessions),
            "cache_entries": len(self.cache),
            "uptime_seconds": round(time.time() - self.started_at, 3),
        }


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------
_JOB_PATH = re.compile(r"^/jobs/([0-9a-f]+)$")
_RESULT_PATH = re.compile(r"^/jobs/([0-9a-f]+)/result$")
_SESSION_PATH = re.compile(r"^/sessions/([0-9a-f]+)$")
_SESSION_EDITS_PATH = re.compile(r"^/sessions/([0-9a-f]+)/edits$")


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-service/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> AnalysisService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, fmt: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):  # pragma: no cover
            super().log_message(fmt, *args)

    # -- helpers -------------------------------------------------------
    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_text(self, status: int, text: str) -> None:
        body = text.encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/plain; version=0.0.4")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise ValueError("empty request body")
        return json.loads(raw)

    # -- methods -------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/jobs":
            try:
                spec = JobSpec.from_payload(self._read_json())
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            try:
                job = self.service.submit(spec)
            except Backpressure as exc:
                self._send_json(
                    429,
                    {"error": str(exc), "reason": exc.reason,
                     "retry_after": round(exc.retry_after, 3)},
                    headers={
                        "Retry-After": str(
                            max(1, int(exc.retry_after + 0.999))
                        )
                    },
                )
                return
            self._send_json(
                202,
                {
                    "id": job.id,
                    "state": job.state,
                    "status_url": f"/jobs/{job.id}",
                    "result_url": f"/jobs/{job.id}/result",
                },
            )
            return
        if self.path == "/sessions":
            try:
                record = self.service.sessions.create(self._read_json())
            except SessionError as exc:
                self._send_json(exc.status, {"error": str(exc)})
                return
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self.service._m_sessions.set(len(self.service.sessions))
            snapshot = record.snapshot()
            snapshot["edits_url"] = f"/sessions/{record.id}/edits"
            self._send_json(201, snapshot)
            return
        if self.path == "/queries":
            try:
                payload = self.service.run_queries(self._read_json())
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            self._send_json(200, payload)
            return
        m = _SESSION_EDITS_PATH.match(self.path)
        if m:
            try:
                body = self._read_json()
            except ValueError as exc:
                self._send_json(400, {"error": str(exc)})
                return
            try:
                payload = self.service.sessions.apply_edits(m.group(1), body)
            except SessionError as exc:
                self._send_json(exc.status, {"error": str(exc)})
                return
            except Exception as exc:  # noqa: BLE001 - a fault, not a bad edit
                self._send_json(500, {"error": f"{type(exc).__name__}: {exc}"})
                return
            self.service._m_session_edits.inc(tier=payload["tier"])
            self._send_json(200, payload)
            return
        self._send_json(404, {"error": f"no such route: POST {self.path}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, self.service.health())
            return
        if self.path == "/metrics":
            self._send_text(200, self.service.telemetry.render())
            return
        if self.path == "/jobs":
            self._send_json(
                200, {"jobs": [j.snapshot() for j in self.service.jobs()]}
            )
            return
        m = _JOB_PATH.match(self.path)
        if m:
            job = self.service.job(m.group(1))
            if job is None:
                self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            else:
                self._send_json(200, job.snapshot())
            return
        m = _RESULT_PATH.match(self.path)
        if m:
            job = self.service.job(m.group(1))
            if job is None:
                self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            elif not job.terminal:
                self._send_json(
                    409,
                    {"id": job.id, "state": job.state,
                     "error": "job is not finished; poll the status URL"},
                )
            else:
                self._send_json(
                    200,
                    {"id": job.id, "state": job.state, "cached": job.cached,
                     "result": job.result},
                )
            return
        if self.path == "/sessions":
            self._send_json(
                200,
                {
                    "sessions": [
                        r.snapshot() for r in self.service.sessions.list()
                    ]
                },
            )
            return
        m = _SESSION_PATH.match(self.path)
        if m:
            record = self.service.sessions.get(m.group(1))
            if record is None:
                self._send_json(
                    404, {"error": f"no such session: {m.group(1)}"}
                )
            else:
                self._send_json(200, record.snapshot())
            return
        self._send_json(404, {"error": f"no such route: GET {self.path}"})

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        m = _SESSION_PATH.match(self.path)
        if m:
            if self.service.sessions.delete(m.group(1)):
                self.service._m_sessions.set(len(self.service.sessions))
                self._send_json(200, {"id": m.group(1), "deleted": True})
            else:
                self._send_json(
                    404, {"error": f"no such session: {m.group(1)}"}
                )
            return
        m = _JOB_PATH.match(self.path)
        if not m:
            self._send_json(404, {"error": f"no such route: DELETE {self.path}"})
            return
        job = self.service.job(m.group(1))
        if job is None:
            self._send_json(404, {"error": f"no such job: {m.group(1)}"})
            return
        if self.service.cancel(job.id):
            self._send_json(200, {"id": job.id, "state": job.state})
        else:
            self._send_json(
                409,
                {"id": job.id, "state": job.state,
                 "error": "only queued jobs can be cancelled"},
            )


def create_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ThreadingHTTPServer:
    """Bind an HTTP server to ``service`` (``port=0`` picks a free port)."""
    server = ThreadingHTTPServer((host, port), _Handler)
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.daemon_threads = True
    return server


def start_server(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> Tuple[ThreadingHTTPServer, threading.Thread]:
    """Start ``service`` and a server thread; returns (server, thread)."""
    service.start()
    server = create_server(service, host, port)
    thread = threading.Thread(
        target=server.serve_forever, name="repro-http", daemon=True
    )
    thread.start()
    return server, thread


@contextlib.contextmanager
def local_service(
    workers: int = 0,
    cache_capacity: int = 128,
    cache_dir: Optional[str] = None,
    receipt_dir: Optional[str] = None,
    max_sessions: int = 16,
    journal: Optional[str] = None,
    max_queue_depth: Optional[int] = None,
) -> Iterator[str]:
    """Context manager: an ephemeral service; yields its base URL.

    Used by the harness (`run through the service`), the test suite, and
    CI smoke checks.  ``workers=0`` runs solves inline in the dispatcher
    thread — no process pool — which is the cheapest way to exercise the
    cache path.
    """
    service = AnalysisService(
        workers=workers,
        cache_capacity=cache_capacity,
        cache_dir=cache_dir,
        receipt_dir=receipt_dir,
        max_sessions=max_sessions,
        journal=journal,
        max_queue_depth=max_queue_depth,
    )
    server, _thread = start_server(service)
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    cache_capacity: int = 128,
    cache_dir: Optional[str] = None,
    receipt_dir: Optional[str] = None,
    verbose: bool = False,
    max_sessions: int = 16,
    journal: Optional[str] = None,
    max_queue_depth: Optional[int] = None,
) -> int:
    """Blocking entry point behind ``repro serve``."""
    service = AnalysisService(
        workers=workers,
        cache_capacity=cache_capacity,
        cache_dir=cache_dir,
        receipt_dir=receipt_dir,
        max_sessions=max_sessions,
        journal=journal,
        max_queue_depth=max_queue_depth,
    )
    service.start()
    server = create_server(service, host, port, verbose=verbose)
    bound_host, bound_port = server.server_address[:2]
    print(
        f"repro service listening on http://{bound_host}:{bound_port} "
        f"(workers={workers}, cache={cache_capacity}"
        + (f", cache-dir={cache_dir}" if cache_dir else "")
        + (f", journal={journal}" if journal is not None else "")
        + ")",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
        service.stop()
    return 0
