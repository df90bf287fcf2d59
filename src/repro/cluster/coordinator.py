"""The cluster coordinator: journaled intake, leases, and liveness.

:class:`ClusterCoordinator` is an extension object attached to an
:class:`~repro.service.api.AnalysisService` (``service.cluster``).  It
adds three responsibilities on top of the single-process service, without
changing its behavior when no workers ever join:

* **Durable intake** — every job accepted on ``POST /jobs`` is appended
  to the :class:`~repro.cluster.journal.JobJournal` (fsynced) *before*
  the 202 is sent; on restart the journal is replayed and every
  accepted-but-unfinished job re-enters the queue with its original id.
* **Worker registry + leases** — workers register, heartbeat, and pull
  jobs.  A granted lease ties a running job to one worker; a worker that
  misses its heartbeat window has its leases expired and the jobs
  requeued, up to ``max_retries`` requeues before dead-lettering.
* **Backpressure** — a bounded queue depth; submissions past it are
  rejected with :class:`Backpressure`, which the HTTP layer turns into
  ``429`` + ``Retry-After``.

The local dispatcher keeps running: with zero live workers the
coordinator executes jobs exactly as the plain service does (the
single-process fallback); once a worker is live, the local dispatcher
defers and the pull path takes over.  Both paths read and fill the one
result cache, ``service.cache``: workers execute and report, but hold
no cache of their own.
"""

from __future__ import annotations

import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from ..service.jobs import Job, JobSpec, JobState
from .journal import JobJournal

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..service.api import AnalysisService

__all__ = ["Backpressure", "ClusterConfig", "ClusterCoordinator"]


class Backpressure(Exception):
    """The coordinator refuses new work right now (HTTP 429)."""

    def __init__(self, reason: str, retry_after: float) -> None:
        super().__init__(f"backpressure ({reason}); retry in {retry_after:.2f}s")
        self.reason = reason
        self.retry_after = retry_after


@dataclass(frozen=True)
class ClusterConfig:
    """Coordinator tuning; ``journal`` is the only required field."""

    journal: str
    node_id: str = "coordinator"
    #: A worker silent for longer than this is declared dead: its leases
    #: expire and its jobs requeue.  Lease requests and completions count
    #: as liveness, not just explicit heartbeats.
    heartbeat_timeout: float = 10.0
    #: Requeues per job before dead-lettering (so a job may be leased at
    #: most ``1 + max_retries`` times).
    max_retries: int = 3
    #: ``POST /jobs`` returns 429 once this many jobs are queued.
    max_queue_depth: Optional[int] = None
    #: Reaper cadence; defaults to a quarter of the heartbeat window.
    reaper_interval: Optional[float] = None


@dataclass
class WorkerInfo:
    """One registered worker node."""

    id: str
    name: Optional[str] = None
    registered_at: float = field(default_factory=time.time)
    last_seen: float = field(default_factory=time.monotonic)
    jobs_completed: int = 0

    def snapshot(self, now: float, timeout: float) -> Dict[str, Any]:
        return {
            "id": self.id,
            "name": self.name,
            "registered_at": self.registered_at,
            "seconds_since_seen": round(max(0.0, now - self.last_seen), 3),
            "alive": (now - self.last_seen) <= timeout,
            "jobs_completed": self.jobs_completed,
        }


@dataclass
class Lease:
    """A running job granted to one worker."""

    job: Job
    worker_id: str
    key: str  # result-cache content key
    digest: str  # facts digest
    granted_mono: float = field(default_factory=time.monotonic)


class ClusterCoordinator:
    """Cluster brain bolted onto one :class:`AnalysisService`."""

    def __init__(self, service: "AnalysisService", config: ClusterConfig) -> None:
        self.service = service
        self.config = config
        self.node_id = config.node_id
        t = service.telemetry
        self._m_workers = t.gauge(
            "repro_cluster_workers", "Live registered worker nodes."
        )
        self._m_leases = t.gauge(
            "repro_cluster_leases", "Jobs currently leased to workers."
        )
        self._m_journal_records = t.counter(
            "repro_cluster_journal_records_total",
            "Journal records appended, by type.",
        )
        self._m_journal_bytes = t.gauge(
            "repro_cluster_journal_bytes", "Job journal size on disk."
        )
        self._m_requeues = t.counter(
            "repro_cluster_requeues_total",
            "Jobs requeued after their worker was lost.",
        )
        self._m_dead_letters = t.counter(
            "repro_cluster_dead_letters_total",
            "Jobs dead-lettered after exhausting their retries.",
        )
        self._m_rejected = t.counter(
            "repro_cluster_rejected_total",
            "Submissions rejected with 429, by reason.",
        )
        self._m_replayed = t.counter(
            "repro_cluster_replayed_jobs_total",
            "Jobs re-enqueued from the journal at startup.",
        )
        self._m_completions = t.counter(
            "repro_cluster_completions_total",
            "Worker completion reports, by outcome.",
        )

        self._lock = threading.RLock()
        self._workers: Dict[str, WorkerInfo] = {}
        self._leases: Dict[str, Lease] = {}
        self._attempts: Dict[str, int] = {}
        self.dead_letters: List[str] = []
        self._stop = threading.Event()
        self._reaper: Optional[threading.Thread] = None

        self.journal = JobJournal(config.journal)
        self._m_journal_bytes.set(self.journal.size_bytes())
        self._replay()

    # ------------------------------------------------------------------
    # Journal
    # ------------------------------------------------------------------
    def _journal(self, type: str, **fields: Any) -> None:
        try:
            self.journal.append(type, **fields)
        except OSError:
            # A full disk must not turn a finished job into a crashed
            # coordinator; the cost is a possible replay after restart.
            return
        self._m_journal_records.inc(type=type)
        self._m_journal_bytes.set(self.journal.size_bytes())

    def _replay(self) -> None:
        """Re-enqueue accepted-but-unfinished jobs from the journal."""
        pending, attempts = self.journal.pending()
        for job_id, record in pending.items():
            try:
                spec = JobSpec.from_payload(record["spec"])
            except (ValueError, TypeError, KeyError):
                # A journaled spec that no longer validates (e.g. a
                # benchmark renamed across versions) is dead-lettered,
                # not silently dropped.
                self._journal("done", id=job_id, state=JobState.ERROR)
                continue
            job = Job(spec=spec, id=job_id)
            self._attempts[job_id] = attempts.get(job_id, 0)
            self.service.enqueue(job)
            self._m_replayed.inc()

    def record_terminal(self, job_id: str, state: str) -> None:
        """Journal a terminal transition (called from ``_finalize``)."""
        with self._lock:
            self._attempts.pop(job_id, None)
        self._journal("done", id=job_id, state=state)

    # ------------------------------------------------------------------
    # Intake: backpressure + durable accept
    # ------------------------------------------------------------------
    def submit(self, spec: JobSpec) -> Job:
        """Admission control, durable journaling, then enqueue."""
        depth_cap = self.config.max_queue_depth
        if depth_cap is not None and self.service.queue.depth() >= depth_cap:
            self._m_rejected.inc(reason="queue_full")
            raise Backpressure("queue_full", retry_after=1.0)
        job = Job(spec=spec)
        # Durability before acknowledgement: the accepted record must be
        # fsynced before the job becomes observable (202, queue).
        self.journal.accepted(job.id, spec.to_payload())
        self._m_journal_records.inc(type="accepted")
        self._m_journal_bytes.set(self.journal.size_bytes())
        return self.service.enqueue(job)

    # ------------------------------------------------------------------
    # Worker registry
    # ------------------------------------------------------------------
    def register_worker(self, name: Optional[str] = None) -> Dict[str, Any]:
        worker = WorkerInfo(id=uuid.uuid4().hex[:12], name=name)
        with self._lock:
            self._workers[worker.id] = worker
            self._m_workers.set(len(self._workers))
        return {
            "id": worker.id,
            "node_id": self.node_id,
            "heartbeat_seconds": self.config.heartbeat_timeout / 3.0,
            "heartbeat_timeout": self.config.heartbeat_timeout,
        }

    def heartbeat(self, worker_id: str) -> bool:
        with self._lock:
            worker = self._workers.get(worker_id)
            if worker is None:
                return False
            worker.last_seen = time.monotonic()
            return True

    def detach_worker(self, worker_id: str) -> bool:
        """Graceful worker shutdown: requeue its leases immediately."""
        with self._lock:
            if worker_id not in self._workers:
                return False
            self._expire_worker(worker_id, reason="detached")
            return True

    def live_workers(self) -> List[WorkerInfo]:
        now = time.monotonic()
        with self._lock:
            return [
                w
                for w in self._workers.values()
                if now - w.last_seen <= self.config.heartbeat_timeout
            ]

    def defer_local(self) -> bool:
        """True when live workers exist: the local dispatcher yields."""
        return bool(self.live_workers())

    def lease_count(self) -> int:
        with self._lock:
            return len(self._leases)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    def lease(self, worker_id: str) -> Optional[Dict[str, Any]]:
        """Grant the next runnable job to ``worker_id`` (None = empty).

        Cache hits are answered inline (the worker never sees them) and
        the pop continues to the next queued job.  A lease request
        counts as a heartbeat — a pulling worker is a live worker.
        """
        if not self.heartbeat(worker_id):
            raise KeyError(worker_id)
        while True:
            job = self.service.queue.pop(timeout=0)
            self.service._m_depth.set(self.service.queue.depth())
            if job is None:
                return None
            if job.cancel_requested:
                continue  # already finalized by cancel()
            job.mark_started()
            try:
                from ..facts.encoder import encode_program
                from ..service.cache import cache_key
                from ..service.workers import _build_program

                program = _build_program(job.spec)
                digest = encode_program(program).digest()
            except Exception as exc:  # noqa: BLE001 - bad source/benchmark
                self.service._finalize(
                    job,
                    {
                        "state": JobState.ERROR,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                    store_key=None,
                    release_slot=False,
                )
                continue
            key = cache_key(digest, job.spec)
            cached = self.service.cache.get(key)
            if cached is not None:
                cached = dict(cached)
                cached["cached"] = True
                self.service._finalize(
                    job, cached, store_key=None, release_slot=False
                )
                continue
            job.state = JobState.RUNNING
            self.service._m_running.inc()
            with self._lock:
                self._leases[job.id] = Lease(
                    job=job, worker_id=worker_id, key=key, digest=digest
                )
                self._m_leases.set(len(self._leases))
            return {
                "job_id": job.id,
                "spec": job.spec.to_payload(),
                "facts_digest": digest,
            }

    def complete(
        self, worker_id: str, job_id: str, payload: Dict[str, Any]
    ) -> bool:
        """Accept a worker's result; False for stale/unknown leases.

        Staleness is the exactly-once guard: a lease that expired (the
        job was requeued, possibly finished elsewhere) makes the late
        completion a no-op, so every job finalizes — and emits its
        warehouse receipt — exactly once.
        """
        self.heartbeat(worker_id)
        with self._lock:
            lease = self._leases.get(job_id)
            if lease is None or lease.worker_id != worker_id:
                self._m_completions.inc(outcome="stale")
                return False
            del self._leases[job_id]
            self._m_leases.set(len(self._leases))
            worker = self._workers.get(worker_id)
            if worker is not None:
                worker.jobs_completed += 1
                provenance = {"id": worker_id, "name": worker.name}
            else:  # pragma: no cover - completed right after detach
                provenance = {"id": worker_id, "name": None}
        if not isinstance(payload, dict) or "state" not in payload:
            payload = {
                "state": JobState.ERROR,
                "error": "worker returned a malformed result payload",
            }
        payload = dict(payload)
        payload.setdefault("worker", provenance)
        state = payload.get("state")
        if state in (JobState.DONE, JobState.TIMEOUT):
            self.service.cache.put(lease.key, payload)
        self._m_completions.inc(outcome="accepted")
        self.service._m_running.dec()
        self.service._finalize(
            lease.job, payload, store_key=None, release_slot=False
        )
        return True

    def local_worker_provenance(self) -> Dict[str, Any]:
        """Provenance stamp for jobs the coordinator executed itself."""
        return {"id": self.node_id, "name": "local"}

    # ------------------------------------------------------------------
    # Liveness reaper
    # ------------------------------------------------------------------
    def _expire_worker(self, worker_id: str, reason: str) -> None:
        """Drop a worker and requeue its leases (caller holds the lock)."""
        self._workers.pop(worker_id, None)
        self._m_workers.set(len(self._workers))
        doomed = [
            lease
            for lease in self._leases.values()
            if lease.worker_id == worker_id
        ]
        for lease in doomed:
            del self._leases[lease.job.id]
            self._requeue(lease, reason=reason)
        self._m_leases.set(len(self._leases))

    def _requeue(self, lease: Lease, reason: str) -> None:
        """Retry or dead-letter one expired lease (caller holds the lock)."""
        job = lease.job
        attempts = self._attempts.get(job.id, 0) + 1
        self._attempts[job.id] = attempts
        self.service._m_running.dec()
        if attempts > self.config.max_retries:
            self.dead_letters.append(job.id)
            self._m_dead_letters.inc()
            self.service._finalize(
                job,
                {
                    "state": JobState.ERROR,
                    "error": (
                        f"dead-lettered after {attempts} attempts "
                        f"(last worker {lease.worker_id} {reason})"
                    ),
                    "dead_lettered": True,
                },
                store_key=None,
                release_slot=False,
            )
            return
        self._m_requeues.inc()
        self._journal(
            "requeue", id=job.id, attempts=attempts, worker=lease.worker_id
        )
        job.state = JobState.QUEUED
        self.service.queue.put(job)
        self.service._m_depth.set(self.service.queue.depth())

    def reap(self) -> List[str]:
        """One liveness sweep; returns the ids of workers expired."""
        now = time.monotonic()
        expired: List[str] = []
        with self._lock:
            for worker_id, worker in list(self._workers.items()):
                if now - worker.last_seen > self.config.heartbeat_timeout:
                    self._expire_worker(worker_id, reason="missed heartbeats")
                    expired.append(worker_id)
        return expired

    def _reaper_loop(self) -> None:
        interval = self.config.reaper_interval
        if interval is None:
            interval = max(0.05, self.config.heartbeat_timeout / 4.0)
        while not self._stop.wait(interval):
            self.reap()

    # ------------------------------------------------------------------
    # Lifecycle + introspection
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._reaper is not None:
            return
        self._stop.clear()
        self._reaper = threading.Thread(
            target=self._reaper_loop, name="repro-cluster-reaper", daemon=True
        )
        self._reaper.start()

    def stop(self) -> None:
        self._stop.set()
        if self._reaper is not None:
            self._reaper.join(timeout=5.0)
            self._reaper = None
        self.journal.close()

    def topology(self) -> Dict[str, Any]:
        """The ``GET /cluster`` snapshot."""
        now = time.monotonic()
        timeout = self.config.heartbeat_timeout
        with self._lock:
            workers = [
                w.snapshot(now, timeout) for w in self._workers.values()
            ]
            leases = [
                {
                    "job_id": lease.job.id,
                    "worker": lease.worker_id,
                    "facts_digest": lease.digest,
                    "held_seconds": round(now - lease.granted_mono, 3),
                }
                for lease in self._leases.values()
            ]
            dead = list(self.dead_letters)
        return {
            "node_id": self.node_id,
            "workers": workers,
            "leases": leases,
            "dead_letters": dead,
            "journal": {
                "path": self.journal.path,
                "records": len(self.journal.records),
                "bytes": self.journal.size_bytes(),
                "torn_records_recovered": self.journal.torn_records,
            },
            "config": {
                "heartbeat_timeout": self.config.heartbeat_timeout,
                "max_retries": self.config.max_retries,
                "max_queue_depth": self.config.max_queue_depth,
            },
        }
