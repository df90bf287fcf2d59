"""Analysis-as-a-service: job queue, worker pool, content-addressed cache.

The service layer turns the one-shot CLI pipeline (parse → encode →
solve → print) into a persistent server: jobs are submitted over a JSON
HTTP API, ordered by priority, executed on a process pool under per-job
tuple/wall-clock budgets, and answered from a content-addressed result
cache keyed on the fact-base digest.  Introspective jobs additionally
reuse the shared context-insensitive first pass per program, per worker.
An optional fsynced job journal (:mod:`repro.service.journal`) makes
accepted work survive a crash, and an optional queue-depth bound answers
overload with 429.

Entry points::

    repro serve --port 8080 --workers 4 --cache-dir /tmp/repro-cache
    repro serve --journal /tmp/repro-journal.jsonl --max-queue-depth 64

    from repro.service import AnalysisService, JobSpec, local_service
    from repro.service.client import ServiceClient
"""

from .api import AnalysisService, create_server, local_service, serve, start_server
from .cache import ResultCache, cache_key
from .client import ServiceClient, ServiceError
from .jobs import Backpressure, Job, JobQueue, JobSpec, JobState, TERMINAL_STATES
from .telemetry import Counter, Gauge, Histogram, Registry
from .workers import WorkerPool, execute_job

__all__ = [
    "AnalysisService",
    "Backpressure",
    "Counter",
    "Gauge",
    "Histogram",
    "Job",
    "JobQueue",
    "JobSpec",
    "JobState",
    "Registry",
    "ResultCache",
    "ServiceClient",
    "ServiceError",
    "TERMINAL_STATES",
    "WorkerPool",
    "cache_key",
    "create_server",
    "execute_job",
    "local_service",
    "serve",
    "start_server",
]
