"""Distributed coordinator/worker service with a crash-safe job journal.

The cluster layer takes the single-process analysis service multi-node
(``docs/cluster.md``):

* a **coordinator** (``repro serve --journal FILE``) that journals every
  accepted job to an fsynced append-only log and replays it on restart,
  so a coordinator crash loses no accepted work; it keeps the one result
  cache, answering hits before a job is leased and filling it from
  worker completions;
* **workers** (``repro worker --coordinator URL``) that register,
  heartbeat, and pull jobs over stdlib HTTP — a worker that misses its
  heartbeat window has its leases expired and jobs requeued, with a
  bounded retry count before dead-lettering;
* **backpressure**: a bounded queue depth, answered with ``429`` +
  ``Retry-After`` on ``POST /jobs``.

With no workers joined the coordinator behaves exactly like the plain
single-process ``repro serve``.
"""

from .coordinator import Backpressure, ClusterConfig, ClusterCoordinator
from .journal import (
    JOURNAL_SCHEMA,
    JobJournal,
    pending_jobs,
    read_journal,
)
from .worker import WorkerNode, run_worker

__all__ = [
    "Backpressure",
    "ClusterConfig",
    "ClusterCoordinator",
    "JOURNAL_SCHEMA",
    "JobJournal",
    "WorkerNode",
    "pending_jobs",
    "read_journal",
    "run_worker",
]
