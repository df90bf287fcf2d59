"""Distributed coordinator/worker service with a crash-safe job journal.

The cluster layer takes the single-process analysis service multi-node
(``docs/cluster.md``):

* a **coordinator** (``repro serve --journal FILE``) that journals every
  accepted job to an fsynced append-only log and replays it on restart,
  so a coordinator crash loses no accepted work;
* **workers** (``repro worker --coordinator URL``) that register,
  heartbeat, and pull jobs over stdlib HTTP — a worker that misses its
  heartbeat window has its leases expired and jobs requeued, with a
  bounded retry count before dead-lettering;
* the **result cache sharded** across all nodes by consistent hashing
  on ``FactBase.digest()``, with local fallback on peer failure;
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
from .ring import HashRing
from .shard import ShardedResultCache
from .worker import WorkerNode, run_worker

__all__ = [
    "Backpressure",
    "ClusterConfig",
    "ClusterCoordinator",
    "HashRing",
    "JOURNAL_SCHEMA",
    "JobJournal",
    "ShardedResultCache",
    "WorkerNode",
    "pending_jobs",
    "read_journal",
    "run_worker",
]
