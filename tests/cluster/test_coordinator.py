"""Coordinator unit tests: journaled intake, leases, liveness, 429s.

These drive :class:`ClusterCoordinator` directly on a never-started
service — jobs stay queued unless a (test-issued) lease pulls them, which
makes worker-loss interleavings deterministic.
"""

from __future__ import annotations

import time

import pytest

from repro.cluster import Backpressure, ClusterConfig
from repro.cluster.journal import read_journal
from repro.service import AnalysisService, JobSpec, JobState


def make_service(tmp_path, **overrides) -> AnalysisService:
    config = ClusterConfig(
        journal=str(tmp_path / "journal.jsonl"), **overrides
    )
    return AnalysisService(workers=0, cluster=config)


def make_spec(**kwargs) -> JobSpec:
    kwargs.setdefault("benchmark", "antlr")
    kwargs.setdefault("analysis", "insens")
    return JobSpec(**kwargs)


def done_payload(digest: str) -> dict:
    return {
        "state": JobState.DONE,
        "facts_digest": digest,
        "stats": {"tuple_count": 7, "seconds": 0.01},
    }


class TestDurableIntake:
    def test_submit_journals_before_queueing(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            assert service.queue.depth() == 1
            records, _, _ = read_journal(service.cluster.journal.path)
            assert [r["type"] for r in records] == ["accepted"]
            assert records[0]["id"] == job.id
            assert records[0]["spec"]["benchmark"] == "antlr"
        finally:
            service.stop()

    def test_replay_restores_unfinished_jobs_with_original_ids(self, tmp_path):
        first = make_service(tmp_path)
        survivor = first.submit(make_spec())
        finished = first.submit(make_spec(analysis="1call"))
        first.cluster.record_terminal(finished.id, JobState.DONE)
        first.stop()

        second = make_service(tmp_path)
        try:
            restored = second.job(survivor.id)
            assert restored is not None
            assert restored.state == JobState.QUEUED
            assert restored.spec.benchmark == "antlr"
            assert second.job(finished.id) is None
            assert second.queue.depth() == 1
            assert second.cluster._m_replayed.total() == 1
        finally:
            second.stop()

    def test_cancelled_job_is_not_replayed(self, tmp_path):
        first = make_service(tmp_path)
        job = first.submit(make_spec())
        assert first.cancel(job.id)
        first.stop()
        second = make_service(tmp_path)
        try:
            assert second.queue.depth() == 0
            assert second.job(job.id) is None
        finally:
            second.stop()

    def test_requeue_attempts_survive_restart(self, tmp_path):
        first = make_service(tmp_path, heartbeat_timeout=0.05)
        job = first.submit(make_spec())
        worker = first.cluster.register_worker()
        leased = first.cluster.lease(worker["id"])
        assert leased["job_id"] == job.id
        time.sleep(0.1)
        assert first.cluster.reap() == [worker["id"]]
        first.stop()

        second = make_service(tmp_path)
        try:
            assert second.cluster._attempts[job.id] == 1
        finally:
            second.stop()


class TestLeases:
    def test_register_lease_complete_flow(self, tmp_path):
        receipt_dir = tmp_path / "receipts"
        service = make_service(tmp_path)
        service.receipt_dir = str(receipt_dir)
        try:
            job = service.submit(make_spec())
            worker = service.cluster.register_worker(name="w1")
            leased = service.cluster.lease(worker["id"])
            assert leased["job_id"] == job.id
            assert leased["spec"]["benchmark"] == "antlr"
            assert job.state == JobState.RUNNING
            assert service.cluster.lease_count() == 1

            accepted = service.cluster.complete(
                worker["id"], job.id, done_payload(leased["facts_digest"])
            )
            assert accepted
            assert job.state == JobState.DONE
            assert job.result["worker"]["id"] == worker["id"]
            assert job.result["worker"]["name"] == "w1"
            assert service.cluster.lease_count() == 0
            # Exactly one receipt for the completed job.
            assert len(list(receipt_dir.glob("*.json"))) == 1
        finally:
            service.stop()

    def test_empty_queue_leases_none(self, tmp_path):
        service = make_service(tmp_path)
        try:
            worker = service.cluster.register_worker()
            assert service.cluster.lease(worker["id"]) is None
        finally:
            service.stop()

    def test_unknown_worker_cannot_lease(self, tmp_path):
        service = make_service(tmp_path)
        try:
            with pytest.raises(KeyError):
                service.cluster.lease("deadbeef")
        finally:
            service.stop()

    def test_cache_hit_is_answered_inline(self, tmp_path):
        service = make_service(tmp_path)
        try:
            first = service.submit(make_spec())
            worker = service.cluster.register_worker()
            leased = service.cluster.lease(worker["id"])
            service.cluster.complete(
                worker["id"], first.id, done_payload(leased["facts_digest"])
            )
            # An identical submission never reaches a worker.
            second = service.submit(make_spec())
            assert service.cluster.lease(worker["id"]) is None
            assert second.state == JobState.DONE
            assert second.cached is True
        finally:
            service.stop()

    def test_stale_completion_is_rejected_with_one_receipt(self, tmp_path):
        receipt_dir = tmp_path / "receipts"
        service = make_service(tmp_path, heartbeat_timeout=0.05)
        service.receipt_dir = str(receipt_dir)
        try:
            job = service.submit(make_spec())
            lost = service.cluster.register_worker()
            leased = service.cluster.lease(lost["id"])
            digest = leased["facts_digest"]
            time.sleep(0.1)
            assert service.cluster.reap() == [lost["id"]]
            assert job.state == JobState.QUEUED  # requeued, attempt 1

            fresh = service.cluster.register_worker()
            assert service.cluster.lease(fresh["id"])["job_id"] == job.id
            assert service.cluster.complete(
                fresh["id"], job.id, done_payload(digest)
            )
            # The lost worker reports late: stale, ignored, no 2nd receipt.
            assert not service.cluster.complete(
                lost["id"], job.id, done_payload(digest)
            )
            assert job.state == JobState.DONE
            assert job.result["worker"]["id"] == fresh["id"]
            assert len(list(receipt_dir.glob("*.json"))) == 1
            assert service.cluster._m_completions.value(outcome="stale") == 1
        finally:
            service.stop()

    def test_bounded_retries_then_dead_letter(self, tmp_path):
        service = make_service(tmp_path, heartbeat_timeout=0.05, max_retries=1)
        try:
            job = service.submit(make_spec())
            for attempt in (1, 2):
                worker = service.cluster.register_worker()
                assert service.cluster.lease(worker["id"])["job_id"] == job.id
                time.sleep(0.1)
                assert service.cluster.reap() == [worker["id"]]
            # Two lost leases at max_retries=1: dead-lettered, not requeued.
            assert job.state == JobState.ERROR
            assert job.result["dead_lettered"] is True
            assert "dead-lettered after 2 attempts" in job.error
            assert job.id in service.cluster.dead_letters
            assert service.queue.depth() == 0
            # The terminal state is journaled: no zombie replay.
            records, _, _ = read_journal(service.cluster.journal.path)
            assert [r["type"] for r in records] == [
                "accepted", "requeue", "done",
            ]
        finally:
            service.stop()

    def test_detach_requeues_immediately(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            worker = service.cluster.register_worker()
            service.cluster.lease(worker["id"])
            assert service.cluster.detach_worker(worker["id"])
            assert job.state == JobState.QUEUED
            assert service.queue.depth() == 1
            assert not service.cluster.detach_worker(worker["id"])
        finally:
            service.stop()


class TestBackpressure:
    def test_queue_depth_cap(self, tmp_path):
        service = make_service(tmp_path, max_queue_depth=1)
        try:
            service.submit(make_spec())
            with pytest.raises(Backpressure) as exc:
                service.submit(make_spec(analysis="1call"))
            assert exc.value.reason == "queue_full"
            assert exc.value.retry_after > 0
            # The rejected job never reached the journal.
            records, _, _ = read_journal(service.cluster.journal.path)
            assert len(records) == 1
        finally:
            service.stop()


class TestTopology:
    def test_snapshot_shape(self, tmp_path):
        service = make_service(tmp_path)
        try:
            service.submit(make_spec())
            worker = service.cluster.register_worker(name="w1")
            service.cluster.lease(worker["id"])
            topo = service.cluster.topology()
            assert topo["node_id"] == "coordinator"
            (worker_snap,) = topo["workers"]
            assert worker_snap["alive"] is True
            assert worker_snap["name"] == "w1"
            (lease_snap,) = topo["leases"]
            assert lease_snap["worker"] == worker["id"]
            assert topo["journal"]["records"] == 1
            assert topo["journal"]["bytes"] > 0
        finally:
            service.stop()
