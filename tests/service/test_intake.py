"""Crash-safe intake and backpressure: the journal and the queue bound.

The unit tests drive a never-started :class:`AnalysisService` — jobs stay
queued, so what the journal holds at each step is deterministic.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    AnalysisService,
    Backpressure,
    JobSpec,
    JobState,
    ServiceClient,
    ServiceError,
)
from repro.service.api import create_server, local_service
from repro.service.journal import read_journal


def make_service(tmp_path, **overrides) -> AnalysisService:
    return AnalysisService(
        workers=0, journal=str(tmp_path / "journal.jsonl"), **overrides
    )


def make_spec(**kwargs) -> JobSpec:
    kwargs.setdefault("benchmark", "antlr")
    kwargs.setdefault("analysis", "insens")
    return JobSpec(**kwargs)


class TestDurableIntake:
    def test_submit_journals_before_queueing(self, tmp_path):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            assert service.queue.depth() == 1
            records, _, _ = read_journal(service.journal.path)
            assert [r["type"] for r in records] == ["accepted"]
            assert records[0]["id"] == job.id
            assert records[0]["spec"]["benchmark"] == "antlr"
        finally:
            service.stop()

    def test_replay_restores_unfinished_jobs_with_original_ids(self, tmp_path):
        first = make_service(tmp_path)
        survivor = first.submit(make_spec())
        finished = first.submit(make_spec(analysis="1call"))
        first.journal.done(finished.id, JobState.DONE)
        first.stop()

        second = make_service(tmp_path)
        try:
            restored = second.job(survivor.id)
            assert restored is not None
            assert restored.state == JobState.QUEUED
            assert restored.spec.benchmark == "antlr"
            assert second.job(finished.id) is None
            assert second.queue.depth() == 1
            assert second._m_replayed.total() == 1
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

    def test_restart_replays_unfinished_jobs(self, tmp_path):
        journal = str(tmp_path / "journal.jsonl")
        # First life: accept jobs but never run them (no dispatcher),
        # then die with them queued.
        first = AnalysisService(workers=0, journal=journal)
        accepted = [
            first.submit(JobSpec(benchmark="antlr", analysis="insens")),
            first.submit(JobSpec(benchmark="antlr", analysis="1call")),
        ]
        first.stop()

        # Second life: the replayed jobs complete under their old ids.
        with local_service(workers=0, journal=journal) as url:
            client = ServiceClient(url)
            for job in accepted:
                snapshot = client.wait(job.id, timeout=120)
                assert snapshot["state"] == "done"

    def test_failed_done_append_is_logged_and_counted(
        self, tmp_path, monkeypatch, caplog
    ):
        service = make_service(tmp_path)
        try:
            job = service.submit(make_spec())
            original = service.journal.append

            def disk_full(type, **fields):
                if type == "done":
                    raise OSError(28, "No space left on device")
                return original(type, **fields)

            monkeypatch.setattr(service.journal, "append", disk_full)
            # The cancel still succeeds; the lost record is visible.
            assert service.cancel(job.id)
            assert job.state == JobState.CANCELLED
            assert "journal append failed" in caplog.text
            assert "repro_service_journal_errors_total 1" in (
                service.telemetry.render()
            )
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
            records, _, _ = read_journal(service.journal.path)
            assert len(records) == 1
        finally:
            service.stop()

    def test_http_backpressure(self, tmp_path):
        with local_service(
            workers=0,
            journal=str(tmp_path / "journal.jsonl"),
            max_queue_depth=0,
        ) as url:
            client = ServiceClient(url)
            with pytest.raises(ServiceError) as exc:
                client.submit(benchmark="antlr", analysis="insens")
            assert exc.value.status == 429
            assert exc.value.payload["reason"] == "queue_full"
            # Retry-After surfaced through the client (header or body).
            assert exc.value.retry_after and exc.value.retry_after > 0

    def test_queue_bound_applies_without_a_journal(self):
        # Never started: the first job stays queued and fills the bound.
        service = AnalysisService(workers=0, max_queue_depth=1)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        body = json.dumps({"benchmark": "antlr", "analysis": "insens"})

        def post() -> urllib.request.Request:
            return urllib.request.Request(
                f"http://{host}:{port}/jobs", data=body.encode(), method="POST"
            )

        try:
            with urllib.request.urlopen(post(), timeout=30) as resp:
                assert resp.status == 202
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(post(), timeout=30)
            assert exc.value.code == 429
            assert int(exc.value.headers["Retry-After"]) >= 1
            assert json.loads(exc.value.read())["reason"] == "queue_full"
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
