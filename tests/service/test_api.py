"""End-to-end tests: HTTP API, cache hits via /metrics, process pools."""

from __future__ import annotations

import multiprocessing
import os
import signal
import time

import pytest

from repro.service import AnalysisService, JobSpec, ServiceClient, ServiceError
from repro.service.api import local_service


@pytest.fixture(scope="class")
def client():
    """One inline-worker service per test class, on an ephemeral port."""
    with local_service(workers=0) as url:
        yield ServiceClient(url)


class TestEndToEnd:
    def test_submit_poll_result_then_cache_hit(self, client, tmp_path):
        job_id = client.submit(
            benchmark="antlr", analysis="insens", show=["?nope"]
        )
        snapshot = client.wait(job_id, timeout=60)
        assert snapshot["state"] == "done"

        res = client.result(job_id)
        assert res["cached"] is False
        payload = res["result"]
        assert payload["analysis"] == "insens"
        assert payload["stats"]["tuple_count"] > 0
        assert payload["points_to"] == {"?nope": []}

        # The second identical submission is answered from the cache.
        again = client.submit(
            benchmark="antlr", analysis="insens", show=["?nope"]
        )
        client.wait(again, timeout=60)
        assert client.result(again)["cached"] is True
        assert client.metric_value("repro_service_cache_hits_total") >= 1
        assert client.metric_value("repro_service_cache_misses_total") >= 1

    def test_tiny_budget_times_out_without_killing_the_pool(self, client):
        job_id = client.submit(
            benchmark="antlr", analysis="2objH", max_tuples=10
        )
        assert client.wait(job_id, timeout=60)["state"] == "timeout"
        payload = client.result(job_id)["result"]
        assert "tuple budget" in payload["error"]

        # The pool survived: the next job still completes.
        after = client.submit(benchmark="lusearch", analysis="insens")
        assert client.wait(after, timeout=60)["state"] == "done"

    def test_healthz(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 0
        assert "queue_depth" in health and "uptime_seconds" in health

    def test_metrics_exposition_shape(self, client):
        text = client.metrics()
        assert "# TYPE repro_service_jobs_total counter" in text
        assert "# TYPE repro_service_solve_seconds histogram" in text
        assert "repro_service_workers 0" in text

    def test_job_listing(self, client):
        client.wait(client.submit(benchmark="antlr", analysis="insens"), 60)
        listing = client._request("GET", "/jobs")
        assert any(j["state"] == "done" for j in listing["jobs"])

    def test_error_job_surfaces_message(self, client):
        job_id = client.submit(source="class {", analysis="insens")
        assert client.wait(job_id, timeout=60)["state"] == "error"
        assert client.result(job_id)["result"]["error"]


class TestHTTPErrors:
    def test_unknown_job_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client.status("deadbeef")
        assert exc.value.status == 404

    def test_bad_submission_400(self, client):
        with pytest.raises(ServiceError) as exc:
            client.submit(benchmark="antlr", bogus_field=1)
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client.submit(benchmark="not-a-benchmark")
        assert exc.value.status == 400

    def test_unknown_route_404(self, client):
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/nope")
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/nope")
        assert exc.value.status == 404

    def test_result_of_unfinished_job_409(self):
        # A service whose dispatcher is never started: jobs stay queued,
        # so /result must answer 409 and DELETE must cancel.
        from repro.service.api import create_server
        import threading

        service = AnalysisService(workers=0)
        server = create_server(service)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = ServiceClient(f"http://{host}:{port}")
        try:
            job_id = client.submit(benchmark="antlr", analysis="insens")
            with pytest.raises(ServiceError) as exc:
                client.result(job_id)
            assert exc.value.status == 409
            # And a queued job can be cancelled over HTTP.
            assert client.cancel(job_id)["state"] == "cancelled"
            with pytest.raises(ServiceError) as exc:
                client.cancel(job_id)
            assert exc.value.status == 409
        finally:
            server.shutdown()
            server.server_close()
            service.stop()


class TestCachedTimeouts:
    def test_identical_budget_trip_is_cached(self):
        with local_service(workers=0) as url:
            client = ServiceClient(url)
            first = client.submit(
                benchmark="antlr", analysis="2objH", max_tuples=10
            )
            assert client.wait(first, 60)["state"] == "timeout"
            second = client.submit(
                benchmark="antlr", analysis="2objH", max_tuples=10
            )
            assert client.wait(second, 60)["state"] == "timeout"
            assert client.result(second)["cached"] is True


class TestDiskCacheAcrossRestarts:
    def test_second_service_instance_hits_disk(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        with local_service(workers=0, cache_dir=cache_dir) as url:
            client = ServiceClient(url)
            client.wait(client.submit(benchmark="antlr", analysis="insens"), 60)
        with local_service(workers=0, cache_dir=cache_dir) as url:
            client = ServiceClient(url)
            job_id = client.submit(benchmark="antlr", analysis="insens")
            client.wait(job_id, 60)
            assert client.result(job_id)["cached"] is True
            assert 'tier="disk"' in client.metrics()


class TestPriorityScheduling:
    def test_high_priority_overtakes(self):
        """With the dispatcher stopped, order is decided purely by priority."""
        service = AnalysisService(workers=0)
        low = service.submit(JobSpec(benchmark="antlr", analysis="insens"))
        high = service.submit(
            JobSpec(benchmark="lusearch", analysis="insens", priority=5)
        )
        assert service.queue.pop(0.1) is high
        assert service.queue.pop(0.1) is low
        service.stop()


class TestProcessPool:
    """One real multi-process smoke test (everything else runs inline)."""

    def test_jobs_run_in_worker_processes(self):
        with local_service(workers=2) as url:
            client = ServiceClient(url)
            ids = [
                client.submit(benchmark="antlr", analysis="insens"),
                client.submit(benchmark="lusearch", analysis="insens"),
            ]
            states = [client.wait(i, timeout=120)["state"] for i in ids]
            assert states == ["done", "done"]

    def test_killed_worker_fails_its_job_and_the_pool_recovers(self):
        before = set(multiprocessing.active_children())
        with local_service(workers=1) as url:
            client = ServiceClient(url)
            # A multi-second solve, still in flight when its process dies.
            doomed = client.submit(
                benchmark="jython", analysis="2callH", max_tuples=5_000_000
            )
            deadline = time.monotonic() + 60
            while not (set(multiprocessing.active_children()) - before):
                assert time.monotonic() < deadline, "no pool process"
                time.sleep(0.02)
            assert client.status(doomed)["state"] == "running"
            (worker,) = set(multiprocessing.active_children()) - before
            os.kill(worker.pid, signal.SIGKILL)

            assert client.wait(doomed, timeout=60)["state"] == "error"
            error = client.result(doomed)["result"]["error"]
            assert error.startswith("BrokenProcessPool: "), error
            after = client.submit(benchmark="antlr", analysis="insens")
            assert client.wait(after, timeout=60)["state"] == "done"
            assert client.metric_value("repro_service_jobs_running") == 0
            assert (
                client.metric_value("repro_service_pool_restarts_total") == 1
            )
