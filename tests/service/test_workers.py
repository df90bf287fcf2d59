"""The worker execution function and pass-1 reuse (inline, no processes)."""

from __future__ import annotations

import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.service.jobs import JobSpec, JobState
from repro.service.workers import _PASS1_CACHE, WorkerPool, execute_job

BAD_SOURCE = "class { this is not the surface language"


def payload(**kwargs):
    kwargs.setdefault("benchmark", "antlr")
    kwargs.setdefault("analysis", "insens")
    return JobSpec(**kwargs).to_payload()


@pytest.fixture(autouse=True)
def clean_pass1_cache():
    _PASS1_CACHE.clear()
    yield
    _PASS1_CACHE.clear()


class TestExecuteJob:
    def test_done_payload(self):
        out = execute_job(payload(show=["?missing"]))
        assert out["state"] == JobState.DONE
        assert out["analysis"] == "insens"
        assert out["stats"]["tuple_count"] > 0
        assert out["precision"]["reachable_methods"] > 0
        assert out["points_to"] == {"?missing": []}
        assert len(out["facts_digest"]) == 64
        assert out["solve_seconds"] >= 0

    def test_inline_source(self):
        out = execute_job(
            JobSpec(
                source="""
                class Main { static method main() { x = new Main(); } }
                """,
                analysis="insens",
                show=("Main.main/0/x",),
            ).to_payload()
        )
        assert out["state"] == JobState.DONE
        assert out["points_to"]["Main.main/0/x"] == ["Main.main/0/new Main/0"]

    def test_budget_trip_is_timeout_not_raise(self):
        out = execute_job(payload(analysis="2objH", max_tuples=10))
        assert out["state"] == JobState.TIMEOUT
        assert out["stats"] is None
        assert "tuple budget" in out["error"]

    def test_parse_error_is_error_state(self):
        out = execute_job({"source": BAD_SOURCE, "analysis": "insens"})
        assert out["state"] == JobState.ERROR
        assert out["error"]
        assert "traceback" in out

    def test_introspective_done_with_refinement(self):
        out = execute_job(payload(analysis="2objH", introspective="A"))
        assert out["state"] == JobState.DONE
        assert out["analysis"] == "2objH-IntroA"
        assert out["heuristic"].startswith("Heuristic A")
        assert out["refinement"]["total_call_sites"] > 0
        assert out["stats"] is not None

    def test_introspective_second_pass_timeout(self):
        # Budget large enough for the insensitive pass 1 on hsqldb but far
        # too small for unrefined-everywhere pass 2 with RefineEverything
        # analog: use a heuristic that refines everything (huge constants).
        out = execute_job(
            payload(
                benchmark="hsqldb",
                analysis="2objH",
                introspective="B",
                heuristic_constants="1000000,1000000",
                max_tuples=150_000,
            )
        )
        assert out["state"] == JobState.TIMEOUT
        assert out["refinement"] is not None
        assert "tuple budget" in out["error"]


class TestPass1Reuse:
    def test_reused_across_introspective_jobs_on_same_program(self):
        first = execute_job(payload(analysis="2objH", introspective="A"))
        second = execute_job(payload(analysis="2objH", introspective="B"))
        assert first["pass1_reused"] is False
        assert second["pass1_reused"] is True
        assert first["facts_digest"] == second["facts_digest"]

    def test_not_reused_across_programs(self):
        execute_job(payload(analysis="2objH", introspective="A"))
        other = execute_job(
            payload(benchmark="lusearch", analysis="2objH", introspective="A")
        )
        assert other["pass1_reused"] is False

    def test_reuse_does_not_change_the_outcome(self):
        """A budget between pass 2's and pass 1's tuple counts trips the
        cold job's pass 1; a warm worker must not finish the same job by
        reusing a pass 1 larger than its budget."""
        big = execute_job(payload(analysis="2objH", introspective="A"))
        pass1_tuples = _PASS1_CACHE[big["facts_digest"]].raw.tuple_count
        pass2_tuples = big["stats"]["tuple_count"]
        assert pass2_tuples < pass1_tuples
        tight = payload(
            analysis="2objH",
            introspective="A",
            max_tuples=(pass1_tuples + pass2_tuples) // 2,
        )

        warm = execute_job(tight)
        _PASS1_CACHE.clear()
        cold = execute_job(tight)
        assert cold["state"] == warm["state"] == JobState.TIMEOUT
        assert "tuple budget" in cold["error"]
        assert "tuple budget" in warm["error"]
        assert warm["pass1_reused"] is cold["pass1_reused"] is False

    def test_cache_is_bounded(self):
        from repro.service import workers

        for i in range(workers._PASS1_LIMIT + 2):
            source = (
                "class Main { static method main() { "
                + " ".join(f"x{j} = new Main();" for j in range(i + 1))
                + " } }"
            )
            execute_job(
                JobSpec(
                    source=source, analysis="2objH", introspective="A"
                ).to_payload()
            )
        assert len(_PASS1_CACHE) <= workers._PASS1_LIMIT


class TestWorkerPool:
    def test_inline_pool_runs_synchronously(self):
        pool = WorkerPool(workers=0)
        future = pool.submit(payload())
        assert future.done()
        assert future.result()["state"] == JobState.DONE
        assert pool.slots == 1
        pool.shutdown()

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=-1)

    def test_pool_recovers_after_a_worker_is_killed(self, caplog):
        before = set(multiprocessing.active_children())
        pool = WorkerPool(workers=1)
        try:
            assert pool.submit(payload()).result(60)["state"] == JobState.DONE
            (worker,) = set(multiprocessing.active_children()) - before
            # A multi-second solve, still in flight when its process dies.
            doomed = pool.submit(
                payload(benchmark="jython", analysis="2callH",
                        max_tuples=5_000_000)
            )
            os.kill(worker.pid, signal.SIGKILL)
            assert isinstance(doomed.exception(60), BrokenProcessPool)

            for _ in range(2):
                assert pool.submit(payload()).result(60)["state"] == (
                    JobState.DONE
                )
            # One breakage, one replacement.
            assert caplog.text.count("replaced the broken process pool") == 1
        finally:
            pool.shutdown()


class TestStagesAndTrace:
    def test_stages_always_recorded(self):
        out = execute_job(payload())
        assert set(out["stages"]) >= {"build", "encode", "solve"}
        assert all(v >= 0 for v in out["stages"].values())
        assert "trace" not in out  # opt-in only

    def test_error_payload_still_carries_stages(self):
        out = execute_job({"source": BAD_SOURCE, "analysis": "insens"})
        assert out["state"] == JobState.ERROR
        assert isinstance(out["stages"], dict)

    def test_trace_opt_in_payload(self):
        out = execute_job(payload(trace=True))
        assert out["state"] == JobState.DONE
        trace = out["trace"]
        events = trace["chrome"]["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        # The job-level span plus the full frontend-to-clients pipeline.
        assert "job.execute" in names
        assert {"job.build", "facts.encode", "analysis.solve",
                "clients.precision"} <= names
        assert trace["summary"]["job.execute"]["count"] == 1
        # The payload must survive the process-pool JSON boundary.
        import json

        json.dumps(out)

    def test_traced_introspective_job_has_intro_spans(self):
        out = execute_job(payload(analysis="2objH", introspective="A", trace=True))
        assert out["state"] == JobState.DONE
        names = {
            e["name"]
            for e in out["trace"]["chrome"]["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"intro.pass1", "intro.metrics", "intro.heuristic",
                "intro.pass2"} <= names

    def test_traced_result_equals_untraced(self):
        untraced = execute_job(payload(analysis="2objH"))
        _PASS1_CACHE.clear()
        traced = execute_job(payload(analysis="2objH", trace=True))

        def content(stats):
            return {k: v for k, v in stats.items() if k != "seconds"}

        assert content(traced["stats"]) == content(untraced["stats"])
        assert traced["precision"] == untraced["precision"]

    def test_reused_pass1_records_no_pass1_span(self):
        execute_job(payload(analysis="2objH", introspective="A"))
        out = execute_job(
            payload(analysis="2objH", introspective="B", trace=True)
        )
        assert out["pass1_reused"] is True
        names = {
            e["name"]
            for e in out["trace"]["chrome"]["traceEvents"]
            if e["ph"] == "X"
        }
        # A cache hit costs nothing, so no intro.pass1 span is recorded
        # and no budget is drawn down for it.
        assert "intro.pass1" not in names
        assert "intro.pass2" in names
