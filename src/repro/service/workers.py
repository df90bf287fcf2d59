"""Worker-pool execution of analysis jobs.

:func:`execute_job` is the unit of work: a module-level function taking a
JSON-able job-spec payload and returning a JSON-able result payload, so it
can cross a :class:`~concurrent.futures.ProcessPoolExecutor` boundary.
All failure modes are folded into the payload — a tuple-budget or
wall-clock trip becomes ``state="timeout"`` and any other exception
``state="error"`` — so a misbehaving *job* never takes down its worker
process, only a crashed interpreter would.

Each worker process keeps a small per-process cache of context-insensitive
first-pass results keyed by the fact-base digest: the paper's introspective
pipeline runs the cheap insensitive pass, computes metrics, then re-runs
refined — and the insensitive pass (plus its facts) is identical for every
introspective job on the same program, so subsequent jobs reuse it
(``pass1_reused`` in the payload; surfaced as
``repro_service_pass1_reuse_total`` in ``/metrics``).

:class:`WorkerPool` wraps the executor with a configurable worker count
and graceful shutdown; ``workers=0`` selects an inline (same-process)
mode used by tests and by very small deployments.  A worker process that
dies (an OOM kill, a SIGKILL) breaks a ``ProcessPoolExecutor`` for good,
so the pool replaces a broken executor on the next submit: the jobs in
flight at the death fail with ``BrokenProcessPool``, later jobs run.
"""

from __future__ import annotations

import logging
import threading
import traceback
from collections import OrderedDict
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict
from typing import Any, Dict, Optional, Tuple

from ..analysis import AnalysisResult, BudgetExceeded, analyze
from ..benchgen.dacapo import DACAPO_SPECS, benchmark_names, build_benchmark
from ..clients.precision import measure_precision
from ..contexts.policies import InsensitivePolicy
from ..facts.encoder import FactBase, encode_program
from ..frontend import parse_source
from ..introspection.driver import MIN_PASS2_SECONDS, run_introspective
from ..introspection.heuristics import heuristic_from_spec
from ..ir.program import Program
from ..obs import NULL_TRACER, Tracer
from ..utils import Stopwatch
from .jobs import JobSpec, JobState
from .telemetry import Counter

__all__ = ["WorkerPool", "execute_job"]

#: Per-process LRU of insensitive pass-1 results, keyed by facts digest.
_PASS1_CACHE: "OrderedDict[str, AnalysisResult]" = OrderedDict()
_PASS1_LIMIT = 4


def _build_program(spec: JobSpec, tracer: Tracer = NULL_TRACER) -> Program:
    if spec.benchmark is not None:
        if spec.benchmark not in DACAPO_SPECS:
            raise ValueError(
                f"unknown benchmark {spec.benchmark!r}; "
                f"try one of: {', '.join(benchmark_names())}"
            )
        with tracer.span("job.build", benchmark=spec.benchmark):
            return build_benchmark(spec.benchmark)
    assert spec.source is not None
    return parse_source(spec.source, tracer=tracer)


def _pass1(
    program: Program,
    facts: FactBase,
    digest: str,
    spec: JobSpec,
    tracer: Tracer = NULL_TRACER,
) -> Tuple[AnalysisResult, bool, float]:
    """Insensitive first pass, reused across jobs on the same program.

    Returns ``(result, reused, seconds)`` where ``seconds`` is the compute
    time *this job* paid — 0.0 on a cache hit, mirroring the driver's
    ``pass1_seconds`` convention for supplied pass-1 results.
    """
    cached = _PASS1_CACHE.get(digest)
    if cached is not None:
        _PASS1_CACHE.move_to_end(digest)
        return cached, True, 0.0
    watch = Stopwatch()
    with tracer.span("intro.pass1"):
        result = analyze(
            program,
            InsensitivePolicy(),
            facts=facts,
            max_tuples=spec.max_tuples,
            max_seconds=spec.max_seconds,
            tracer=tracer,
        )
    seconds = watch.elapsed()
    _PASS1_CACHE[digest] = result
    while len(_PASS1_CACHE) > _PASS1_LIMIT:
        _PASS1_CACHE.popitem(last=False)
    return result, False, seconds


def execute_job(spec_payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job to a terminal payload (never raises).

    The payload always carries a ``stages`` dict of per-stage seconds
    (build/encode/pass1/solve/precision — what the service exports as
    ``repro_service_stage_seconds``); when the spec opts into ``trace`` it
    also carries a ``trace`` section with the Chrome trace events and the
    per-span summary of this job's run.
    """
    watch = Stopwatch()
    stages: Dict[str, float] = {}
    stage_watch = Stopwatch()

    def stage(name: str) -> None:
        stages[name] = stage_watch.elapsed()
        stage_watch.restart()

    try:
        spec = JobSpec.from_payload(spec_payload)
        tracer = Tracer() if spec.trace else NULL_TRACER
        with tracer.span("job.execute", analysis=spec.analysis):
            program = _build_program(spec, tracer)
            stage("build")
            facts = encode_program(program, tracer=tracer)
            digest = facts.digest()
            stage("encode")
            payload: Dict[str, Any] = {
                "state": JobState.DONE,
                "error": None,
                "analysis": spec.analysis,
                "benchmark": spec.benchmark,
                "program": program.summary(),
                "facts_digest": digest,
                "facts_tuples": facts.count_tuples(),
                "pass1_reused": False,
                "stats": None,
                "precision": None,
                "refinement": None,
                "heuristic": None,
                "points_to": None,
                "stages": stages,
            }
            result: Optional[AnalysisResult] = None
            if spec.introspective is not None:
                heuristic = heuristic_from_spec(
                    spec.introspective, spec.heuristic_constants
                )
                try:
                    pass1, reused, pass1_seconds = _pass1(
                        program, facts, digest, spec, tracer
                    )
                except BudgetExceeded as exc:
                    # Pass 1 alone blew the whole budget: a timeout, not an
                    # internal error.
                    payload["state"] = JobState.TIMEOUT
                    payload["error"] = str(exc)
                    stage("pass1")
                else:
                    stage("pass1")
                    # The driver sees a precomputed pass 1 (pass1_seconds=0.0
                    # on its side), so the shared wall-clock budget must be
                    # drawn down *here* by what pass 1 actually cost this job.
                    budget = spec.max_seconds
                    if budget is not None and pass1_seconds:
                        budget = max(budget - pass1_seconds, MIN_PASS2_SECONDS)
                    outcome = run_introspective(
                        program,
                        spec.analysis,
                        heuristic,
                        facts=facts,
                        pass1=pass1,
                        max_tuples=spec.max_tuples,
                        max_seconds=budget,
                        tracer=tracer,
                    )
                    stage("solve")
                    stats = outcome.refinement_stats
                    payload.update(
                        analysis=outcome.name,
                        heuristic=heuristic.describe(),
                        pass1_reused=reused,
                        refinement={
                            "total_call_sites": stats.total_call_sites,
                            "excluded_call_sites": stats.excluded_call_sites,
                            "total_objects": stats.total_objects,
                            "excluded_objects": stats.excluded_objects,
                            "call_site_percent": stats.call_site_percent,
                            "object_percent": stats.object_percent,
                        },
                    )
                    if outcome.timed_out:
                        payload["state"] = JobState.TIMEOUT
                    else:
                        result = outcome.result
            else:
                try:
                    result = analyze(
                        program,
                        spec.analysis,
                        facts=facts,
                        max_tuples=spec.max_tuples,
                        max_seconds=spec.max_seconds,
                        tracer=tracer,
                    )
                except BudgetExceeded as exc:
                    payload["state"] = JobState.TIMEOUT
                    payload["error"] = str(exc)
                stage("solve")
            if result is not None:
                if spec.introspective is None:
                    payload["analysis"] = result.analysis_name
                payload["stats"] = asdict(result.stats())
                with tracer.span("clients.precision"):
                    payload["precision"] = asdict(
                        measure_precision(result, facts)
                    )
                stage("precision")
                if spec.show:
                    payload["points_to"] = {
                        var: sorted(result.points_to(var)) for var in spec.show
                    }
        if spec.trace:
            payload["trace"] = {
                "chrome": tracer.chrome_trace(),
                "summary": tracer.summary(),
            }
        payload["solve_seconds"] = watch.elapsed()
        return payload
    except Exception as exc:  # noqa: BLE001 - folded into the payload
        return {
            "state": JobState.ERROR,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
            "stages": stages,
            "solve_seconds": watch.elapsed(),
        }


class WorkerPool:
    """Process pool running :func:`execute_job`; ``workers=0`` is inline.

    ``restarts`` counts each replacement of a broken executor.
    """

    def __init__(
        self, workers: int = 2, restarts: Optional[Counter] = None
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self._restarts = restarts
        self._lock = threading.Lock()
        self._executor: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers) if workers else None
        )

    @property
    def slots(self) -> int:
        """Concurrent job capacity (inline mode serializes on 1 slot)."""
        return self.workers or 1

    def submit(self, spec_payload: Dict[str, Any]) -> "Future[Dict[str, Any]]":
        """Run one job; a broken executor is replaced and the job resubmitted
        once (a second failure propagates to the caller)."""
        executor = self._executor
        if executor is None:
            future: "Future[Dict[str, Any]]" = Future()
            future.set_result(execute_job(spec_payload))
            return future
        try:
            return executor.submit(execute_job, spec_payload)
        except BrokenProcessPool:
            return self._replace(executor).submit(execute_job, spec_payload)

    def _replace(self, broken: ProcessPoolExecutor) -> ProcessPoolExecutor:
        """Swap ``broken`` for a fresh executor, once however many callers
        saw it broken; returns the current executor."""
        with self._lock:
            if self._executor is broken:
                self._executor = ProcessPoolExecutor(max_workers=self.workers)
                if self._restarts is not None:
                    self._restarts.inc()
                logging.getLogger("repro.service").warning(
                    "worker process died; replaced the broken process pool"
                )
            current = self._executor
        broken.shutdown(wait=False)
        return current

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
