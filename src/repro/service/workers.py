"""Worker-pool execution of analysis jobs.

:func:`execute_job` is the unit of work: a module-level function taking a
JSON-able job-spec payload and returning a JSON-able result payload, so it
can cross a :class:`~concurrent.futures.ProcessPoolExecutor` boundary.  It
builds the job's program, encodes it for the content digest, runs it
through :mod:`repro.harness.runner` (the one code path every analysis run
takes, over a packed program, not the encoded rows) and folds the
:class:`~repro.harness.runner.RunOutcome` into the payload.
A budget trip becomes ``state="timeout"`` with the trip's message in
``error``, and any other exception ``state="error"``, so a misbehaving
*job* never takes down its worker process, only a crashed interpreter
would.

Each worker process keeps a small per-process cache of context-insensitive
first-pass results keyed by the fact-base digest: the paper's introspective
pipeline runs the cheap insensitive pass, computes metrics, then re-runs
refined — and the insensitive pass (plus its facts) is identical for every
introspective job on the same program, so subsequent jobs hand it to the
runner as ``pass1`` (``pass1_reused`` in the payload; surfaced as
``repro_service_pass1_reuse_total`` in ``/metrics``).  The driver refuses
a cached pass 1 larger than the job's tuple budget, so reuse never changes
an outcome.

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
from typing import Any, Dict, Optional

from ..analysis import AnalysisResult
from ..benchgen.dacapo import DACAPO_SPECS, benchmark_names, build_benchmark
from ..facts.encoder import encode_program
from ..frontend import parse_source
from ..harness.runner import RunOutcome, run_analysis, run_introspective_analysis
from ..introspection.heuristics import Heuristic, heuristic_from_spec
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


def _run(
    spec: JobSpec,
    heuristic: Optional[Heuristic],
    program: Program,
    digest: str,
    tracer: Tracer,
) -> RunOutcome:
    """The job's run, handing introspective jobs this process's pass 1
    (solved over an earlier job's packed program)."""
    budget: Dict[str, Any] = dict(
        max_tuples=spec.max_tuples,
        max_seconds=spec.max_seconds,
        tracer=tracer,
    )
    if heuristic is None:
        return run_analysis(program, spec.analysis, **budget)
    cached = _PASS1_CACHE.get(digest)
    if cached is not None:
        _PASS1_CACHE.move_to_end(digest)
    outcome = run_introspective_analysis(
        program, spec.analysis, heuristic, pass1=cached, **budget
    )
    if cached is None and outcome.introspective is not None:
        _PASS1_CACHE[digest] = outcome.introspective.pass1
        while len(_PASS1_CACHE) > _PASS1_LIMIT:
            _PASS1_CACHE.popitem(last=False)
    return outcome


def _run_stages(
    outcome: RunOutcome, seconds: float, introspective: bool
) -> Dict[str, float]:
    """Split the ``seconds`` a run took into pass1/solve/precision stages.

    ``pass1`` is what this job paid for pass 1 (0.0 when it was reused, the
    whole run when pass 1 tripped), ``solve`` the rest of the analysis and
    ``precision`` what remains.
    """
    intro = outcome.introspective
    stages: Dict[str, float] = {}
    if intro is not None:
        stages["pass1"] = intro.pass1_seconds
        stages["solve"] = intro.overhead_seconds + intro.seconds
    elif introspective:
        stages["pass1"] = seconds
    else:
        stages["solve"] = outcome.seconds
    if outcome.result is not None:
        stages["precision"] = max(seconds - sum(stages.values()), 0.0)
    return stages


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
            heuristic = (
                None
                if spec.introspective is None
                else heuristic_from_spec(
                    spec.introspective, spec.heuristic_constants
                )
            )
            outcome = _run(spec, heuristic, program, digest, tracer)
            stages.update(
                _run_stages(
                    outcome, stage_watch.elapsed(), heuristic is not None
                )
            )
            intro = outcome.introspective
            result = outcome.result
            payload: Dict[str, Any] = {
                "state": (
                    JobState.TIMEOUT if outcome.timed_out else JobState.DONE
                ),
                "error": outcome.reason,
                "analysis": outcome.analysis,
                "benchmark": spec.benchmark,
                "program": program.summary(),
                "facts_digest": digest,
                "facts_tuples": facts.count_tuples(),
                "pass1_reused": intro is not None and intro.pass1_reused,
                "stats": asdict(outcome.stats) if outcome.stats else None,
                "precision": (
                    asdict(outcome.precision) if outcome.precision else None
                ),
                "refinement": None,
                "heuristic": heuristic.describe() if heuristic else None,
                "points_to": None,
                "stages": stages,
            }
            if intro is not None:
                stats = intro.refinement_stats
                payload["refinement"] = dict(
                    asdict(stats),
                    call_site_percent=stats.call_site_percent,
                    object_percent=stats.object_percent,
                )
            if result is not None and spec.show:
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
