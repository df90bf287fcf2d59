"""Outside-in layer tracing: wrap public functions, record spans.

A traced run replaces selected functions and methods of the program with
wrappers that open a :class:`repro.obs.Tracer` span around the original
call, then puts every original back on exit.  Nothing under ``src/`` is
edited and no tracer is passed into the program, so the traced code path
is the untraced one plus a span per wrapped call.

Each op the benchmark runs is itself a ``bench.op`` span; a layer's self
time is its spans' duration minus the time of the spans nested in them,
and ``bench.op``'s self time is whatever no wrapped layer claimed.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Union

from repro.analysis import AnalysisResult, BudgetExceeded, RawSolution
from repro.obs import Span, Tracer

OP_SPAN = "bench.op"


@dataclass(frozen=True)
class Wrap:
    """Replace ``owner.attr`` (a module function or a class's method)
    with a span-recording wrapper.  ``name`` is the span name, or a
    function of the call's arguments that returns it."""

    owner: object
    attr: str
    name: Union[str, Callable[..., str]]


def _wrapper(fn: Callable, name, tracer: Tracer) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span_name = name(*args, **kwargs) if callable(name) else name
        with tracer.span(span_name) as span:
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded as exc:
                span.attrs["tuples"] = exc.tuples
                span.attrs["budget_trips"] = 1
                raise
            if isinstance(result, AnalysisResult):
                span.attrs["tuples"] = result.raw.tuple_count
            elif isinstance(result, RawSolution):
                span.attrs["tuples"] = result.tuple_count
            return result

    return traced


class Instrumented:
    """Context manager: wraps every :class:`Wrap` on entry, restores the
    original attributes on exit (also when the body raises)."""

    def __init__(self, tracer: Tracer, wraps: Sequence[Wrap]) -> None:
        self.tracer = tracer
        self.wraps = list(wraps)
        self._saved: List[tuple] = []

    def __enter__(self) -> "Instrumented":
        for w in self.wraps:
            original = vars(w.owner)[w.attr]
            self._saved.append((w.owner, w.attr, original))
            setattr(w.owner, w.attr, _wrapper(original, w.name, self.tracer))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


@dataclass
class OpLayers:
    """One traced op: its wall time, per-layer self seconds, and the
    tuple/budget-trip counts its solver spans reported."""

    seconds: float
    self_seconds: Dict[str, float]
    tuples: int
    budget_trips: int


def split_ops(spans: Sequence[Span]) -> List[OpLayers]:
    """Attribute finished spans (completion order, one thread) to ops.

    A span finishes after every span nested in it, so walking spans in
    completion order with one child-time accumulator per depth gives each
    span's self time in one pass.
    """
    ops: List[OpLayers] = []
    child: Dict[int, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    tuples = trips = 0
    for span in spans:
        self_s = span.seconds - child.pop(span.depth + 1, 0.0)
        child[span.depth] += span.seconds
        own[span.name] += max(0.0, self_s)
        tuples += span.attrs.get("tuples", 0)
        trips += span.attrs.get("budget_trips", 0)
        if span.name == OP_SPAN:
            ops.append(OpLayers(span.seconds, dict(own), tuples, trips))
            child.clear()
            own.clear()
            tuples = trips = 0
    return ops
