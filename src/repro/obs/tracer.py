"""A zero-dependency structured span tracer for the analysis pipeline.

The paper's whole argument is *cost-driven*: run cheap, measure, then
spend precision only where it is affordable.  Until this module the
pipeline reported three coarse timings (pass 1, overhead, pass 2); the
tracer breaks every stage open — frontend parse/lowering, fact encoding,
solver phases, Datalog compilation/evaluation rounds, the two-pass
introspective driver, and per-job service execution — as a tree of
timed **spans**.

Design rules (they are load-bearing):

* **One path, disabled by default.**  Every instrumented function takes
  ``tracer: Tracer = NULL_TRACER`` and opens its spans with plain
  ``with tracer.span(...)`` blocks, traced or not.
  :data:`NULL_TRACER` records nothing: its ``span()`` returns one shared
  no-op handle and ``annotate``/``add``/``counter_sample`` return at
  once.  Tracing never changes a result, which the
  ``trace-transparency`` fuzz oracle enforces.
* **Costly annotations only when enabled.**  An annotation whose value
  costs more than O(1) to compute (a sum over a table, a row count)
  sits under ``if tracer.enabled:``, so an untraced run never pays for
  it.
* **Monotonic clocks.**  Timestamps come from ``time.perf_counter()``
  relative to the tracer's construction instant; wall-clock never enters
  a span.
* **Thread-safe, nestable.**  Each thread keeps its own span stack
  (``threading.local``), so service worker threads and the dispatcher can
  share one tracer; finished spans are appended under a lock.
* **Cold paths only.**  Spans wrap phase boundaries (once per solve, per
  stratum, per round); hot loops contribute *counter samples* at the
  existing clock-check cadence (every few thousand tuples) instead of
  per-operation spans.  The benchmark harness asserts the enabled
  overhead stays under 5% on the medium suite.

Exports:

* :meth:`Tracer.chrome_trace` — a Chrome ``trace_event`` JSON object
  (open in ``chrome://tracing`` or https://ui.perfetto.dev);
* :meth:`Tracer.summary` / :meth:`Tracer.render_summary` — an aggregated
  per-span-name table (count, total/self seconds, min/max).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, List, Optional

__all__ = ["NULL_TRACER", "Span", "Tracer"]


class Span:
    """One finished (or in-flight) named interval.

    ``start``/``end`` are seconds relative to the owning tracer's epoch;
    ``attrs`` holds both the keyword attributes given at ``span()`` time
    and any counters accumulated via :meth:`Tracer.add`.
    """

    __slots__ = ("name", "start", "end", "tid", "depth", "attrs")

    def __init__(
        self, name: str, start: float, tid: int, depth: int,
        attrs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.tid = tid
        self.depth = depth
        self.attrs: Dict[str, Any] = attrs if attrs is not None else {}

    @property
    def seconds(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s, depth={self.depth})"


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    @property
    def span(self) -> Span:
        return self._span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc_info: object) -> None:
        self._tracer._finish(self._span)


class Tracer:
    """Collects spans and counter samples; exports Chrome trace JSON.

    One tracer instance covers one logical run (a CLI invocation, a
    service job, a benchmark cell).  All methods are thread-safe.
    """

    #: False only on :class:`NullTracer`; guards costly annotations.
    enabled = True

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._counters: List[Dict[str, Any]] = []  # chrome "C" samples
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("solver.init"):``."""
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter() - self._epoch,
            threading.get_ident(),
            len(stack),
            attrs or None,
        )
        stack.append(span)
        return _SpanHandle(self, span)

    def _finish(self, span: Span) -> None:
        span.end = time.perf_counter() - self._epoch
        stack = self._stack()
        # Exceptions may unwind several handles out of order; pop to ours.
        while stack and stack.pop() is not span:
            pass
        with self._lock:
            self._spans.append(span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, counter: str, amount: float = 1) -> None:
        """Accumulate a counter attribute on the current open span."""
        span = self.current()
        if span is not None:
            span.attrs[counter] = span.attrs.get(counter, 0) + amount

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the current open span."""
        span = self.current()
        if span is not None:
            span.attrs.update(attrs)

    def counter_sample(self, name: str, value: float) -> None:
        """Record one point of a time series (Chrome ``ph:"C"`` event).

        Meant for the solver's clock-check cadence — a cheap way to see
        tuple growth over time without per-operation spans.
        """
        sample = {
            "ts": time.perf_counter() - self._epoch,
            "tid": threading.get_ident(),
            "name": name,
            "value": value,
        }
        with self._lock:
            self._counters.append(sample)

    # ------------------------------------------------------------------
    # Introspection / export
    # ------------------------------------------------------------------
    def spans(self) -> List[Span]:
        """Finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def span_names(self) -> List[str]:
        """Distinct finished-span names, sorted."""
        return sorted({s.name for s in self.spans()})

    def chrome_trace(self) -> Dict[str, Any]:
        """The run as a Chrome ``trace_event`` JSON object.

        Spans become complete events (``ph:"X"``, microsecond ``ts`` and
        ``dur``); counter samples become ``ph:"C"`` events.  The object
        is ``json.dumps``-able as-is and loads in ``chrome://tracing``
        and Perfetto.
        """
        pid = os.getpid()
        events: List[Dict[str, Any]] = []
        with self._lock:
            spans = list(self._spans)
            counters = list(self._counters)
        for span in spans:
            events.append(
                {
                    "name": span.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": round(span.start * 1e6, 3),
                    "dur": round(span.seconds * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": {k: _jsonable(v) for k, v in span.attrs.items()},
                }
            )
        for sample in counters:
            events.append(
                {
                    "name": sample["name"],
                    "cat": "repro",
                    "ph": "C",
                    "ts": round(sample["ts"] * 1e6, 3),
                    "pid": pid,
                    "tid": sample["tid"],
                    "args": {"value": sample["value"]},
                }
            )
        events.sort(key=lambda e: e["ts"])
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro-obs/1"},
        }

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Aggregate finished spans per name.

        Returns ``name -> {count, total_seconds, self_seconds,
        min_seconds, max_seconds}``; ``self_seconds`` subtracts the time
        spent in same-thread child spans, so a parent that merely wraps
        its children aggregates to ~0 self time.
        """
        spans = self.spans()
        # Child time per open parent: attribute each span's duration to
        # the innermost enclosing span on the same thread.
        child_time: Dict[int, float] = {}
        by_thread: Dict[int, List[Span]] = {}
        for s in spans:
            by_thread.setdefault(s.tid, []).append(s)
        for thread_spans in by_thread.values():
            # A span's parent is the shallowest-depth+1 span enclosing it.
            for s in thread_spans:
                for cand in thread_spans:
                    if (
                        cand.depth == s.depth - 1
                        and cand.start <= s.start
                        and (cand.end or 0.0) >= (s.end or 0.0)
                    ):
                        child_time[id(cand)] = (
                            child_time.get(id(cand), 0.0) + s.seconds
                        )
                        break
        table: Dict[str, Dict[str, float]] = {}
        for s in spans:
            row = table.get(s.name)
            self_secs = max(0.0, s.seconds - child_time.get(id(s), 0.0))
            if row is None:
                table[s.name] = {
                    "count": 1,
                    "total_seconds": s.seconds,
                    "self_seconds": self_secs,
                    "min_seconds": s.seconds,
                    "max_seconds": s.seconds,
                }
            else:
                row["count"] += 1
                row["total_seconds"] += s.seconds
                row["self_seconds"] += self_secs
                row["min_seconds"] = min(row["min_seconds"], s.seconds)
                row["max_seconds"] = max(row["max_seconds"], s.seconds)
        return table

    def render_summary(self) -> str:
        """The summary as a fixed-width text table (widest total first)."""
        table = self.summary()
        if not table:
            return "(no spans recorded)"
        rows = sorted(
            table.items(), key=lambda kv: -kv[1]["total_seconds"]
        )
        width = max(len("span"), max(len(name) for name, _ in rows))
        lines = [
            f"{'span':<{width}}  {'count':>5}  {'total':>9}  "
            f"{'self':>9}  {'min':>9}  {'max':>9}"
        ]
        for name, row in rows:
            lines.append(
                f"{name:<{width}}  {int(row['count']):>5}  "
                f"{row['total_seconds']:>8.4f}s  {row['self_seconds']:>8.4f}s  "
                f"{row['min_seconds']:>8.4f}s  {row['max_seconds']:>8.4f}s"
            )
        return "\n".join(lines)


class _NullHandle:
    """The no-op context manager every :class:`NullTracer` span returns."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_HANDLE = _NullHandle()


class NullTracer(Tracer):
    """A tracer that records nothing; see :data:`NULL_TRACER`."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullHandle:  # type: ignore[override]
        return _NULL_HANDLE

    def add(self, counter: str, amount: float = 1) -> None:
        pass

    def annotate(self, **attrs: Any) -> None:
        pass

    def counter_sample(self, name: str, value: float) -> None:
        pass


#: The shared disabled tracer: the default of every instrumented function.
NULL_TRACER = NullTracer()


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)
