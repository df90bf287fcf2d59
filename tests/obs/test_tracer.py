"""The span tracer: nesting, thread-safety, export formats, no-op cost."""

import gc
import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import NULL_TRACER, Span, Tracer


class TestSpans:
    def test_with_block_records_one_span(self):
        t = Tracer()
        with t.span("work"):
            pass
        (span,) = t.spans()
        assert span.name == "work"
        assert span.end is not None
        assert span.seconds >= 0

    def test_nesting_depths(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("middle"):
                with t.span("inner"):
                    pass
        by_name = {s.name: s for s in t.spans()}
        assert by_name["outer"].depth == 0
        assert by_name["middle"].depth == 1
        assert by_name["inner"].depth == 2
        # Inner spans finish first.
        assert [s.name for s in t.spans()] == ["inner", "middle", "outer"]

    def test_current_tracks_innermost(self):
        t = Tracer()
        assert t.current() is None
        with t.span("a"):
            assert t.current().name == "a"
            with t.span("b"):
                assert t.current().name == "b"
            assert t.current().name == "a"
        assert t.current() is None

    def test_attrs_annotate_and_add(self):
        t = Tracer()
        # No collector pass may land in the span and add its counters.
        gc.disable()
        try:
            with t.span("s", kind="demo"):
                t.annotate(items=3)
                t.add("ops")
                t.add("ops", 2)
        finally:
            gc.enable()
        (span,) = t.spans()
        assert span.attrs == {"kind": "demo", "items": 3, "ops": 3}

    def test_exception_still_closes_span(self):
        t = Tracer()
        try:
            with t.span("boom"):
                raise RuntimeError("x")
        except RuntimeError:
            pass
        (span,) = t.spans()
        assert span.name == "boom"
        assert span.end is not None
        assert t.current() is None

    def test_manual_handle(self):
        t = Tracer()
        handle = t.span("manual")
        assert t.current() is handle.span
        handle.__exit__(None, None, None)
        assert t.current() is None
        assert [s.name for s in t.spans()] == ["manual"]

    def test_span_names_sorted_distinct(self):
        t = Tracer()
        for name in ("b", "a", "b"):
            with t.span(name):
                pass
        assert t.span_names() == ["a", "b"]


class TestThreadSafety:
    def test_stacks_are_per_thread(self):
        t = Tracer()
        barrier = threading.Barrier(4)
        errors = []

        def worker(i):
            try:
                barrier.wait()
                for k in range(50):
                    with t.span(f"t{i}", k=k) as outer:
                        with t.span(f"t{i}.inner") as inner:
                            assert inner.depth == outer.depth + 1
                        assert t.current() is outer
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(4)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert not errors
        assert len(t.spans()) == 4 * 50 * 2
        # Every span carries its recording thread's id, and within one
        # thread nesting depths never interleave with another thread's.
        for span in t.spans():
            assert span.name.startswith("t")
            assert (span.depth == 1) == span.name.endswith(".inner")

    def test_counter_samples_from_many_threads(self):
        t = Tracer()

        def worker():
            for v in range(100):
                t.counter_sample("c", v)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        trace = t.chrome_trace()
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 400


class TestChromeTrace:
    def test_schema(self):
        t = Tracer()
        with t.span("outer", label="x"):
            with t.span("inner"):
                pass
            t.counter_sample("tuples", 42)
        trace = t.chrome_trace()
        # Round-trips through JSON untouched.
        assert json.loads(json.dumps(trace)) == trace
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        for e in complete:
            assert e["cat"] == "repro"
            assert isinstance(e["pid"], int)
            assert isinstance(e["tid"], int)
            assert e["ts"] >= 0  # microseconds from the tracer epoch
            assert e["dur"] >= 0
        (c,) = counters
        assert c["name"] == "tuples"
        assert c["args"]["value"] == 42
        # Events are emitted in timestamp order.
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_non_json_attrs_are_stringified(self):
        t = Tracer()
        with t.span("s", obj=object(), ok=1, label="x"):
            pass
        (event,) = t.chrome_trace()["traceEvents"]
        assert isinstance(event["args"]["obj"], str)
        assert event["args"]["ok"] == 1
        assert event["args"]["label"] == "x"


class TestSummary:
    def test_counts_and_self_time(self):
        t = Tracer()
        with t.span("outer"):
            time.sleep(0.002)
            with t.span("inner"):
                time.sleep(0.002)
        with t.span("inner"):
            pass
        summary = t.summary()
        assert summary["inner"]["count"] == 2
        assert summary["outer"]["count"] == 1
        # Parent self-time excludes the nested child's time.
        outer = summary["outer"]
        assert 0 <= outer["self_seconds"] <= outer["total_seconds"]
        assert outer["min_seconds"] <= outer["max_seconds"]

    def test_render_summary_lists_every_name(self):
        t = Tracer()
        with t.span("alpha"):
            pass
        with t.span("beta"):
            pass
        table = t.render_summary()
        assert "alpha" in table and "beta" in table
        assert "count" in table.splitlines()[0]

    def test_empty_tracer(self):
        t = Tracer()
        assert t.spans() == []
        assert t.summary() == {}
        assert t.chrome_trace()["traceEvents"] == []


def _brute_force_summary(spans):
    """The span summary by its definition: a span's parent is the first
    span, in completion order, on its thread one level up whose interval
    holds it."""
    child_time = {}
    for s in spans:
        for cand in spans:
            if (
                cand.tid == s.tid
                and cand.depth == s.depth - 1
                and cand.start <= s.start
                and cand.end >= s.end
            ):
                child_time[id(cand)] = child_time.get(id(cand), 0.0) + s.seconds
                break
    table = {}
    for s in spans:
        row = table.setdefault(s.name, {
            "count": 0, "total_seconds": 0.0, "self_seconds": 0.0,
            "min_seconds": s.seconds, "max_seconds": s.seconds,
        })
        row["count"] += 1
        row["total_seconds"] += s.seconds
        row["self_seconds"] += max(0.0, s.seconds - child_time.get(id(s), 0.0))
        row["min_seconds"] = min(row["min_seconds"], s.seconds)
        row["max_seconds"] = max(row["max_seconds"], s.seconds)
    return table


class TestSummaryAttribution:
    def test_matches_brute_force_on_random_trees(self):
        """Two threads open and close spans in a seeded interleaving; one
        close in five exits a handle that is not the innermost (as
        out-of-order unwinding does), so children can finish after their
        parents and spans of one depth can overlap."""
        rng = random.Random(2014)
        t = Tracer()
        pools = [ThreadPoolExecutor(max_workers=1) for _ in range(2)]
        open_handles = [[], []]
        names = ["a", "b", "c", "d"]
        try:
            for _step in range(600):
                w = rng.randrange(2)
                handles = open_handles[w]
                if handles and (len(handles) > 6 or rng.random() < 0.45):
                    if rng.random() < 0.2:
                        handle = handles.pop(rng.randrange(len(handles)))
                    else:
                        handle = handles.pop()
                    pools[w].submit(handle.__exit__, None, None, None).result()
                else:
                    name = rng.choice(names)
                    handles.append(pools[w].submit(t.span, name).result())
            for w in (0, 1):
                while open_handles[w]:
                    handle = open_handles[w].pop(rng.randrange(len(open_handles[w])))
                    pools[w].submit(handle.__exit__, None, None, None).result()
        finally:
            for pool in pools:
                pool.shutdown()
        spans = t.spans()
        assert len({s.tid for s in spans}) == 2
        orphans = [
            s for s in spans
            if s.depth and not any(
                p.tid == s.tid and p.depth == s.depth - 1
                and p.start <= s.start and p.end >= s.end
                for p in spans
            )
        ]
        assert orphans, "no child outlived its parent"
        want = _brute_force_summary(spans)
        got = t.summary()
        assert got.keys() == want.keys()
        for name, row in want.items():
            for key, value in row.items():
                assert got[name][key] == pytest.approx(value, abs=1e-9), (name, key)


class TestCollectorCounters:
    def test_summary_totals_collector_counters_per_name(self):
        """Each name's row totals its spans' own collector passes, not
        their children's; a name without a pass reads zero."""
        t = Tracer()
        gc.disable()
        try:
            for _ in range(2):
                with t.span("outer"):
                    with t.span("inner"):
                        gc.collect()
                    with t.span("quiet"):
                        pass
        finally:
            gc.enable()
        summary = t.summary()
        inner_ms = sum(
            s.attrs["gc_ms"] for s in t.spans() if s.name == "inner"
        )
        assert summary["inner"]["gc_gen2"] == 2
        assert inner_ms > 0
        assert summary["inner"]["gc_ms"] == pytest.approx(inner_ms)
        for name in ("outer", "quiet"):
            assert summary[name]["gc_gen2"] == 0, name
            assert summary[name]["gc_ms"] == 0, name
        header, *rows = t.render_summary().splitlines()
        assert header.split()[-2:] == ["gc", "gc2"]
        (inner,) = [row for row in rows if row.startswith("inner")]
        assert inner.split()[-1] == "2"
        assert inner.split()[-2] == f"{inner_ms:.1f}ms"

    def test_collection_inside_span_is_charged_to_it(self):
        t = Tracer()
        before = list(gc.callbacks)
        with t.span("outer"):
            with t.span("inner"):
                assert len(gc.callbacks) == len(before) + 1
                gc.collect()
        by_name = {s.name: s for s in t.spans()}
        inner = by_name["inner"].attrs
        assert inner["gc_gen2"] >= 1
        assert inner["gc_ms"] > 0
        assert "gc_gen2" not in by_name["outer"].attrs
        assert gc.callbacks == before

    def test_hook_stays_while_any_thread_has_a_span_open(self):
        t = Tracer()
        before = list(gc.callbacks)
        inside, release = threading.Event(), threading.Event()

        def worker():
            with t.span("worker"):
                inside.set()
                release.wait(10)

        th = threading.Thread(target=worker)
        th.start()
        assert inside.wait(10)
        with t.span("main"):
            pass
        assert len(gc.callbacks) == len(before) + 1
        release.set()
        th.join(10)
        assert not th.is_alive()
        assert gc.callbacks == before

    def test_out_of_order_unwinding_removes_the_hook(self):
        t = Tracer()
        before = list(gc.callbacks)
        outer = t.span("outer")
        inner = t.span("inner")
        outer.__exit__(None, None, None)
        assert gc.callbacks == before
        inner.__exit__(None, None, None)
        assert gc.callbacks == before
        with t.span("again"):
            gc.collect()
        assert gc.callbacks == before
        assert {s.name: s for s in t.spans()}["again"].attrs["gc_gen2"] == 1

    def test_null_tracer_leaves_callbacks_untouched(self):
        before = list(gc.callbacks)
        with NULL_TRACER.span("work"):
            assert gc.callbacks == before
            gc.collect()
        assert gc.callbacks == before
        assert NULL_TRACER.spans() == []


def _boxes_source(n):
    """A program whose solve passes the solver's counter-sample cadence."""
    body = "\n".join(
        f"        o{i} = new Box(); b.set(o{i}); r{i} = b.get();"
        for i in range(n)
    )
    return f"""
class Box {{
    field v;
    method set(x) {{ this.v = x; }}
    method get() {{ r = this.v; return r; }}
}}
class Main {{
    static method main() {{
        b = new Box();
{body}
    }}
}}
"""


def _pipeline(**traced):
    """parse -> pack -> introspective run -> precision, as a user runs it."""
    from repro.analysis import PackedProgram
    from repro.clients.precision import measure_precision
    from repro.frontend import parse_source
    from repro.introspection.driver import run_introspective

    program = parse_source(_boxes_source(80), **traced)
    pack = PackedProgram(program)
    outcome = run_introspective(program, "2objH", pack=pack, **traced)
    measure_precision(outcome.result, pack)


class TestNoOpDiscipline:
    def test_entry_points_default_to_null_tracer(self):
        """Every instrumented entry point defaults to the shared disabled
        tracer, so the untraced path never constructs a recording one."""
        import inspect

        from repro.analysis import analyze
        from repro.analysis.solver import PointsToSolver, solve
        from repro.datalog.engine import Engine
        from repro.facts.encoder import encode_program
        from repro.frontend import parse_source
        from repro.introspection.driver import run_introspective

        for fn in (analyze, solve, encode_program, parse_source,
                   run_introspective, Engine.__init__,
                   PointsToSolver.__init__):
            param = inspect.signature(fn).parameters["tracer"]
            assert param.default is NULL_TRACER, fn

    def test_null_tracer_records_nothing(self):
        assert Tracer.enabled and not NULL_TRACER.enabled
        assert isinstance(NULL_TRACER, Tracer)
        handle = NULL_TRACER.span("work", k=1)
        assert NULL_TRACER.span("other") is handle
        with handle:
            NULL_TRACER.annotate(k=2)
            NULL_TRACER.add("n")
            NULL_TRACER.counter_sample("c", 1.0)
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.chrome_trace()["traceEvents"] == []

    def test_untraced_pipeline_leaves_null_tracer_empty(self):
        traced = Tracer()
        _pipeline(tracer=traced)
        phases = {e["ph"] for e in traced.chrome_trace()["traceEvents"]}
        assert phases == {"X", "C"}  # the traced twin has spans and samples

        _pipeline()
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.chrome_trace()["traceEvents"] == []
