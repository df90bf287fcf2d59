"""The span tracer: nesting, thread-safety, export formats, no-op cost."""

import json
import threading
import time

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
        with t.span("s", kind="demo"):
            t.annotate(items=3)
            t.add("ops")
            t.add("ops", 2)
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
    """parse -> encode -> introspective run -> precision, as a user runs it."""
    from repro.clients.precision import measure_precision
    from repro.facts.encoder import encode_program
    from repro.frontend import parse_source
    from repro.introspection.driver import run_introspective

    program = parse_source(_boxes_source(80), **traced)
    facts = encode_program(program, **traced)
    outcome = run_introspective(program, "2objH", facts=facts, **traced)
    measure_precision(outcome.result, facts)


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
