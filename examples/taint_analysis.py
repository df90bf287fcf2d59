#!/usr/bin/env python
"""Taint analysis — the paper's motivating security application, end to end.

Section 1 of the paper: "precise context-sensitivity is essential for
information-flow analysis, taint analysis, and other security analyses" —
but the precise analysis must actually *terminate*.  This example stages
the full dilemma and its introspective resolution:

* the program has a multi-user session pattern (each user's data in their
  own Session container) — a context-insensitive taint analysis merges
  the sessions and reports a FALSE leak of user A's secret into user B's
  public log;
* the program also contains a pathological event hub that makes the full
  2objH analysis blow its budget — so "just run the precise analysis"
  fails;
* introspective 2objH (Heuristic B) terminates, keeps the sessions
  separate, and reports exactly the one TRUE leak we planted.

Run:  python examples/taint_analysis.py
"""

from repro import BudgetExceeded, ProgramBuilder, analyze, encode_program
from repro.benchgen import BenchmarkSpec, HubSpec
from repro.benchgen.patterns import emit_hub
from repro.clients import analyze_taint, sinks_of_method, sources_in_method
from repro.harness import scaled_heuristic_b
from repro.introspection import run_introspective

BUDGET = 40_000


def build_service():
    b = ProgramBuilder()
    # --- the security-relevant core: per-user sessions -----------------
    b.klass("Data", abstract=True)
    b.klass("Secret", super_name="Data")
    b.klass("Public", super_name="Data")
    b.klass("Session", fields=["payload"])
    with b.method("Session", "put", ["x"]) as m:
        m.store("this", "payload", "x")
    with b.method("Session", "get", []) as m:
        m.load("r", "this", "payload")
        m.ret("r")
    with b.method("Input", "readSecret", [], static=True) as m:
        m.alloc("s", "Secret")
        m.ret("s")
    with b.method("Log", "publish", ["msg"], static=True) as m:
        m.ret()
    with b.method("Users", "drive", [], static=True) as m:
        m.alloc("sessA", "Session")
        m.scall("Input", "readSecret", [], target="secret")
        m.vcall("sessA", "put", ["secret"])
        m.vcall("sessA", "get", [], target="outA")
        m.scall("Log", "publish", ["outA"])  # TRUE leak
        m.alloc("sessB", "Session")
        m.alloc("pub", "Public")
        m.vcall("sessB", "put", ["pub"])
        m.vcall("sessB", "get", [], target="outB")
        m.scall("Log", "publish", ["outB"])  # clean in reality
    # --- the scalability hazard: a pathological event hub --------------
    spec = BenchmarkSpec(
        name="service", util_classes=0, strategy_clusters=(),
        box_groups=(), sink_groups=(),
    )
    hub_driver = emit_hub(
        b, spec, HubSpec(readers=60, elements=60, chain=12), idx=0
    )[0]
    with b.method("Main", "main", [], static=True) as m:
        m.scall("Users", "drive", [])
        m.scall(hub_driver, "drive", [])
    return b.build(entry="Main.main/0")


def main() -> None:
    program = build_service()
    facts = encode_program(program)
    sources = sources_in_method(facts, "Input.readSecret/0")
    sinks = sinks_of_method(facts, "Log.publish/1")
    print(f"service: {program.summary()}")
    print(f"taint spec: {len(sources)} sources, {len(sinks)} sinks; "
          f"budget {BUDGET} tuples\n")

    insens = analyze(program, "insens", facts=facts, max_tuples=BUDGET)
    report = analyze_taint(insens, facts, sources, sinks)
    print(f"insens      : {report.summary()}  <- includes a FALSE leak")

    try:
        full = analyze(program, "2objH", facts=facts, max_tuples=BUDGET)
        print(f"2objH       : {analyze_taint(full, facts, sources, sinks).summary()}")
    except BudgetExceeded as exc:
        print(f"2objH       : TIMEOUT ({exc}) <- the precise analysis is unusable")

    outcome = run_introspective(
        program, "2objH", scaled_heuristic_b(),
        pass1=insens, max_tuples=BUDGET,
    )
    assert not outcome.timed_out
    report = analyze_taint(outcome.result, facts, sources, sinks)
    print(f"2objH-IntroB: {report.summary()}  <- terminates, TRUE leak only")
    for leak in report.leaks:
        print(f"   leak: {leak.tainted_heap}")
        print(f"     -> {leak.sink_invo}")


if __name__ == "__main__":
    main()
