"""Run one workload in this process; ``run.py`` starts it as a child.

The child sets the workload up, prints ``READY`` (the parent times set-up
from its own start to that line), runs whole rounds of ops until the next
round would overrun ``--seconds``, reads peak RSS, checks every recorded
output, and prints one JSON line of raw results.

With ``--trace 1`` it keeps two copies of the workload's state and runs
every op on both, alternating which goes first: once untraced and once
with the workload's layers wrapped in spans.  Their outputs must be
equal; their time difference is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

#: Untraced runs time every op at least this often, however long it
#: takes: two rounds give paper-matrix, the smallest, 120 samples.
MIN_ROUNDS = 2
#: Reported percentiles of op time.  90 is the highest with at least ten
#: samples beyond it on the smallest workload.
PERCENTILES = (50, 90)


def _provenance() -> Dict[str, object]:
    from repro.warehouse import git_revision, host_provenance

    # git_revision() would search the parents of a checkout without .git.
    rev = git_revision(str(ROOT)) if (ROOT / ".git").exists() else None
    return host_provenance(git_rev=rev or "unknown")


def _timed(workload, world, op):
    """Run one op: ``(raw output or the exception it raised, wall s, cpu s)``."""
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        raw = workload.run(world, op)
    except Exception as exc:  # an op that raises is a failed op
        raw = exc
    return raw, time.perf_counter() - w0, time.process_time() - c0


def _record(workload, world, op, raw, round_: int) -> Dict[str, object]:
    if isinstance(raw, Exception):
        rec = {"op": repr(op), "error": f"{type(raw).__name__}: {raw}"}
    else:
        rec = workload.record(world, op, raw)
    rec["round"] = round_
    return rec


def _check(workload, records: List[dict], world) -> List[str]:
    failures = [f"{r['op']} raised {r['error']}" for r in records if "error" in r]
    return failures + workload.check([r for r in records if "error" not in r], world)


def measure(workload, world, ops, seconds: float) -> Dict[str, object]:
    """Untraced rounds; the end-to-end metrics, in reference time.

    Each op's wall and CPU time is scaled by the host-speed gauge read
    just before it (see ``gauge.py``).  Throughput and CPU per op come
    from the median round; the percentiles pool every round's ops.
    """
    from gauge import Gauge
    from percentiles import percentile

    gauge = Gauge()
    records: List[dict] = []
    wall: List[List[float]] = []  # raw seconds, per round and op
    scale: List[List[float]] = []  # gauge factor, per round and op
    cpu: List[List[float]] = []
    start = time.perf_counter()
    last = 0.0
    while len(wall) < MIN_ROUNDS or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if wall:
            world = None  # let the last round's state go before building more
            world = workload.world()
        for times in (wall, scale, cpu):
            times.append([])
        for op in ops:
            scale[-1].append(gauge.scale())
            raw, op_wall, op_cpu = _timed(workload, world, op)
            wall[-1].append(op_wall)
            cpu[-1].append(op_cpu)
            records.append(_record(workload, world, op, raw, len(wall) - 1))
        last = time.perf_counter() - began
        print(f"{workload.name}: round {len(wall)}, {len(ops)} ops in {last:.2f}s",
              file=sys.stderr)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def ref(times: List[List[float]]) -> List[List[float]]:
        return [[t * k for t, k in zip(ts, ks)] for ts, ks in zip(times, scale)]

    ref_wall, ref_cpu = ref(wall), ref(cpu)
    metrics = {
        "ops_per_s": len(ops) / statistics.median(map(sum, ref_wall)),
        "cpu_ms_per_op": 1000 * statistics.median(map(sum, ref_cpu)) / len(ops),
        "peak_rss_mb": peak_mb,
    }
    samples = [t for ts in ref_wall for t in ts]
    for q in PERCENTILES:
        try:
            metrics[f"op_p{q}_ms"] = 1000 * percentile(samples, q)
        except ValueError as exc:
            print(f"{workload.name}: op_p{q}_ms omitted: {exc}", file=sys.stderr)
    failures = _check(workload, records, world)
    return {"rounds": len(wall), "attempted": len(records), "failures": failures,
            "metrics": metrics,
            "op_ms": [[1000 * t for t in ts] for ts in wall],
            "gauge_scale": scale}


def measure_traced(workload, world, ops, seconds: float, trace_file: Path):
    """Untraced and traced twins of every op; the per-layer metrics."""
    from layers import OP_SPAN, Instrumented, split_ops
    from repro.obs import Tracer

    tracer = Tracer()
    wraps = workload.layers()
    plain, traced = world, workload.world()
    records, twins = [], []
    ratios = []  # traced over untraced time, per op
    start = time.perf_counter()
    rounds, last = 0, 0.0
    while rounds < 1 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        if rounds:
            plain, traced = workload.world(), workload.world()
        for i, op in enumerate(ops):
            wall = {}
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if is_traced:
                    with Instrumented(tracer, wraps), tracer.span(OP_SPAN):
                        raw, wall[True], _cpu = _timed(workload, traced, op)
                    twins.append(_record(workload, traced, op, raw, rounds))
                else:
                    raw, wall[False], _cpu = _timed(workload, plain, op)
                    records.append(_record(workload, plain, op, raw, rounds))
            ratios.append(wall[True] / wall[False])
        rounds += 1
        last = time.perf_counter() - began
        print(f"{workload.name}: traced round {rounds}, {len(ops)} op pairs "
              f"in {last:.2f}s", file=sys.stderr)
    failures = [f"traced output differs for op {i}: {t} vs {r}"
                for i, (r, t) in enumerate(zip(records, twins)) if r != t]
    failures += _check(workload, records, plain)

    op_layers = split_ops(tracer.spans())
    op_seconds = sum(o.seconds for o in op_layers)
    self_s: Dict[str, float] = defaultdict(float)
    for o in op_layers:
        for name, s in o.self_seconds.items():
            self_s[name] += s
    metrics: Dict[str, float] = {
        f"{name}.self_pct": 100 * s / op_seconds for name, s in self_s.items()
    }
    # The median pair: a collection pause lands in one twin or the other.
    metrics["trace_overhead_pct"] = 100 * (statistics.median(ratios) - 1)
    metrics["analysis.solve.tuples"] = sum(o.tuples for o in op_layers) / rounds
    metrics["analysis.solve.budget_trips"] = sum(o.budget_trips for o in op_layers) / rounds
    metrics.update(workload.counts(twins, op_layers, rounds))
    layers = {name: {"self_s": s, "self_pct": 100 * s / op_seconds}
              for name, s in sorted(self_s.items(), key=lambda kv: -kv[1])}
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    trace_file.write_text(json.dumps(tracer.chrome_trace()))
    return {"rounds": rounds, "attempted": len(records), "failures": failures,
            "metrics": metrics, "layers": layers, "trace_file": str(trace_file)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from gauge import REFERENCE_MS, sample_ms

    before = sample_ms()
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    world = workload.setup()
    # The gauge on both sides of set-up scales its time (run.py).
    print(f"READY {2 * REFERENCE_MS / (before + sample_ms())}", flush=True)
    if args.setup_only:
        return 0
    ops = workload.ops(args.seed, args.limit)
    if args.trace:
        trace_file = args.out / f"{args.workload}-seed{args.seed}.trace.json"
        result = measure_traced(workload, world, ops, args.seconds, trace_file)
    else:
        result = measure(workload, world, ops, args.seconds)
    result["provenance"] = _provenance()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
