"""End-to-end benchmark of the introspective-analysis pipeline.

    python3 bench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Runs each workload (all three when ``--workload`` is omitted) in its own
child process, one after another, single-threaded.  An untraced run
prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` prints
its per-layer metrics and writes a Chrome trace.  Every run checks every
output against an independent oracle, writes a result JSON stamped with
the host's provenance under ``--out``, and ends its standard output with
one JSON line::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output was correct.  See
``bench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("paper-matrix", "query-mix", "edit-session")
DEFAULT_SEED = 2014
#: Set-up is sampled this many times per untraced run (one sample per
#: child process, the measuring child included); the median is reported.
SETUP_SAMPLES = 3
#: Wall-clock cap on one workload's children, set-up samples included.
TIME_LIMIT_S = 175.0


class BenchError(RuntimeError):
    pass


def spawn(argv: List[str], deadline: float) -> Tuple[float, float, Optional[dict]]:
    """Run ``worker.py`` with ``argv``; return the seconds to its READY
    line, the gauge scale it reported there, and its result.

    The child is killed at ``deadline`` (a ``time.perf_counter`` value)
    and always waited for.
    """
    cmd = [sys.executable, str(BENCH / "worker.py"), *argv]
    # A fixed hash seed keeps set iteration, and so the solver's work
    # order, the same in every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    ready, scale, last = None, 1.0, ""
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY"):
                ready = time.perf_counter() - start
                scale = float(line.split()[1])
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise BenchError(f"worker {' '.join(argv)} exited with {code}")
    return ready, scale, json.loads(last) if last else None


def run_workload(name: str, args, spec: dict) -> dict:
    deadline = time.perf_counter() + TIME_LIMIT_S
    argv = ["--workload", name, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--trace", str(args.trace), "--out", str(args.out)]
    if args.limit is not None:
        argv += ["--limit", str(args.limit)]
    setups, scales = [], []
    samples = 1 if args.trace else SETUP_SAMPLES
    for i in range(samples):
        measuring = i == samples - 1  # the set-up-only children go first
        ready, scale, child = spawn(
            argv if measuring else argv + ["--setup-only"], deadline)
        setups.append(ready)
        scales.append(scale)
    measured = dict(child["metrics"], setup_s=statistics.median(
        s * k for s, k in zip(setups, scales)))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics: Dict[str, dict] = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None and args.trace:
            value = 0.0  # no op of this workload enters that layer
        if value is None:
            if args.limit is None:
                raise BenchError(f"{name}: metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    failed = len(child["failures"])
    return {
        "schema": "repro-bench-e2e/1",
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "rounds": child["rounds"],
        "attempted": child["attempted"],
        "failed": failed,
        "error_rate": failed / child["attempted"],
        "failures": child["failures"][:20],
        "setup_samples_s": setups,
        "setup_gauge_scale": scales,
        "metrics": metrics,
        "layers": child.get("layers"),
        "op_ms": child.get("op_ms"),
        "gauge_scale": child.get("gauge_scale"),
        "trace_file": child.get("trace_file"),
        "provenance": child["provenance"],
    }


def report(result: dict) -> None:
    name = result["workload"]
    print(f"== {name} (seed {result['seed']}, {result['rounds']} rounds, "
          f"{result['attempted']} ops, {result['failed']} failed)")
    if result["trace"]:
        print(f"{'layer':34s} {'self s':>10s} {'self %':>8s}")
        for layer, row in result["layers"].items():
            print(f"{layer:34s} {row['self_s']:10.4f} {row['self_pct']:8.2f}")
        print(f"chrome trace: {result['trace_file']}")
    for metric, m in result["metrics"].items():
        print(f"{metric:34s} {m['value']:14.6g} {m['unit']}")
    if not result["trace"]:
        print(f"{result['attempted']} op samples ({result['rounds']} rounds); "
              f"times scaled to the gauge's reference speed; setup_s is the "
              f"median of {len(result['setup_samples_s'])} set-ups")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measuring time per workload (whole rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run, per-layer metrics and a Chrome trace")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="directory for result JSON and traces")
    parser.add_argument("--limit", type=int,
                        help="smoke test: at most this many ops per round "
                             "(metrics short of samples are left out)")
    args = parser.parse_args(argv)

    args.out.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOADS)
    ok = True
    for name in names:
        try:
            result = run_workload(name, args, spec)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        suffix = "-trace" if args.trace else ""
        path = args.out / f"{name}-seed{args.seed}{suffix}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
        report(result)
        ok = ok and result["failed"] == 0
        print(json.dumps({
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["metrics"],
        }), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
