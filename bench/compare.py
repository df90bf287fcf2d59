"""Compare two sets of benchmark result files, metric by metric.

    python3 bench/compare.py RUNS_A... -- RUNS_B...

Each RUN is a result JSON written by ``run.py`` (``--out``).  For every
(workload, metric) the script prints each set's first quartile, median
and third quartile, their spread (interquartile range over median) and
the change of the median from A to B.  It exits 1 when, for some metric
with a bound in ``BENCHMARK.json``, the two medians differ by more than
that bound in either direction, and 0 otherwise.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from percentiles import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent

Key = Tuple[str, str]


def load(paths: Sequence[str]) -> Dict[Key, List[float]]:
    values: Dict[Key, List[float]] = defaultdict(list)
    for path in paths:
        result = json.loads(Path(path).read_text())
        for metric, m in result["metrics"].items():
            values[(result["workload"], metric)].append(m["value"])
    return values


def compare(a: Dict[Key, List[float]], b: Dict[Key, List[float]],
            bounds: Dict[str, float]) -> List[str]:
    """Print the comparison table; return the keys that disagree."""
    disagree = []
    print(f"{'workload':13s} {'metric':28s} {'A q1/median/q3 (n)':>34s} "
          f"{'B q1/median/q3 (n)':>34s} {'change':>8s} {'bound':>6s}")
    for key in sorted(set(a) & set(b)):
        workload, metric = key
        cols = []
        for values in (a[key], b[key]):
            q1, med, q3 = quartiles(values)
            cols.append(f"{q1:.4g}/{med:.4g}/{q3:.4g} ({len(values)}, "
                        f"{100 * spread(values):.1f}%)")
        med_a, med_b = quartiles(a[key])[1], quartiles(b[key])[1]
        change = (med_b - med_a) / med_a if med_a else 0.0
        bound = bounds.get(metric)
        flag = ""
        if bound is not None and abs(change) > bound:
            disagree.append(f"{workload} {metric}")
            flag = "  DISAGREE"
        print(f"{workload:13s} {metric:28s} {cols[0]:>34s} {cols[1]:>34s} "
              f"{100 * change:+7.1f}% {'' if bound is None else f'{100 * bound:.0f}%':>6s}{flag}")
    return disagree


def main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = list(argv).index("--")
    runs_a, runs_b = argv[:split], argv[split + 1:]
    if not runs_a or not runs_b:
        print("need at least one run on each side of --", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    disagree = compare(load(runs_a), load(runs_b), bounds)
    for key in disagree:
        print(f"disagree beyond bound: {key}")
    return 1 if disagree else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
