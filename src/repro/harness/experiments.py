"""Reproduction drivers for every table and figure in the paper.

One function per artifact:

* :func:`figure1`  — context-insensitive vs 2objH running times over the
  nine DaCapo analogs (the bimodality chart).
* :func:`figure4`  — %% of call sites / objects selected to *not* be
  refined, per heuristic, over the seven Figure 4 benchmarks.
* :func:`figure5` / :func:`figure6` / :func:`figure7` — running time plus
  the three precision metrics for the introspective variants of 2objH /
  2typeH / 2callH against the insens and full baselines, over the six hard
  benchmarks.

Each returns a structured result with a ``render()`` text report and a
``to_markdown()`` table; the CLI (``python -m repro.harness.experiments`` /
``repro-experiments``) prints the text form.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import PackedProgram, analyze
from ..benchgen.dacapo import (
    FIGURE1_BENCHMARKS,
    FIGURE4_BENCHMARKS,
    HARD_BENCHMARKS,
    build_benchmark,
)
from ..introspection.driver import RefinementStats
from ..introspection.heuristics import Heuristic
from ..introspection.metrics import compute_metrics
from .reporting import render_bars, render_markdown_table, render_table
from .runner import (
    EXPERIMENT_BUDGET,
    EXPERIMENT_TIME_LIMIT,
    RunOutcome,
    run_analysis,
    run_introspective_analysis,
    scaled_heuristic_a,
    scaled_heuristic_b,
)

__all__ = [
    "Figure1Result",
    "Figure4Result",
    "FlavorFigureResult",
    "figure1",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "main",
]


# ----------------------------------------------------------------------
# Figure 1: bimodality of context-sensitivity
# ----------------------------------------------------------------------
@dataclass
class Figure1Result:
    """insens vs 2objH over the nine benchmarks."""

    benchmarks: Tuple[str, ...]
    runs: Dict[str, Dict[str, RunOutcome]]  # benchmark -> analysis -> outcome

    def timed_out(self, benchmark: str, analysis: str) -> bool:
        return self.runs[benchmark][analysis].timed_out

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for bench in self.benchmarks:
            row: List[object] = [bench]
            for analysis in ("insens", "2objH"):
                run = self.runs[bench][analysis]
                row.append("TIMEOUT" if run.timed_out else run.tuples)
                row.append(None if run.timed_out else round(run.seconds, 3))
            out.append(row)
        return out

    _HEADERS = (
        "benchmark",
        "insens tuples",
        "insens s",
        "2objH tuples",
        "2objH s",
    )

    def render(self) -> str:
        table = render_table(self._HEADERS, self.rows())
        series = {
            analysis: [
                None
                if self.runs[b][analysis].timed_out
                else float(self.runs[b][analysis].tuples or 0)
                for b in self.benchmarks
            ]
            for analysis in ("insens", "2objH")
        }
        bars = render_bars(
            "Figure 1 analog: derived tuples (full bar = exceeded budget)",
            series,
            self.benchmarks,
            unit="t",
        )
        return f"{table}\n\n{bars}"

    def to_markdown(self) -> str:
        return render_markdown_table(self._HEADERS, self.rows())


def figure1(
    benchmarks: Sequence[str] = FIGURE1_BENCHMARKS,
    max_tuples: int = EXPERIMENT_BUDGET,
    max_seconds: float = EXPERIMENT_TIME_LIMIT,
) -> Figure1Result:
    """Reproduce Figure 1: insens is flat, 2objH is bimodal."""
    runs: Dict[str, Dict[str, RunOutcome]] = {}
    for bench in benchmarks:
        program = build_benchmark(bench)
        pack = PackedProgram(program)
        runs[bench] = {
            analysis: run_analysis(
                program,
                analysis,
                pack=pack,
                benchmark=bench,
                max_tuples=max_tuples,
                max_seconds=max_seconds,
            )
            for analysis in ("insens", "2objH")
        }
    return Figure1Result(tuple(benchmarks), runs)


# ----------------------------------------------------------------------
# Figure 4: refinement-exclusion statistics
# ----------------------------------------------------------------------
@dataclass
class Figure4Result:
    """%% of call sites / objects not refined, per benchmark and heuristic."""

    benchmarks: Tuple[str, ...]
    percentages: Dict[str, Dict[str, Tuple[float, float]]]
    # benchmark -> heuristic name -> (call-site %, object %)

    _HEADERS = (
        "benchmark",
        "call sites A %",
        "call sites B %",
        "objects A %",
        "objects B %",
    )

    def averages(self) -> Dict[str, Tuple[float, float]]:
        out: Dict[str, Tuple[float, float]] = {}
        for h in ("A", "B"):
            sites = [self.percentages[b][h][0] for b in self.benchmarks]
            objs = [self.percentages[b][h][1] for b in self.benchmarks]
            out[h] = (sum(sites) / len(sites), sum(objs) / len(objs))
        return out

    def rows(self) -> List[List[object]]:
        out: List[List[object]] = []
        for bench in self.benchmarks:
            a = self.percentages[bench]["A"]
            b = self.percentages[bench]["B"]
            out.append(
                [bench, round(a[0], 1), round(b[0], 1), round(a[1], 1), round(b[1], 1)]
            )
        avg = self.averages()
        out.append(
            [
                "average",
                round(avg["A"][0], 2),
                round(avg["B"][0], 2),
                round(avg["A"][1], 2),
                round(avg["B"][1], 2),
            ]
        )
        return out

    def render(self) -> str:
        header = (
            "Figure 4 analog: %% of call sites and objects selected to NOT "
            "be refined"
        )
        return f"{header}\n{render_table(self._HEADERS, self.rows())}"

    def to_markdown(self) -> str:
        return render_markdown_table(self._HEADERS, self.rows())


def figure4(
    benchmarks: Sequence[str] = FIGURE4_BENCHMARKS,
    heuristic_a: Optional[Heuristic] = None,
    heuristic_b: Optional[Heuristic] = None,
    max_tuples: int = EXPERIMENT_BUDGET,
) -> Figure4Result:
    """Reproduce Figure 4: A excludes much more than B; both are minorities."""
    ha = heuristic_a if heuristic_a is not None else scaled_heuristic_a()
    hb = heuristic_b if heuristic_b is not None else scaled_heuristic_b()
    percentages: Dict[str, Dict[str, Tuple[float, float]]] = {}
    for bench in benchmarks:
        program = build_benchmark(bench)
        pack = PackedProgram(program)
        pass1 = analyze(program, "insens", pack=pack, max_tuples=max_tuples)
        metrics = compute_metrics(pass1, pack)
        percentages[bench] = {}
        for label, heuristic in (("A", ha), ("B", hb)):
            decision = heuristic.decide(metrics, pack, pass1)
            stats = RefinementStats.of(pass1, pack, decision)
            percentages[bench][label] = (
                stats.call_site_percent,
                stats.object_percent,
            )
    return Figure4Result(tuple(benchmarks), percentages)


# ----------------------------------------------------------------------
# Figures 5-7: per-flavor performance and precision
# ----------------------------------------------------------------------
@dataclass
class FlavorFigureResult:
    """insens / IntroA / IntroB / full for one context flavor."""

    figure: str
    flavor: str
    benchmarks: Tuple[str, ...]
    variants: Tuple[str, ...]
    runs: Dict[str, Dict[str, RunOutcome]]  # benchmark -> variant -> outcome

    def run(self, benchmark: str, variant: str) -> RunOutcome:
        return self.runs[benchmark][variant]

    def timed_out(self, benchmark: str, variant: str) -> bool:
        return self.runs[benchmark][variant].timed_out

    def _time_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for bench in self.benchmarks:
            row: List[object] = [bench]
            for variant in self.variants:
                run = self.runs[bench][variant]
                row.append("TIMEOUT" if run.timed_out else run.tuples)
            rows.append(row)
        return rows

    def _precision_rows(self, metric: str) -> List[List[object]]:
        rows: List[List[object]] = []
        for bench in self.benchmarks:
            row: List[object] = [bench]
            for variant in self.variants:
                run = self.runs[bench][variant]
                if run.timed_out or run.precision is None:
                    row.append(None)
                else:
                    row.append(run.precision.row()[metric])
            rows.append(row)
        return rows

    def render(self) -> str:
        headers = ("benchmark",) + self.variants
        parts = [
            f"{self.figure} analog ({self.flavor}): derived tuples "
            "(TIMEOUT = exceeded budget)",
            render_table(headers, self._time_rows()),
        ]
        for metric, title in (
            ("poly-vcalls", "polymorphic virtual call sites"),
            ("reach-methods", "reachable methods"),
            ("casts-may-fail", "reachable casts that may fail"),
        ):
            parts.append(f"\n{title} (lower is better; '-' = timed out)")
            parts.append(render_table(headers, self._precision_rows(metric)))
        return "\n".join(parts)

    def to_markdown(self) -> str:
        headers = ("benchmark",) + self.variants
        parts = [
            f"**{self.figure} ({self.flavor}) — derived tuples**",
            render_markdown_table(headers, self._time_rows()),
        ]
        for metric, title in (
            ("poly-vcalls", "polymorphic virtual call sites"),
            ("reach-methods", "reachable methods"),
            ("casts-may-fail", "casts that may fail"),
        ):
            parts.append(f"\n**{self.figure} ({self.flavor}) — {title}**")
            parts.append(render_markdown_table(headers, self._precision_rows(metric)))
        return "\n".join(parts)


def _flavor_figure(
    figure: str,
    flavor: str,
    benchmarks: Sequence[str],
    max_tuples: int,
    max_seconds: float,
) -> FlavorFigureResult:
    intro_a = f"{flavor}-IntroA"
    intro_b = f"{flavor}-IntroB"
    variants = ("insens", intro_a, intro_b, flavor)
    runs: Dict[str, Dict[str, RunOutcome]] = {}
    for bench in benchmarks:
        program = build_benchmark(bench)
        pack = PackedProgram(program)
        insens = run_analysis(
            program,
            "insens",
            pack=pack,
            benchmark=bench,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
        )
        bench_runs: Dict[str, RunOutcome] = {"insens": insens}
        for label, heuristic in (
            (intro_a, scaled_heuristic_a()),
            (intro_b, scaled_heuristic_b()),
        ):
            bench_runs[label] = run_introspective_analysis(
                program,
                flavor,
                heuristic,
                pack=pack,
                pass1=insens.result,
                benchmark=bench,
                max_tuples=max_tuples,
                max_seconds=max_seconds,
            )
        bench_runs[flavor] = run_analysis(
            program,
            flavor,
            pack=pack,
            benchmark=bench,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
        )
        runs[bench] = bench_runs
    return FlavorFigureResult(figure, flavor, tuple(benchmarks), variants, runs)


def figure5(
    benchmarks: Sequence[str] = HARD_BENCHMARKS,
    max_tuples: int = EXPERIMENT_BUDGET,
    max_seconds: float = EXPERIMENT_TIME_LIMIT,
) -> FlavorFigureResult:
    """Reproduce Figure 5: introspective variants of 2objH."""
    return _flavor_figure("Figure 5", "2objH", benchmarks, max_tuples, max_seconds)


def figure6(
    benchmarks: Sequence[str] = HARD_BENCHMARKS,
    max_tuples: int = EXPERIMENT_BUDGET,
    max_seconds: float = EXPERIMENT_TIME_LIMIT,
) -> FlavorFigureResult:
    """Reproduce Figure 6: introspective variants of 2typeH."""
    return _flavor_figure("Figure 6", "2typeH", benchmarks, max_tuples, max_seconds)


def figure7(
    benchmarks: Sequence[str] = HARD_BENCHMARKS,
    max_tuples: int = EXPERIMENT_BUDGET,
    max_seconds: float = EXPERIMENT_TIME_LIMIT,
) -> FlavorFigureResult:
    """Reproduce Figure 7: introspective variants of 2callH."""
    return _flavor_figure("Figure 7", "2callH", benchmarks, max_tuples, max_seconds)


_EXPERIMENTS = {
    "fig1": lambda: figure1(),
    "fig4": lambda: figure4(),
    "fig5": lambda: figure5(),
    "fig6": lambda: figure6(),
    "fig7": lambda: figure7(),
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=["all"],
        help="which artifacts to regenerate: fig1 fig4 fig5 fig6 fig7, or all",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit markdown tables (for EXPERIMENTS.md) instead of text",
    )
    args = parser.parse_args(argv)
    names = list(args.experiments)
    if "all" in names:
        names = list(_EXPERIMENTS)
    for name in names:
        runner = _EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; choose from {list(_EXPERIMENTS)}")
            return 2
        result = runner()
        print(f"\n===== {name} =====")
        print(result.to_markdown() if args.markdown else result.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
