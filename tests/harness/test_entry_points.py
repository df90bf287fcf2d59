"""The runner, the service worker and the CLI give one run one answer.

All three go through :mod:`repro.harness.runner`; these tests pin that a
job payload and a ``repro bench`` report carry exactly the runner's
statistics, precision and refinement for the same cell.
"""

import ast
from dataclasses import asdict

import pytest

from repro.benchgen.dacapo import build_benchmark
from repro.cli import main
from repro.harness.runner import (
    EXPERIMENT_BUDGET,
    run_analysis,
    run_introspective_analysis,
)
from repro.introspection.heuristics import heuristic_from_spec
from repro.service.jobs import JobSpec
from repro.service.workers import _PASS1_CACHE, execute_job

CELLS = [(None, "2objH"), ("A", "2objH-IntroA")]


@pytest.fixture(scope="module")
def antlr():
    return build_benchmark("antlr")


def runner_outcome(program, introspective):
    if introspective is None:
        return run_analysis(program, "2objH", max_tuples=EXPERIMENT_BUDGET)
    return run_introspective_analysis(
        program,
        "2objH",
        heuristic_from_spec(introspective, None),
        max_tuples=EXPERIMENT_BUDGET,
    )


def without_seconds(row):
    return {k: v for k, v in row.items() if k != "seconds"}


@pytest.mark.parametrize("introspective,name", CELLS)
def test_execute_job_reports_the_runner_outcome(antlr, introspective, name):
    _PASS1_CACHE.clear()
    out = execute_job(
        JobSpec(
            benchmark="antlr",
            analysis="2objH",
            introspective=introspective,
            max_tuples=EXPERIMENT_BUDGET,
        ).to_payload()
    )
    want = runner_outcome(antlr, introspective)
    assert not want.timed_out
    assert out["analysis"] == want.analysis == name
    assert without_seconds(out["stats"]) == without_seconds(asdict(want.stats))
    assert out["precision"] == asdict(want.precision)
    if introspective is None:
        assert out["refinement"] is None
    else:
        stats = want.introspective.refinement_stats
        assert {k: out["refinement"][k] for k in asdict(stats)} == asdict(stats)


@pytest.mark.parametrize("introspective,name", CELLS)
def test_cli_prints_the_runner_outcome(antlr, capsys, introspective, name):
    argv = ["bench", "antlr", "--analysis", "2objH", "--precision",
            "--budget", str(EXPERIMENT_BUDGET)]
    if introspective is not None:
        argv += ["--introspective", introspective]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    (stats,) = [ln for ln in lines if ln.startswith("stats: ")]
    (precision,) = [ln for ln in lines if ln.startswith("precision: ")]

    want = runner_outcome(antlr, introspective)
    printed = ast.literal_eval(stats[len("stats: "):])
    assert printed["analysis"] == want.stats.analysis
    assert without_seconds(printed) == without_seconds(want.stats.row())
    assert precision == f"precision: {want.precision.row()}"
