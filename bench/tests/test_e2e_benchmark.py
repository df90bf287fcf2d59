"""Self-tests of the end-to-end benchmark (``pytest bench/tests``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import oracle
import worker
import workloads
from percentiles import percentile

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
NAMES = tuple(workloads.WORKLOADS)


@pytest.fixture(scope="module")
def prepared():
    """Each workload, set up once; tests take fresh state from world()."""
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls()
        workload.setup()
        out[name] = workload
    return out


@pytest.fixture(scope="module")
def traced(prepared, tmp_path_factory):
    """A small traced run per workload, with the wrapped attributes as
    they were before it."""
    out = {}
    for name, workload in prepared.items():
        before = [(w.owner, w.attr, vars(w.owner)[w.attr]) for w in workload.layers()]
        ops = workload.ops(2014, limit=8)
        trace_file = tmp_path_factory.mktemp(name) / "trace.json"
        result = worker.measure_traced(workload, workload.world(), ops, 0, trace_file)
        out[name] = (result, before, trace_file)
    return out


@pytest.mark.parametrize("name", NAMES)
def test_small_run_passes_the_oracle(prepared, name):
    workload = prepared[name]
    ops = workload.ops(2014, limit=8)
    result = worker.measure(workload, workload.world(), ops, 0)
    assert result["failures"] == []
    assert result["attempted"] == len(ops) * worker.MIN_ROUNDS
    assert {"ops_per_s", "cpu_ms_per_op", "peak_rss_mb"} <= set(result["metrics"])


@pytest.mark.parametrize("name", NAMES)
def test_traced_outputs_equal_untraced_and_wraps_are_restored(traced, name):
    result, before, trace_file = traced[name]
    assert result["failures"] == []  # includes traced-vs-untraced mismatches
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} left wrapped"
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert sum(e["name"] == "bench.op" for e in events) == result["attempted"]
    assert result["layers"]["bench.op"]["self_pct"] < 100


def test_every_per_layer_metric_is_produced_by_some_workload(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set()
    for result, _before, _file in traced.values():
        produced |= set(result["metrics"])
    missing = {m["name"] for m in spec["per_layer"]} - produced
    assert not missing


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        percentile(list(range(19)), 50)


def test_same_seed_same_ops_other_seed_other_inputs(prepared):
    matrix = prepared["paper-matrix"]
    assert matrix.ops(1) == matrix.ops(1)
    assert sorted(matrix.ops(1), key=repr) == sorted(matrix.ops(2), key=repr)

    queries = prepared["query-mix"]
    assert queries.ops(1) == queries.ops(1)
    assert {op[2] for op in queries.ops(1)} != {op[2] for op in queries.ops(2)}

    sessions = workloads.EditSessions()
    sessions.sketches = prepared["edit-session"].sketches

    def scripts(seed):
        ops = sessions.ops(seed)
        return ops, {b: [s.to_json() for s in ss] for b, ss in sessions.scripts.items()}

    assert scripts(1) == scripts(1)
    assert scripts(1)[1] != scripts(2)[1]


def test_expected_matrix_agrees_with_experiments_md():
    experiments = (ROOT / "EXPERIMENTS.md").read_text()
    cells = oracle.load_expected()
    assert len(cells) == 60
    assert oracle.disagreements_with_experiments(cells, experiments) == []
    cells["jython/2objH-IntroB"] = dict(cells["jython/2objH-IntroB"], timed_out=False)
    assert oracle.disagreements_with_experiments(cells, experiments)


def _copy_tree(dest: Path, with_src: bool) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(BENCH, dest / "bench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)


def _run_cli(tree: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args, "--out", str(tree / "out")],
        cwd=tree, capture_output=True, text=True, timeout=170,
    )


def test_corrupted_expected_entry_fails_the_run(tmp_path):
    _copy_tree(tmp_path, with_src=True)
    cell = oracle.cell_name(*workloads.PaperMatrix().ops(2014, limit=1)[0])
    path = tmp_path / "bench" / "expected" / "paper-matrix.json"
    doc = json.loads(path.read_text())
    doc["cells"][cell]["reachable_methods"] = -1
    path.write_text(json.dumps(doc))
    proc = _run_cli(tmp_path, "--workload", "paper-matrix", "--limit", "1",
                    "--seconds", "0")
    assert proc.returncode == 1, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] == 2
    result = json.loads((tmp_path / "out" / "paper-matrix-seed2014.json").read_text())
    assert result["error_rate"] == 1.0


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    _copy_tree(tmp_path, with_src=False)
    proc = _run_cli(tmp_path, "--workload", "paper-matrix", "--limit", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result(tmp: Path, name: str, value: float) -> str:
    path = tmp / name
    path.write_text(json.dumps({
        "workload": "query-mix",
        "metrics": {"op_p50_ms": {"value": value, "unit": "ms"}},
    }))
    return str(path)


def test_compare_flags_medians_further_apart_than_the_bound(tmp_path, capsys):
    a = [_result(tmp_path, f"a{i}", v) for i, v in enumerate((10.0, 10.2, 9.9))]
    near = [_result(tmp_path, f"b{i}", v) for i, v in enumerate((10.3, 10.1, 10.4))]
    far = [_result(tmp_path, f"c{i}", v) for i, v in enumerate((13.0, 12.9, 13.1))]
    assert compare.main(a + ["--"] + near) == 0
    assert compare.main(a + ["--"] + far) == 1
    assert "DISAGREE" in capsys.readouterr().out
