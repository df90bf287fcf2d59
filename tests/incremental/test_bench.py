"""`repro bench --kind incremental` smoke: payload, equality gate, speedups."""

from __future__ import annotations

import math

import pytest

from repro.harness.bench import INCREMENTAL_EDIT_KINDS, run_bench
from repro.incremental import RESULT_RELATIONS


@pytest.fixture(scope="module")
def report():
    return run_bench("incremental", suite="tiny", repeat=1)


def test_schema_and_shape(report):
    assert report["kind"] == "bench-incremental"
    payload = report["payload"]
    assert payload["suite"] == "tiny"
    assert payload["engines"] == ["scratch", *INCREMENTAL_EDIT_KINDS]
    assert payload["entries"], "no cells measured"
    for entry in payload["entries"]:
        assert entry["cpu_seconds"] > 0
        if entry["engine"] == "scratch":
            assert entry["relations_checked"] == list(RESULT_RELATIONS)
        else:
            assert entry["tiers"], entry
    assert list(RESULT_RELATIONS) == [
        "VARPOINTSTO",
        "FLDPOINTSTO",
        "CALLGRAPH",
        "REACHABLE",
        "THROWPOINTSTO",
    ]


def test_speedups_cover_every_cell_and_geomean_agrees(report):
    payload = report["payload"]
    expected = {
        f"{e['benchmark']}/{e['flavor']}/{e['engine']}"
        for e in payload["entries"]
        if e["engine"] != "scratch"
    }
    assert set(payload["speedups"]) == expected
    geomean = math.exp(
        sum(math.log(s) for s in payload["speedups"].values())
        / len(payload["speedups"])
    )
    assert payload["geomean_speedup"] == pytest.approx(geomean, abs=1e-3)


def test_single_edit_cells_stay_on_the_fast_tier(report):
    # The bench generates pure-addition single edits; every cell should be
    # absorbed monotonically — a silent fall back to "full" would inflate
    # warm timings and must be visible in the data.
    for entry in report["payload"]["entries"]:
        if entry["engine"] != "scratch":
            assert set(entry["tiers"]) == {"monotonic"}, entry
