"""Shared infrastructure for the figure-reproduction benchmarks.

Programs, fact bases and the context-insensitive pass are built once per
session and shared across benchmark files; each figure's experiment runs
under ``benchmark.pedantic(rounds=1)`` (an experiment is minutes of
fixpoint work, not a microbenchmark) and then *asserts the paper's shape* —
who times out, who wins, and the precision ordering.
"""

from __future__ import annotations

from typing import Dict, Tuple

import pytest

from repro import AnalysisResult, FactBase, PackedProgram, analyze, encode_program
from repro.benchgen import build_benchmark
from repro.harness import EXPERIMENT_BUDGET
from repro.ir import Program


class BenchCache:
    """Lazily built per-benchmark artifacts, shared across the session."""

    def __init__(self) -> None:
        self._programs: Dict[str, Tuple[Program, FactBase]] = {}
        self._packs: Dict[str, PackedProgram] = {}
        self._insens: Dict[str, AnalysisResult] = {}

    def program(self, name: str) -> Tuple[Program, FactBase]:
        if name not in self._programs:
            program = build_benchmark(name)
            self._programs[name] = (program, encode_program(program))
        return self._programs[name]

    def pack(self, name: str) -> PackedProgram:
        """The benchmark's packed program, shared by its runs as a figure
        driver shares one across the cells of a benchmark."""
        if name not in self._packs:
            self._packs[name] = PackedProgram(self.program(name)[0])
        return self._packs[name]

    def insens(self, name: str) -> AnalysisResult:
        if name not in self._insens:
            program, _facts = self.program(name)
            self._insens[name] = analyze(
                program, "insens", pack=self.pack(name), max_tuples=EXPERIMENT_BUDGET
            )
        return self._insens[name]


@pytest.fixture(scope="session")
def cache() -> BenchCache:
    return BenchCache()
