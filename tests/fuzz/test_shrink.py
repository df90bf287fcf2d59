"""Delta-debugging shrinker: a deliberately broken oracle must minimize
to a tiny, deterministic, replayable counterexample (the ISSUE's
acceptance experiment)."""

import random

import pytest

from repro.benchgen.generator import generate
from repro.fuzz import runner as runner_mod
from repro.fuzz.corpus import load_entry, make_entry, write_entry
from repro.fuzz.oracles import Violation
from repro.fuzz.runner import (
    FuzzConfig,
    fuzz_base_specs,
    replay_entry,
    run_campaign,
)
from repro.fuzz.shrink import shrink_sketch
from repro.fuzz.sketch import ProgramSketch
from repro.ir.instructions import Alloc
from repro.ir.validate import ValidationError


def broken_digest_oracle(facts, rng):
    """Injected engine 'bug': every program with an allocation fails."""
    if facts.alloc:
        return Violation(
            oracle="digest-invariance",
            detail=f"injected: {len(facts.alloc)} allocs",
        )
    return None


@pytest.fixture()
def broken_oracle(monkeypatch):
    monkeypatch.setattr(
        runner_mod, "check_digest_invariance", broken_digest_oracle
    )


def campaign(tmp_path, seed=7):
    config = FuzzConfig(
        seed=seed,
        budget_seconds=60.0,
        max_iterations=5,
        corpus_dir=str(tmp_path / "corpus"),
    )
    return config, run_campaign(config)


def test_broken_oracle_yields_shrunk_replayable_repro(broken_oracle, tmp_path):
    _config, outcome = campaign(tmp_path)
    assert not outcome.ok
    assert outcome.violations[0].oracle == "digest-invariance"
    assert len(outcome.corpus_paths) == 1

    entry = load_entry(outcome.corpus_paths[0])
    sketch = ProgramSketch.from_json(entry["program"])
    # The acceptance bound: the minimized counterexample is tiny.
    assert sketch.count_instructions() <= 25
    # While the injected bug is still present, the repro replays red.
    violation = replay_entry(entry)
    assert violation is not None
    assert violation.oracle == "digest-invariance"


def test_shrink_is_deterministic(broken_oracle, tmp_path):
    _c1, first = campaign(tmp_path / "a")
    _c2, second = campaign(tmp_path / "b")
    assert not first.ok and not second.ok
    entry_a = load_entry(first.corpus_paths[0])
    entry_b = load_entry(second.corpus_paths[0])
    assert entry_a["program"] == entry_b["program"]


def test_repro_replays_green_once_bug_is_fixed(tmp_path):
    """Same campaign but WITHOUT the injected bug: replay must be clean."""
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))
    entry = make_entry(sketch, "digest-invariance", seed=7)
    path = write_entry(entry, str(tmp_path))
    assert replay_entry(load_entry(path)) is None


def test_shrink_prefers_smallest_program():
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))
    start = sketch.count_instructions()

    def has_alloc(candidate):
        candidate.build()
        return any(
            isinstance(i, Alloc)
            for m in candidate.methods
            for i in m.instructions
        )

    shrunk = shrink_sketch(sketch, has_alloc)
    assert shrunk.count_instructions() < start
    assert shrunk.count_instructions() <= 5
    assert has_alloc(shrunk)


def test_shrink_returns_input_when_predicate_fails():
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))

    def never_builds(candidate):
        raise ValidationError(["injected: candidate does not build"])

    for predicate in (lambda s: False, never_builds):
        shrunk = shrink_sketch(sketch, predicate)
        assert shrunk.to_json() == sketch.to_json()


def test_shrink_propagates_predicate_bugs():
    """Only build failures count as 'gone': any other exception is a bug
    in the predicate or the oracle, and must not pass as a shrink."""
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))

    def broken(candidate):
        raise RuntimeError("injected oracle bug")

    with pytest.raises(RuntimeError, match="injected oracle bug"):
        shrink_sketch(sketch, broken)


def test_shrink_progress_callback_fires():
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))
    lines = []

    def always(candidate):
        candidate.build()
        return True

    shrink_sketch(sketch, always, progress=lines.append)
    assert lines and "shrink round" in lines[0]
