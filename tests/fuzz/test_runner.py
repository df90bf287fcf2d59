"""Campaign mechanics: throughput accounting, determinism, replay API."""

import pytest

from repro.benchgen.generator import generate
from repro.fuzz.runner import (
    DEEP_FLAVORS,
    FuzzConfig,
    fuzz_base_specs,
    replay_corpus,
    replay_entry,
    run_campaign,
    run_single_check,
)
from repro.fuzz.corpus import make_entry, write_entry
from repro.fuzz.sketch import ProgramSketch


def small_config(**overrides):
    base = dict(
        seed=3,
        budget_seconds=120.0,
        max_iterations=6,
        corpus_dir=None,
    )
    base.update(overrides)
    return FuzzConfig(**base)


def test_campaign_runs_clean_and_counts(tmp_path):
    outcome = run_campaign(small_config())
    assert outcome.ok
    s = outcome.stats
    assert s.programs + s.invalid_mutants + s.budget_skips == 6
    assert s.programs >= 4
    # every program ran all three engines on every flavor (insens + 3 deep)
    assert s.engine_runs >= s.programs * 3 * (1 + len(DEEP_FLAVORS))
    assert s.oracle_checks["digest-invariance"] == s.programs
    assert s.oracle_checks["engine-equivalence"] == s.programs * 4
    assert s.seconds > 0


def test_campaign_is_deterministic_in_stats():
    a = run_campaign(small_config())
    b = run_campaign(small_config())
    assert a.stats.programs == b.stats.programs
    assert a.stats.oracle_checks == b.stats.oracle_checks


def test_campaign_respects_iteration_cap():
    outcome = run_campaign(small_config(max_iterations=2))
    assert outcome.stats.programs + outcome.stats.invalid_mutants <= 2


def test_base_specs_are_micro():
    for spec in fuzz_base_specs():
        program = generate(spec)
        sketch = ProgramSketch.from_program(program)
        assert sketch.count_instructions() < 400, spec.name


def test_run_single_check_covers_every_oracle(tmp_path):
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))
    for oracle, flavor in (
        ("digest-invariance", None),
        ("engine-equivalence", "2objH"),
        ("insensitive-containment", "2objH"),
        ("introspective-bracketing", "2objH"),
        ("tuple-budget-exactness", "insens"),
        ("trace-transparency", "2objH"),
        ("demand-equivalence", "2objH"),
    ):
        assert run_single_check(sketch, oracle, flavor, seed=1) is None


def test_trace_transparency_runs_on_cadence():
    # iteration % trace_every == 7 schedules the check; 9 iterations with
    # the default cadence of 8 hit it exactly once (iteration 7).
    outcome = run_campaign(small_config(max_iterations=9))
    assert outcome.ok
    assert outcome.stats.oracle_checks.get("trace-transparency", 0) >= 1
    # demand-equivalence rides its own offset (4): sliced queries are
    # cross-checked against whole-program projections in the same window.
    assert outcome.stats.oracle_checks.get("demand-equivalence", 0) >= 1


def test_run_single_check_rejects_unknown_oracle():
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[0]))
    with pytest.raises(ValueError):
        run_single_check(sketch, "not-an-oracle", None, seed=0)


def test_replay_corpus_returns_pairs(tmp_path):
    sketch = ProgramSketch.from_program(generate(fuzz_base_specs()[1]))
    paths = [
        write_entry(
            make_entry(sketch, oracle, flavor=flavor, seed=5), str(tmp_path)
        )
        for oracle, flavor in (
            ("digest-invariance", None),
            ("engine-equivalence", "2callH"),
        )
    ]
    results = replay_corpus(sorted(paths))
    assert [p for p, _v in results] == sorted(paths)
    assert all(v is None for _p, v in results)
