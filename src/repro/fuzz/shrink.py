"""Delta-debugging minimizer for oracle counterexamples.

``shrink_sketch`` greedily minimizes a :class:`~repro.fuzz.sketch.
ProgramSketch` while a caller-supplied predicate keeps holding (the
predicate re-runs the violated oracle; a sketch that no longer builds, or
no longer violates, is rejected).  "No longer builds" means the candidate
raised :class:`~repro.ir.validate.ValidationError` or
:class:`~repro.ir.types.TypeError_`; any other exception from the
predicate is a bug in the predicate or the code it runs, and propagates
out of :func:`shrink_sketch` rather than passing as a successful shrink.
Three reduction passes repeat until a full round removes nothing:

1. **methods** — drop whole non-entry methods;
2. **classes** — drop whole classes together with their methods;
3. **instructions** — ddmin-style chunked deletion inside each method,
   halving chunk sizes down to single instructions.

The result is the classic delta-debugging local minimum: no single
method, class, or instruction can be removed without losing the
violation.  Predicates are expected to be deterministic; the shrinker
itself draws no randomness, so a given (sketch, predicate) pair always
minimizes to the same program.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir.types import TypeError_
from ..ir.validate import ValidationError
from .sketch import ProgramSketch

__all__ = ["shrink_sketch"]

Predicate = Callable[[ProgramSketch], bool]


def _holds(predicate: Predicate, candidate: ProgramSketch) -> bool:
    """Predicate wrapper: a candidate that no longer builds counts as 'gone'."""
    try:
        return bool(predicate(candidate))
    except (ValidationError, TypeError_):
        return False


def _shrink_methods(
    sketch: ProgramSketch, predicate: Predicate
) -> ProgramSketch:
    changed = True
    while changed:
        changed = False
        entry_ids = set(sketch.entry_points)
        for idx in range(len(sketch.methods) - 1, -1, -1):
            if sketch.methods[idx].id in entry_ids:
                continue
            candidate = sketch.clone()
            del candidate.methods[idx]
            if _holds(predicate, candidate):
                sketch = candidate
                changed = True
    return sketch


def _shrink_classes(
    sketch: ProgramSketch, predicate: Predicate
) -> ProgramSketch:
    entry_classes = {ep.split(".", 1)[0] for ep in sketch.entry_points}
    for name in sorted(sketch.classes):
        if name in entry_classes:
            continue
        candidate = sketch.clone()
        del candidate.classes[name]
        candidate.methods = [
            m for m in candidate.methods if m.class_name != name
        ]
        if _holds(predicate, candidate):
            sketch = candidate
    return sketch


def _shrink_instructions(
    sketch: ProgramSketch, predicate: Predicate
) -> ProgramSketch:
    for m_idx in range(len(sketch.methods)):
        chunk = max(1, len(sketch.methods[m_idx].instructions) // 2)
        while chunk >= 1:
            start = 0
            while start < len(sketch.methods[m_idx].instructions):
                candidate = sketch.clone()
                del candidate.methods[m_idx].instructions[
                    start : start + chunk
                ]
                if _holds(predicate, candidate):
                    sketch = candidate  # keep start: next chunk shifted in
                else:
                    start += chunk
            chunk //= 2
    return sketch


def shrink_sketch(
    sketch: ProgramSketch,
    predicate: Predicate,
    progress: Optional[Callable[[str], None]] = None,
    max_rounds: int = 8,
) -> ProgramSketch:
    """Minimize ``sketch`` while ``predicate`` holds; see module docstring.

    ``predicate(sketch)`` must be True for the input (otherwise the input
    is returned unchanged).
    """
    if not _holds(predicate, sketch):
        return sketch
    for round_no in range(max_rounds):
        before = (sketch.count_instructions(), len(sketch.methods), len(sketch.classes))
        sketch = _shrink_methods(sketch, predicate)
        sketch = _shrink_classes(sketch, predicate)
        sketch = _shrink_instructions(sketch, predicate)
        after = (sketch.count_instructions(), len(sketch.methods), len(sketch.classes))
        if progress is not None:
            progress(
                f"shrink round {round_no + 1}: {before[0]} -> {after[0]} "
                f"instructions, {after[1]} methods, {after[2]} classes"
            )
        if after == before:
            break
    return sketch
