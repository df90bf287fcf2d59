"""Structural validation of IR programs.

``validate_program`` checks the properties the analysis assumes but that the
dataclasses alone cannot enforce:

* every referenced class name (allocations, casts, static calls/loads)
  resolves in the hierarchy;
* allocations only instantiate concrete classes (not interfaces/abstract);
* static calls resolve to a static method, special calls to an instance
  method;
* instance fields used in loads/stores are declared somewhere (a warning-level
  check — Doop tolerates unknown fields, we reject them to catch generator
  bugs early);
* entry points are static, zero-or-more-arg methods.

Violations raise :class:`ValidationError` listing every problem found.

A method's problems depend on the rest of the program only through the
hierarchy, the classes' instance and static fields and
``Program.lookup`` of its static and special calls.  So when an edit changes no class or field, only the
methods it changed and the methods calling a signature it added or
removed can become invalid; ``validate_program(program, methods)``
checks just those (and the entry points).
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, List, Optional

from .instructions import (
    Alloc,
    Cast,
    Catch,
    Load,
    SpecialCall,
    StaticCall,
    StaticLoad,
    StaticStore,
    Store,
    VirtualCall,
)
from .program import Method, Program

__all__ = ["ValidationError", "validate_program"]


class ValidationError(Exception):
    """Raised with a newline-separated list of validation problems."""

    def __init__(self, problems: List[str]) -> None:
        super().__init__("\n".join(problems))
        self.problems = problems


def validate_program(
    program: Program, methods: Optional[Iterable[Method]] = None
) -> None:
    """Check structural well-formedness; raise ValidationError on problems.

    ``methods`` limits the per-method checks to those methods (default:
    every method); the entry points are always checked.
    """
    problems: List[str] = []
    fields = frozenset(f for cd in program.classes.values() for f in cd.fields)
    for method in program.methods() if methods is None else methods:
        _validate_method(program, method, fields, problems)
    for ep in program.entry_points:
        method = program.method(ep)
        if not method.is_static:
            problems.append(f"entry point {ep} must be static")
    if problems:
        raise ValidationError(problems)


def _validate_method(
    program: Program,
    method: Method,
    fields: AbstractSet[str],
    problems: List[str],
) -> None:
    hierarchy = program.hierarchy
    where = method.id

    def known_type(name: str, what: str) -> bool:
        if name not in hierarchy:
            problems.append(f"{where}: {what} references unknown type {name!r}")
            return False
        return True

    for instr in method.instructions:
        if isinstance(instr, Alloc):
            if known_type(instr.class_name, "alloc"):
                ct = hierarchy[instr.class_name]
                if ct.is_interface or ct.is_abstract:
                    problems.append(
                        f"{where}: cannot instantiate non-concrete type "
                        f"{instr.class_name!r}"
                    )
        elif isinstance(instr, Cast):
            known_type(instr.type_name, "cast")
        elif isinstance(instr, Catch):
            known_type(instr.type_name, "catch clause")
        elif isinstance(instr, StaticCall):
            if known_type(instr.class_name, "static call"):
                target = program.lookup(instr.class_name, instr.sig)
                if target is None:
                    problems.append(
                        f"{where}: static call to unresolvable "
                        f"{instr.class_name}.{instr.sig}"
                    )
                elif not target.is_static:
                    problems.append(
                        f"{where}: static call to instance method {target.id}"
                    )
        elif isinstance(instr, SpecialCall):
            if known_type(instr.class_name, "special call"):
                target = program.lookup(instr.class_name, instr.sig)
                if target is None:
                    problems.append(
                        f"{where}: special call to unresolvable "
                        f"{instr.class_name}.{instr.sig}"
                    )
                elif target.is_static:
                    problems.append(
                        f"{where}: special call to static method {target.id}"
                    )
        elif isinstance(instr, (StaticLoad, StaticStore)):
            cls = program.classes.get(instr.class_name)
            if cls is None:
                problems.append(
                    f"{where}: static field access on unknown class "
                    f"{instr.class_name!r}"
                )
            elif instr.field_name not in cls.static_fields:
                problems.append(
                    f"{where}: unknown static field "
                    f"{instr.class_name}.{instr.field_name}"
                )
        elif isinstance(instr, (Load, Store)):
            field_name = instr.field_name
            if field_name != "<arr>" and field_name not in fields:
                problems.append(
                    f"{where}: field {field_name!r} is not declared by any class"
                )
        elif isinstance(instr, VirtualCall):
            if not instr.base:
                problems.append(f"{where}: virtual call with empty base")
