"""Mutable, serializable program sketches — the fuzzer's substrate.

A frozen :class:`~repro.ir.program.Program` cannot be edited (site ids are
assigned at freeze time), so the fuzzer works on a :class:`ProgramSketch`:
plain lists of class and method descriptions holding the same immutable
:class:`~repro.ir.instructions.Instruction` dataclasses.  Sketches convert
losslessly in both directions —

* :meth:`ProgramSketch.from_program` lifts a frozen program (e.g. a
  ``benchgen.generate`` output) into editable form;
* :meth:`ProgramSketch.build` re-freezes through the ordinary
  :class:`~repro.ir.builder.ProgramBuilder`, re-running structural
  validation and re-assigning site identities;

— and round-trip through JSON (:meth:`to_json` / :meth:`from_json`), which
is how the regression corpus (:mod:`repro.fuzz.corpus`) persists shrunk
counterexamples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir.builder import ProgramBuilder
from ..ir.instructions import (
    Alloc,
    Cast,
    Catch,
    ConstString,
    Instruction,
    Load,
    Move,
    Return,
    SpecialCall,
    StaticCall,
    StaticLoad,
    StaticStore,
    Store,
    Throw,
    VirtualCall,
)
from ..ir.program import Program
from ..ir.types import JAVA_STRING, OBJECT

__all__ = [
    "ClassSketch",
    "MethodSketch",
    "ProgramSketch",
    "instruction_from_json",
    "instruction_to_json",
    "parse_method_id",
]

#: Classes provided implicitly by every Program; never (re)declared.
_BUILTIN_CLASSES = (OBJECT, JAVA_STRING)


@dataclass
class ClassSketch:
    """Editable mirror of one class declaration."""

    name: str
    superclass: Optional[str] = OBJECT
    interfaces: Tuple[str, ...] = ()
    fields: List[str] = field(default_factory=list)
    static_fields: List[str] = field(default_factory=list)
    is_interface: bool = False
    is_abstract: bool = False

    @property
    def concrete(self) -> bool:
        return not (self.is_interface or self.is_abstract)

    def clone(self) -> "ClassSketch":
        return ClassSketch(
            name=self.name,
            superclass=self.superclass,
            interfaces=self.interfaces,
            fields=list(self.fields),
            static_fields=list(self.static_fields),
            is_interface=self.is_interface,
            is_abstract=self.is_abstract,
        )


def parse_method_id(method_id: str) -> Optional[Tuple[str, str, int]]:
    """``(class name, method name, arity)`` of a ``Class.name/arity``
    method id, or ``None`` if no :attr:`MethodSketch.id` is spelled so.
    The class name may be dotted; the method name holds no dot."""
    head, _slash, digits = method_id.rpartition("/")
    class_name, _dot, name = head.rpartition(".")
    if not (class_name and name and digits.isdecimal()):
        return None
    arity = int(digits)
    return (class_name, name, arity) if str(arity) == digits else None


@dataclass
class MethodSketch:
    """Editable mirror of one method body."""

    class_name: str
    name: str
    params: Tuple[str, ...] = ()
    is_static: bool = False
    instructions: List[Instruction] = field(default_factory=list)

    @property
    def id(self) -> str:
        return f"{self.class_name}.{self.name}/{len(self.params)}"

    def local_vars(self) -> List[str]:
        """Params, ``this``, and every var mentioned, in stable order."""
        seen: Dict[str, None] = {}
        for p in self.params:
            seen.setdefault(p)
        if not self.is_static:
            seen.setdefault("this")
        for instr in self.instructions:
            for v in instr.defined_vars():
                seen.setdefault(v)
            for v in instr.used_vars():
                seen.setdefault(v)
        return list(seen)

    def clone(self) -> "MethodSketch":
        # Instructions are immutable dataclasses; sharing them is safe.
        return MethodSketch(
            class_name=self.class_name,
            name=self.name,
            params=self.params,
            is_static=self.is_static,
            instructions=list(self.instructions),
        )


class ProgramSketch:
    """A whole program in editable form; see the module docstring."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassSketch] = {}
        self.methods: List[MethodSketch] = []
        self.entry_points: List[str] = []

    # ------------------------------------------------------------------
    # Conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_program(cls, program: Program) -> "ProgramSketch":
        sketch = cls()
        for name, cd in program.classes.items():
            if name in _BUILTIN_CLASSES:
                continue
            ct = cd.type
            sketch.classes[name] = ClassSketch(
                name=name,
                superclass=ct.superclass,
                interfaces=tuple(ct.interfaces),
                fields=list(cd.fields),
                static_fields=list(cd.static_fields),
                is_interface=ct.is_interface,
                is_abstract=ct.is_abstract,
            )
        for name in sorted(program.classes):
            cd = program.classes[name]
            for sig in sorted(cd.methods):
                m = cd.methods[sig]
                sketch.methods.append(
                    MethodSketch(
                        class_name=m.class_name,
                        name=m.name,
                        params=tuple(m.params),
                        is_static=m.is_static,
                        instructions=list(m.instructions),
                    )
                )
        sketch.entry_points = list(program.entry_points)
        return sketch

    def build(self, validate: bool = True) -> Program:
        """Re-freeze into a Program (raises on structural invalidity)."""
        b = ProgramBuilder()
        for cs in self.classes.values():
            b.klass(
                cs.name,
                super_name=cs.superclass or OBJECT,
                interfaces=cs.interfaces,
                fields=cs.fields,
                static_fields=cs.static_fields,
                interface=cs.is_interface,
                abstract=cs.is_abstract,
            )
        for ms in self.methods:
            with b.method(
                ms.class_name, ms.name, ms.params, static=ms.is_static
            ) as mb:
                for instr in ms.instructions:
                    mb.emit(instr)
        for ep in self.entry_points:
            b.entry(ep)
        return b.build(validate=validate)

    def clone(self) -> "ProgramSketch":
        out = ProgramSketch()
        out.classes = {n: c.clone() for n, c in self.classes.items()}
        out.methods = [m.clone() for m in self.methods]
        out.entry_points = list(self.entry_points)
        return out

    # ------------------------------------------------------------------
    # Queries used by mutators and the shrinker
    # ------------------------------------------------------------------
    def count_instructions(self) -> int:
        return sum(len(m.instructions) for m in self.methods)

    def concrete_classes(self) -> List[str]:
        return [n for n, c in self.classes.items() if c.concrete]

    def method_by_id(self, method_id: str) -> Optional[MethodSketch]:
        """The method whose :attr:`MethodSketch.id` is ``method_id``, or
        ``None`` (also for a malformed id).  Compares the id's parts, so
        no method's id is formatted."""
        key = parse_method_id(method_id)
        if key is None:
            return None
        class_name, name, arity = key
        for m in self.methods:
            if (
                m.name == name
                and m.class_name == class_name
                and len(m.params) == arity
            ):
                return m
        return None

    # ------------------------------------------------------------------
    # JSON round-trip
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "classes": [
                {
                    "name": c.name,
                    "superclass": c.superclass,
                    "interfaces": list(c.interfaces),
                    "fields": list(c.fields),
                    "static_fields": list(c.static_fields),
                    "is_interface": c.is_interface,
                    "is_abstract": c.is_abstract,
                }
                for c in self.classes.values()
            ],
            "methods": [
                {
                    "class_name": m.class_name,
                    "name": m.name,
                    "params": list(m.params),
                    "is_static": m.is_static,
                    "instructions": [
                        instruction_to_json(i) for i in m.instructions
                    ],
                }
                for m in self.methods
            ],
            "entry_points": list(self.entry_points),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "ProgramSketch":
        sketch = cls()
        for c in data["classes"]:  # type: ignore[index]
            sketch.classes[c["name"]] = ClassSketch(
                name=c["name"],
                superclass=c.get("superclass", OBJECT),
                interfaces=tuple(c.get("interfaces", ())),
                fields=list(c.get("fields", ())),
                static_fields=list(c.get("static_fields", ())),
                is_interface=bool(c.get("is_interface", False)),
                is_abstract=bool(c.get("is_abstract", False)),
            )
        for m in data["methods"]:  # type: ignore[index]
            sketch.methods.append(
                MethodSketch(
                    class_name=m["class_name"],
                    name=m["name"],
                    params=tuple(m.get("params", ())),
                    is_static=bool(m.get("is_static", False)),
                    instructions=[
                        instruction_from_json(i)
                        for i in m.get("instructions", ())
                    ],
                )
            )
        sketch.entry_points = list(data.get("entry_points", ()))
        return sketch


# ----------------------------------------------------------------------
# Instruction (de)serialization
# ----------------------------------------------------------------------

def instruction_to_json(instr: Instruction) -> Dict[str, object]:
    """One instruction as a JSON-safe dict keyed by an ``op`` tag."""
    if isinstance(instr, Alloc):
        return {"op": "alloc", "target": instr.target, "class": instr.class_name}
    if isinstance(instr, ConstString):
        return {"op": "conststr", "target": instr.target, "value": instr.value}
    if isinstance(instr, Move):
        return {"op": "move", "target": instr.target, "source": instr.source}
    if isinstance(instr, Load):
        return {
            "op": "load",
            "target": instr.target,
            "base": instr.base,
            "field": instr.field_name,
        }
    if isinstance(instr, Store):
        return {
            "op": "store",
            "base": instr.base,
            "field": instr.field_name,
            "source": instr.source,
        }
    if isinstance(instr, StaticLoad):
        return {
            "op": "staticload",
            "target": instr.target,
            "class": instr.class_name,
            "field": instr.field_name,
        }
    if isinstance(instr, StaticStore):
        return {
            "op": "staticstore",
            "class": instr.class_name,
            "field": instr.field_name,
            "source": instr.source,
        }
    if isinstance(instr, Cast):
        return {
            "op": "cast",
            "target": instr.target,
            "source": instr.source,
            "type": instr.type_name,
        }
    if isinstance(instr, VirtualCall):
        return {
            "op": "vcall",
            "target": instr.target,
            "base": instr.base,
            "sig": instr.sig,
            "args": list(instr.args),
        }
    if isinstance(instr, StaticCall):
        return {
            "op": "scall",
            "target": instr.target,
            "class": instr.class_name,
            "sig": instr.sig,
            "args": list(instr.args),
        }
    if isinstance(instr, SpecialCall):
        return {
            "op": "specialcall",
            "target": instr.target,
            "base": instr.base,
            "class": instr.class_name,
            "sig": instr.sig,
            "args": list(instr.args),
        }
    if isinstance(instr, Return):
        return {"op": "return", "var": instr.var}
    if isinstance(instr, Throw):
        return {"op": "throw", "var": instr.var}
    if isinstance(instr, Catch):
        return {"op": "catch", "target": instr.target, "type": instr.type_name}
    raise TypeError(f"unserializable instruction: {instr!r}")


def instruction_from_json(data: Dict[str, object]) -> Instruction:
    """Inverse of :func:`instruction_to_json` (raises ValueError on junk)."""
    op = data.get("op")
    try:
        if op == "alloc":
            return Alloc(data["target"], data["class"])
        if op == "conststr":
            return ConstString(data["target"], data["value"])
        if op == "move":
            return Move(data["target"], data["source"])
        if op == "load":
            return Load(data["target"], data["base"], data["field"])
        if op == "store":
            return Store(data["base"], data["field"], data["source"])
        if op == "staticload":
            return StaticLoad(data["target"], data["class"], data["field"])
        if op == "staticstore":
            return StaticStore(data["class"], data["field"], data["source"])
        if op == "cast":
            return Cast(data["target"], data["source"], data["type"])
        if op == "vcall":
            return VirtualCall(
                target=data.get("target"),
                args=tuple(data.get("args", ())),
                base=data["base"],
                sig=data["sig"],
            )
        if op == "scall":
            return StaticCall(
                target=data.get("target"),
                args=tuple(data.get("args", ())),
                class_name=data["class"],
                sig=data["sig"],
            )
        if op == "specialcall":
            return SpecialCall(
                target=data.get("target"),
                args=tuple(data.get("args", ())),
                base=data["base"],
                class_name=data["class"],
                sig=data["sig"],
            )
        if op == "return":
            return Return(data.get("var"))
        if op == "throw":
            return Throw(data["var"])
        if op == "catch":
            return Catch(data["target"], data["type"])
    except KeyError as exc:
        raise ValueError(f"instruction {op!r} missing key {exc}") from None
    raise ValueError(f"unknown instruction op {op!r}")
