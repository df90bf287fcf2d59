"""Typed program edits over :class:`~repro.fuzz.sketch.ProgramSketch`.

An :class:`Edit` is one structural change to a program sketch — add or
remove a class, method, instruction, field, or entry point — exactly the
vocabulary the fuzzer's mutators already exercise, but *reversible*:
``edit.apply(sketch)`` mutates the sketch in place and returns the
inverse edit, so any applied :class:`EditScript` can be undone by
applying the script it returned.  This is what lets an editing session
speculate ("would this edit blow the budget?") and what the
digest-coherence property tests lean on: apply-then-revert must restore
the exact :meth:`~repro.facts.encoder.FactBase.digest`.

Edits serialize to JSON (``{"op": ..., ...}`` dicts, instructions via
:func:`~repro.fuzz.sketch.instruction_to_json`) — the wire format of the
service's ``POST /sessions/{id}/edits`` endpoint.

A structurally impossible edit (unknown method, index out of range,
duplicate class) raises :class:`EditError` *before* mutating anything, so
a failed script application never leaves the sketch half-edited beyond
the edits that already succeeded (and those have inverses).

The inverse script that :meth:`EditScript.apply` returns carries a
:class:`Footprint`: the method bodies, method declarations, classes and
entry points the application touched — also exactly what applying the
inverse touches.  An :class:`~repro.incremental.session.IncrementalSession`
re-encodes only the methods a footprint names.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..ir.instructions import Alloc, Instruction, Move, Return, StaticCall
from ..ir.program import signature
from ..ir.types import OBJECT
from ..fuzz.sketch import (
    ClassSketch,
    MethodSketch,
    ProgramSketch,
    instruction_from_json,
    instruction_to_json,
)

__all__ = [
    "AddClass",
    "AddEntryPoint",
    "AddField",
    "AddMethod",
    "DeleteInstruction",
    "Edit",
    "EditError",
    "EditScript",
    "Footprint",
    "InsertInstruction",
    "RemoveEntryPoint",
    "RemoveField",
    "RemoveMethod",
    "edit_from_json",
    "random_edit_script",
]


class EditError(ValueError):
    """The edit cannot be applied to this sketch (nothing was mutated)."""


@dataclass
class Footprint:
    """What one application of an edit script touched.

    ``bodies`` are the ids of methods whose instructions changed;
    ``methods`` maps each added or removed method's id to its
    ``(signature, is_static)``.  ``classes`` is set when a class was
    added or removed, ``entry_points`` when the entry points changed.
    Field declarations encode no facts and leave no trace here.
    """

    bodies: Set[str] = field(default_factory=set)
    methods: Dict[str, Tuple[str, bool]] = field(default_factory=dict)
    classes: bool = False
    entry_points: bool = False

    def update(self, other: "Footprint") -> None:
        self.bodies |= other.bodies
        self.methods.update(other.methods)
        self.classes |= other.classes
        self.entry_points |= other.entry_points


class Edit:
    """One reversible structural change; subclasses define ``op``."""

    op: str = "?"

    def apply(self, sketch: ProgramSketch) -> "Edit":
        """Mutate ``sketch`` in place; return the inverse edit."""
        raise NotImplementedError

    def touch(self, footprint: Footprint, inverse: "Edit") -> None:
        """Record in ``footprint`` what applying this edit touched;
        ``inverse`` is what that application returned."""
        raise NotImplementedError

    def to_json(self) -> Dict[str, object]:
        raise NotImplementedError

    def describe(self) -> str:
        return self.op

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Edit {self.describe()}>"


def _require_method(sketch: ProgramSketch, method_id: str) -> MethodSketch:
    method = sketch.method_by_id(method_id)
    if method is None:
        raise EditError(f"no such method: {method_id}")
    return method


class AddClass(Edit):
    """Declare a new class (empty, no methods)."""

    op = "add-class"

    def __init__(
        self,
        name: str,
        superclass: str = OBJECT,
        interfaces: Tuple[str, ...] = (),
        fields: Iterable[str] = (),
        static_fields: Iterable[str] = (),
        is_interface: bool = False,
        is_abstract: bool = False,
    ) -> None:
        self.cls = ClassSketch(
            name=name,
            superclass=superclass,
            interfaces=tuple(interfaces),
            fields=list(fields),
            static_fields=list(static_fields),
            is_interface=is_interface,
            is_abstract=is_abstract,
        )

    def apply(self, sketch: ProgramSketch) -> Edit:
        if self.cls.name in sketch.classes:
            raise EditError(f"class already declared: {self.cls.name}")
        sketch.classes[self.cls.name] = self.cls.clone()
        return RemoveClass(self.cls.name)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.classes = True

    def to_json(self) -> Dict[str, object]:
        c = self.cls
        return {
            "op": self.op,
            "name": c.name,
            "superclass": c.superclass,
            "interfaces": list(c.interfaces),
            "fields": list(c.fields),
            "static_fields": list(c.static_fields),
            "is_interface": c.is_interface,
            "is_abstract": c.is_abstract,
        }

    def describe(self) -> str:
        return f"add-class {self.cls.name}"


class RemoveClass(Edit):
    """Remove a class declaration (its methods must be removed first)."""

    op = "remove-class"

    def __init__(self, name: str) -> None:
        self.name = name

    def apply(self, sketch: ProgramSketch) -> Edit:
        cls = sketch.classes.get(self.name)
        if cls is None:
            raise EditError(f"no such class: {self.name}")
        owners = [m.id for m in sketch.methods if m.class_name == self.name]
        if owners:
            raise EditError(
                f"class {self.name} still declares methods: {owners}"
            )
        del sketch.classes[self.name]
        inverse = AddClass(self.name)
        inverse.cls = cls
        return inverse

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.classes = True

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "name": self.name}

    def describe(self) -> str:
        return f"remove-class {self.name}"


class AddMethod(Edit):
    """Add a whole method body to an existing class."""

    op = "add-method"

    def __init__(
        self,
        class_name: str,
        name: str,
        params: Tuple[str, ...] = (),
        is_static: bool = False,
        instructions: Iterable[Instruction] = (),
    ) -> None:
        self.method = MethodSketch(
            class_name=class_name,
            name=name,
            params=tuple(params),
            is_static=is_static,
            instructions=list(instructions),
        )

    def apply(self, sketch: ProgramSketch) -> Edit:
        if self.method.class_name not in sketch.classes:
            raise EditError(f"no such class: {self.method.class_name}")
        if sketch.method_by_id(self.method.id) is not None:
            raise EditError(f"method already declared: {self.method.id}")
        sketch.methods.append(self.method.clone())
        return RemoveMethod(self.method.id)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        m = self.method
        footprint.methods[m.id] = (signature(m.name, len(m.params)), m.is_static)

    def to_json(self) -> Dict[str, object]:
        m = self.method
        return {
            "op": self.op,
            "class_name": m.class_name,
            "name": m.name,
            "params": list(m.params),
            "is_static": m.is_static,
            "instructions": [instruction_to_json(i) for i in m.instructions],
        }

    def describe(self) -> str:
        return f"add-method {self.method.id}"


class RemoveMethod(Edit):
    """Remove a method body (and its entry-point registration, if any)."""

    op = "remove-method"

    def __init__(self, method_id: str) -> None:
        self.method_id = method_id

    def apply(self, sketch: ProgramSketch) -> Edit:
        method = _require_method(sketch, self.method_id)
        was_entry = self.method_id in sketch.entry_points
        sketch.methods.remove(method)
        if was_entry:
            sketch.entry_points.remove(self.method_id)
        inverse = AddMethod(
            method.class_name,
            method.name,
            method.params,
            method.is_static,
            method.instructions,
        )
        if not was_entry:
            return inverse
        script_inverse = EditScript([inverse, AddEntryPoint(self.method_id)])
        return _CompoundEdit(script_inverse)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        # The inverse re-adds the removed method (and re-registers its
        # entry point): it touches what the removal touched.
        readd = inverse.script if isinstance(inverse, _CompoundEdit) else (inverse,)
        for edit in readd:
            edit.touch(footprint, self)

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "method_id": self.method_id}

    def describe(self) -> str:
        return f"remove-method {self.method_id}"


class _CompoundEdit(Edit):
    """Several edits behaving as one (inverse of entry-point removal)."""

    op = "compound"

    def __init__(self, script: "EditScript") -> None:
        self.script = script

    def apply(self, sketch: ProgramSketch) -> Edit:
        return _CompoundEdit(self.script.apply(sketch))

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        assert isinstance(inverse, _CompoundEdit)
        footprint.update(inverse.script.footprint)

    def to_json(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "edits": [e.to_json() for e in self.script],
        }

    def describe(self) -> str:
        return "; ".join(e.describe() for e in self.script)


class InsertInstruction(Edit):
    """Insert one instruction at ``index`` (``None`` = append)."""

    op = "insert-instruction"

    def __init__(
        self,
        method_id: str,
        instruction: Instruction,
        index: Optional[int] = None,
    ) -> None:
        self.method_id = method_id
        self.instruction = instruction
        self.index = index

    def apply(self, sketch: ProgramSketch) -> Edit:
        method = _require_method(sketch, self.method_id)
        index = len(method.instructions) if self.index is None else self.index
        if not 0 <= index <= len(method.instructions):
            raise EditError(
                f"insert index {index} out of range for {self.method_id} "
                f"({len(method.instructions)} instructions)"
            )
        method.instructions.insert(index, self.instruction)
        return DeleteInstruction(self.method_id, index)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.bodies.add(self.method_id)

    def to_json(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "method_id": self.method_id,
            "index": self.index,
            "instruction": instruction_to_json(self.instruction),
        }

    def describe(self) -> str:
        where = "end" if self.index is None else str(self.index)
        return (
            f"insert-instruction {self.method_id}@{where} "
            f"{type(self.instruction).__name__}"
        )


class DeleteInstruction(Edit):
    """Delete the instruction at ``index``."""

    op = "delete-instruction"

    def __init__(self, method_id: str, index: int) -> None:
        self.method_id = method_id
        self.index = index

    def apply(self, sketch: ProgramSketch) -> Edit:
        method = _require_method(sketch, self.method_id)
        if not 0 <= self.index < len(method.instructions):
            raise EditError(
                f"delete index {self.index} out of range for "
                f"{self.method_id} ({len(method.instructions)} instructions)"
            )
        instruction = method.instructions.pop(self.index)
        return InsertInstruction(self.method_id, instruction, self.index)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.bodies.add(self.method_id)

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "method_id": self.method_id, "index": self.index}

    def describe(self) -> str:
        return f"delete-instruction {self.method_id}@{self.index}"


class AddEntryPoint(Edit):
    op = "add-entry-point"

    def __init__(self, method_id: str) -> None:
        self.method_id = method_id

    def apply(self, sketch: ProgramSketch) -> Edit:
        _require_method(sketch, self.method_id)
        if self.method_id in sketch.entry_points:
            raise EditError(f"already an entry point: {self.method_id}")
        sketch.entry_points.append(self.method_id)
        return RemoveEntryPoint(self.method_id)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.entry_points = True

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "method_id": self.method_id}

    def describe(self) -> str:
        return f"add-entry-point {self.method_id}"


class RemoveEntryPoint(Edit):
    op = "remove-entry-point"

    def __init__(self, method_id: str) -> None:
        self.method_id = method_id

    def apply(self, sketch: ProgramSketch) -> Edit:
        if self.method_id not in sketch.entry_points:
            raise EditError(f"not an entry point: {self.method_id}")
        if len(sketch.entry_points) == 1:
            raise EditError("a program needs at least one entry point")
        sketch.entry_points.remove(self.method_id)
        return AddEntryPoint(self.method_id)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        footprint.entry_points = True

    def to_json(self) -> Dict[str, object]:
        return {"op": self.op, "method_id": self.method_id}

    def describe(self) -> str:
        return f"remove-entry-point {self.method_id}"


class AddField(Edit):
    """Declare an instance field on an existing class."""

    op = "add-field"

    def __init__(self, class_name: str, field_name: str) -> None:
        self.class_name = class_name
        self.field_name = field_name

    def apply(self, sketch: ProgramSketch) -> Edit:
        cls = sketch.classes.get(self.class_name)
        if cls is None:
            raise EditError(f"no such class: {self.class_name}")
        if self.field_name in cls.fields:
            raise EditError(
                f"field already declared: {self.class_name}.{self.field_name}"
            )
        cls.fields.append(self.field_name)
        return RemoveField(self.class_name, self.field_name)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        pass  # a field declaration encodes no rows

    def to_json(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "class_name": self.class_name,
            "field_name": self.field_name,
        }

    def describe(self) -> str:
        return f"add-field {self.class_name}.{self.field_name}"


class RemoveField(Edit):
    op = "remove-field"

    def __init__(self, class_name: str, field_name: str) -> None:
        self.class_name = class_name
        self.field_name = field_name

    def apply(self, sketch: ProgramSketch) -> Edit:
        cls = sketch.classes.get(self.class_name)
        if cls is None:
            raise EditError(f"no such class: {self.class_name}")
        if self.field_name not in cls.fields:
            raise EditError(
                f"no such field: {self.class_name}.{self.field_name}"
            )
        cls.fields.remove(self.field_name)
        return AddField(self.class_name, self.field_name)

    def touch(self, footprint: Footprint, inverse: Edit) -> None:
        pass  # a field declaration encodes no rows

    def to_json(self) -> Dict[str, object]:
        return {
            "op": self.op,
            "class_name": self.class_name,
            "field_name": self.field_name,
        }

    def describe(self) -> str:
        return f"remove-field {self.class_name}.{self.field_name}"


class EditScript:
    """An ordered sequence of edits applied as one unit.

    ``footprint`` is empty on a script built by hand; on the inverse
    script :meth:`apply` returns it is what that application touched.
    """

    def __init__(self, edits: Iterable[Edit] = ()) -> None:
        self.edits: List[Edit] = list(edits)
        self.footprint = Footprint()

    def __len__(self) -> int:
        return len(self.edits)

    def __iter__(self) -> Iterator[Edit]:
        return iter(self.edits)

    def apply(self, sketch: ProgramSketch) -> "EditScript":
        """Apply every edit in order; return the inverse script, whose
        ``footprint`` records what the application touched.

        On :class:`EditError` the edits applied so far are rolled back
        before the error propagates, so a failed script leaves the sketch
        exactly as it found it.
        """
        inverses: List[Edit] = []
        footprint = Footprint()
        try:
            for edit in self.edits:
                inverse = edit.apply(sketch)
                inverses.append(inverse)
                edit.touch(footprint, inverse)
        except EditError:
            for inverse in reversed(inverses):
                inverse.apply(sketch)
            raise
        script = EditScript(list(reversed(inverses)))
        script.footprint = footprint
        return script

    def describe(self) -> str:
        return "; ".join(e.describe() for e in self.edits) or "(empty)"

    def to_json(self) -> List[Dict[str, object]]:
        return [e.to_json() for e in self.edits]

    @classmethod
    def from_json(cls, data: Iterable[Dict[str, object]]) -> "EditScript":
        return cls([edit_from_json(e) for e in data])


_EDIT_OPS = {
    e.op: e
    for e in (
        AddClass,
        RemoveClass,
        AddMethod,
        RemoveMethod,
        InsertInstruction,
        DeleteInstruction,
        AddEntryPoint,
        RemoveEntryPoint,
        AddField,
        RemoveField,
    )
}


def edit_from_json(data: Dict[str, object]) -> Edit:
    """Inverse of :meth:`Edit.to_json` (raises EditError on junk)."""
    if not isinstance(data, dict):
        raise EditError("edit must be a JSON object")
    op = data.get("op")
    index = data.get("index")
    if index is not None and type(index) is not int:  # bools are ints too
        raise EditError(f"edit {op!r} index must be an integer")
    if op == "compound":
        return _CompoundEdit(EditScript.from_json(data.get("edits", ())))
    try:
        if op == AddClass.op:
            return AddClass(
                data["name"],
                superclass=data.get("superclass") or OBJECT,
                interfaces=tuple(data.get("interfaces", ())),
                fields=data.get("fields", ()),
                static_fields=data.get("static_fields", ()),
                is_interface=bool(data.get("is_interface", False)),
                is_abstract=bool(data.get("is_abstract", False)),
            )
        if op == RemoveClass.op:
            return RemoveClass(data["name"])
        if op == AddMethod.op:
            return AddMethod(
                data["class_name"],
                data["name"],
                params=tuple(data.get("params", ())),
                is_static=bool(data.get("is_static", False)),
                instructions=[
                    instruction_from_json(i)
                    for i in data.get("instructions", ())
                ],
            )
        if op == RemoveMethod.op:
            return RemoveMethod(data["method_id"])
        if op == InsertInstruction.op:
            return InsertInstruction(
                data["method_id"],
                instruction_from_json(data["instruction"]),
                index=data.get("index"),
            )
        if op == DeleteInstruction.op:
            return DeleteInstruction(data["method_id"], data["index"])
        if op == AddEntryPoint.op:
            return AddEntryPoint(data["method_id"])
        if op == RemoveEntryPoint.op:
            return RemoveEntryPoint(data["method_id"])
        if op == AddField.op:
            return AddField(data["class_name"], data["field_name"])
        if op == RemoveField.op:
            return RemoveField(data["class_name"], data["field_name"])
    except KeyError as exc:
        raise EditError(f"edit {op!r} missing key {exc}") from None
    except ValueError as exc:
        raise EditError(str(exc)) from None
    raise EditError(f"unknown edit op {op!r}")


# ----------------------------------------------------------------------
# Seeded edit generation (fuzz oracle, bench, CI replay)
# ----------------------------------------------------------------------

def _fresh(prefix: str, rng: random.Random) -> str:
    return f"{prefix}{rng.randrange(1 << 30):x}"


def random_edit_script(
    sketch: ProgramSketch,
    rng: random.Random,
    edits: int = 2,
    allow_removals: bool = True,
    kinds: Optional[Sequence[str]] = None,
) -> EditScript:
    """A seeded, mostly-valid script of material edits against ``sketch``.

    "Material" means each edit changes the encoded fact base (pure
    declarations like :class:`AddField` are excluded).  With
    ``allow_removals=False`` only fact-*adding* edits are generated — the
    shape the monotonic fast path accepts.  ``kinds`` restricts the pool
    to a subset of ``alloc``/``move``/``new-call``/``new-entry``/
    ``delete`` (the bench uses this to measure one edit kind per cell).
    The script is generated against the sketch's current state but NOT
    applied to it.
    """
    preview = sketch.clone()
    script: List[Edit] = []
    classes = preview.concrete_classes()
    if not preview.methods or not classes:
        return EditScript()
    if kinds is None:
        pool = ["alloc", "move", "new-call", "new-entry"]
        if allow_removals:
            pool.append("delete")
    else:
        pool = list(kinds)
    for _ in range(max(1, edits)):
        kind = rng.choice(pool)
        target = rng.choice(preview.methods)
        if kind == "alloc":
            edit: Edit = InsertInstruction(
                target.id,
                Alloc(_fresh("iv", rng), rng.choice(classes)),
            )
        elif kind == "move":
            locals_ = target.local_vars()
            if not locals_:
                edit = InsertInstruction(
                    target.id,
                    Alloc(_fresh("iv", rng), rng.choice(classes)),
                )
            else:
                edit = InsertInstruction(
                    target.id,
                    Move(_fresh("iv", rng), rng.choice(locals_)),
                )
        elif kind in ("new-call", "new-entry"):
            owner = rng.choice(classes)
            name = _fresh("zinc", rng)
            ret = _fresh("iv", rng)
            body = [
                Alloc(ret, rng.choice(classes)),
                Return(ret),
            ]
            add = AddMethod(owner, name, (), is_static=True, instructions=body)
            script.append(add)
            add.apply(preview)
            if kind == "new-entry":
                edit = AddEntryPoint(add.method.id)
            else:
                edit = InsertInstruction(
                    target.id,
                    StaticCall(
                        target=_fresh("iv", rng),
                        args=(),
                        class_name=owner,
                        sig=f"{name}/0",
                    ),
                )
        else:  # delete the last instruction of some non-empty method
            candidates = [m for m in preview.methods if m.instructions]
            if not candidates:
                continue
            victim = rng.choice(candidates)
            edit = DeleteInstruction(victim.id, len(victim.instructions) - 1)
        script.append(edit)
        edit.apply(preview)
    return EditScript(script)
