"""The packed program: one run's compile of a program, straight from the IR.

A cold run (one plain analysis, or an introspective run's pass 1, cost
metrics, heuristic, pass 2 and precision clients) reads one unchanging
program.  :class:`PackedProgram` compiles it once for all of them:

* the **interners** (variables, heaps, methods, call sites, fields,
  signatures, types, static fields) that every solver of the run shares,
  so their solutions' ids mean the same thing;
* each method's **body** — the solver's interned instruction vectors,
  formals, returns and ``this`` — compiled from the IR the first time a
  solver reaches the method, then kept: the run's later solves read it
  as it is (a refined pass reaches no method the insensitive pass
  missed, so pass 2 compiles nothing);
* each allocated heap's **type and allocating class**;
* the **name-keyed reads** of the cold readers (``vars_of``, ``args_of``,
  ``is_vcall``, ``heap_type_of``, ``alloc_class_of``, ``allocs_in``,
  ``casts_in``), which :class:`~repro.facts.encoder.FactBase` offers too.

No string fact base is built: there are no rows to intern twice.  A
reader that names something the pack has not compiled yet (a pass 1
solved over another pack, say) gets its method compiled on demand, or,
for a call site or heap, the rest of the program compiled once.

A pack is state of one run (or of the cells of one figure benchmark) and
is passed as an argument; nothing memoizes it on the program.  A warm
session's pack moves with its program (:meth:`PackedProgram.recompile`).
The row compiler of :class:`~repro.analysis.solver.PointsToSolver` stays
for inputs that arrive as rows: sliced query solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..facts.encoder import FactBase
from ..ir.instructions import (
    Alloc,
    Cast,
    Catch,
    ConstString,
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
from ..ir.types import JAVA_STRING
from ..utils import Interner

__all__ = ["PackedProgram", "ProgramFacts"]

#: Sentinel for "no target variable" / "dispatch failed" / static ``this``.
_NONE = -1


@dataclass
class _MethodBody:
    """A method compiled to interned instruction vectors.

    An instruction field with no entries is the shared empty tuple, and
    one with entries a list of its own: most fields of most bodies are
    empty, and an empty list per field would be a collector-tracked
    container each.  A body grows or shrinks by rebinding a field (see
    :meth:`PointsToSolver.extend` and :meth:`PointsToSolver._tear_down`),
    never in place.
    """

    allocs: Sequence[Tuple[int, int]]  # (var, heap)
    moves: Sequence[Tuple[int, int]]  # (from, to)
    casts: Sequence[Tuple[int, int, int]]  # (from, to, type)
    loads: Sequence[Tuple[int, int, int]]  # (to, base, fld)
    stores: Sequence[Tuple[int, int, int]]  # (base, fld, from)
    vcalls: Sequence[Tuple[int, int, int, int, Tuple[int, ...]]]
    # (base, sig, invo, lhs, args)
    specialcalls: Sequence[Tuple[int, int, int, int, Tuple[int, ...]]]
    # (base, meth, invo, lhs, args)
    scalls: Sequence[Tuple[int, int, int, Tuple[int, ...]]]
    # (meth, invo, lhs, args)
    staticloads: Sequence[Tuple[int, int]]  # (to, sfld)
    staticstores: Sequence[Tuple[int, int]]  # (sfld, from)
    throws: Sequence[int]  # thrown vars
    catches: Sequence[Tuple[int, int]]  # (type, var)
    formals: Tuple[int, ...]
    returns: Tuple[int, ...]
    this: int  # _NONE for static methods


#: The instruction lists of a :class:`_MethodBody`, in field order.
_INSTR_FIELDS = (
    "allocs", "moves", "casts", "loads", "stores", "vcalls", "specialcalls",
    "scalls", "staticloads", "staticstores", "throws", "catches",
)

#: The instruction fields of a body without instructions.
_NO_INSTRS: Tuple[Tuple[()], ...] = ((),) * len(_INSTR_FIELDS)

#: Call instruction lists of a :class:`_MethodBody`, with the position of
#: the call-site id in their entries.
_CALL_FIELDS = (("vcalls", 2), ("specialcalls", 2), ("scalls", 1))


def _call_invos(mb: _MethodBody) -> Iterator[int]:
    """The call-site ids of a body's call instructions."""
    for name, at in _CALL_FIELDS:
        for call in getattr(mb, name):
            yield call[at]


class _Locals(dict):
    """One method's variables: local name -> interned id, interning the
    qualified name on first use (a miss is the only Python-level step)."""

    __slots__ = ("prefix", "intern", "qualified")

    def __init__(self, prefix: str, intern: Callable[[str], int]) -> None:
        super().__init__()
        self.prefix = prefix
        self.intern = intern
        self.qualified: Dict[str, str] = {}  # local name -> qualified name

    def __missing__(self, name: str) -> int:
        qualified = self.qualified[name] = self.prefix + name
        i = self[name] = self.intern(qualified)
        return i


class PackedProgram:
    """One program's interners, compiled method bodies and cold reads."""

    def __init__(self, program: Program) -> None:
        if not program.frozen:
            raise ValueError("program must be frozen before packing")
        self.program = program
        self.vars: Interner[str] = Interner()
        self.heaps: Interner[str] = Interner()
        self.meths: Interner[str] = Interner()
        self.invos: Interner[str] = Interner()
        self.flds: Interner[str] = Interner()
        self.sigs: Interner[str] = Interner()
        self.types: Interner[str] = Interner()
        self.static_flds: Interner[Tuple[str, str]] = Interner()
        #: heap id -> type id, for every heap a compiled body allocates.
        self.heap_types: Dict[int, int] = {}
        self._alloc_class: Dict[str, str] = {}  # heap -> allocating class
        self._bodies: Dict[int, _MethodBody] = {}
        self._locals: Dict[int, Tuple[str, ...]] = {}  # method -> its vars
        self._invo_args: Dict[str, Tuple[str, ...]] = {}  # call -> its args
        self._vcalls: Set[str] = set()
        self._whole = False

    # ------------------------------------------------------------------
    # Bodies (the solver's ``_body`` hook)
    # ------------------------------------------------------------------
    def body(self, meth: int) -> _MethodBody:
        """Method ``meth``'s body, compiled from the IR on first request."""
        mb = self._bodies.get(meth)
        if mb is None:
            mb = self._compile(meth)
        return mb

    def _compile(self, meth: int) -> _MethodBody:
        mb = self._bodies[meth] = self._build(meth)
        return mb

    def recompile(
        self, program: Program, methods: Iterable[str]
    ) -> Dict[int, _MethodBody]:
        """Move the pack to ``program``, an edit of its program in which
        only ``methods`` (dirty methods ``program`` has) may have changed,
        and compile again, into the same interners, those it has compiled.

        The new bodies are returned by method id, *detached*: the pack
        keeps each old body, which its solver shares and turns into the
        new one (:meth:`~repro.analysis.solver.PointsToSolver.retract`,
        :meth:`~repro.analysis.solver.PointsToSolver.extend`).  A heap's
        type and class stay as first seen: an allocation site id names
        both (``<method id>/new <type>/<k>``), so a renumbered site is a
        new heap, never an old one retyped.  Any other method is compiled
        from ``program`` when first reached.
        """
        if not program.frozen:
            raise ValueError("program must be frozen before packing")
        self.program = program
        self._whole = False
        bodies: Dict[int, _MethodBody] = {}
        invo_name = self.invos.value
        for mid in methods:
            meth = self.meths.intern(mid)
            old = self._bodies.get(meth)
            if old is None:
                continue
            for invo in map(invo_name, _call_invos(old)):
                del self._invo_args[invo]
                self._vcalls.discard(invo)
            bodies[meth] = self._build(meth)
        return bodies

    def _build(self, meth: int) -> _MethodBody:
        """Compile method ``meth`` from the IR (not stored: see
        :meth:`_compile`)."""
        program = self.program
        method = program.method(self.meths.value(meth))
        fi = self.flds.intern
        ti = self.types.intern
        ii = self.invos.intern
        mi = self.meths.intern
        var = _Locals(method.id + "/", self.vars.intern)
        var_of = var.__getitem__
        qualified = var.qualified.__getitem__
        allocs: list = []
        moves: list = []
        casts: list = []
        loads: list = []
        stores: list = []
        vcalls: list = []
        specialcalls: list = []
        scalls: list = []
        staticloads: list = []
        staticstores: list = []
        throws: list = []
        catches: list = []
        returns: Dict[int, None] = {}
        formals = tuple(map(var_of, method.params))
        this = _NONE if method.is_static else var["this"]
        invo_args = self._invo_args
        alloc_idx = 0
        for instr in method.instructions:
            kind = type(instr)
            if kind is Move:
                moves.append((var[instr.source], var[instr.target]))
            elif kind is Load:
                loads.append(
                    (var[instr.target], var[instr.base], fi(instr.field_name))
                )
            elif kind is Store:
                stores.append(
                    (var[instr.base], fi(instr.field_name), var[instr.source])
                )
            elif kind is VirtualCall or kind is StaticCall or kind is SpecialCall:
                invo = ii(instr.invo)
                target = instr.target
                lhs = _NONE if target is None else var[target]
                args = tuple(map(var_of, instr.args))
                invo_args[instr.invo] = tuple(map(qualified, instr.args))
                if kind is VirtualCall:
                    self._vcalls.add(instr.invo)
                    vcalls.append(
                        (var[instr.base], self.sigs.intern(instr.sig), invo, lhs, args)
                    )
                else:
                    callee = program.lookup(instr.class_name, instr.sig)
                    assert callee is not None, "validated earlier"
                    if kind is StaticCall:
                        scalls.append((mi(callee.id), invo, lhs, args))
                    else:
                        specialcalls.append(
                            (var[instr.base], mi(callee.id), invo, lhs, args)
                        )
            elif kind is Alloc:
                heap = self._heap(
                    program.alloc_site(method, alloc_idx),
                    instr.class_name,
                    method.class_name,
                )
                alloc_idx += 1
                allocs.append((var[instr.target], heap))
            elif kind is ConstString:
                # Shared constants have no single allocating class; the
                # type-sensitivity element coarsens to the string class.
                heap = self._heap(instr.heap_id, JAVA_STRING, JAVA_STRING)
                allocs.append((var[instr.target], heap))
            elif kind is Cast:
                casts.append(
                    (var[instr.source], var[instr.target], ti(instr.type_name))
                )
            elif kind is StaticLoad:
                staticloads.append(
                    (
                        var[instr.target],
                        self.static_flds.intern((instr.class_name, instr.field_name)),
                    )
                )
            elif kind is StaticStore:
                staticstores.append(
                    (
                        self.static_flds.intern((instr.class_name, instr.field_name)),
                        var[instr.source],
                    )
                )
            elif kind is Return:
                if instr.var is not None:
                    returns[var[instr.var]] = None
            elif kind is Throw:
                throws.append(var[instr.var])
            elif kind is Catch:
                catches.append((ti(instr.type_name), var[instr.target]))
            else:
                raise TypeError(f"unpackable instruction: {instr!r}")
        mb = _MethodBody(
            allocs or (),
            moves or (),
            casts or (),
            loads or (),
            stores or (),
            vcalls or (),
            specialcalls or (),
            scalls or (),
            staticloads or (),
            staticstores or (),
            throws or (),
            catches or (),
            formals=formals,
            returns=tuple(returns),
            this=this,
        )
        self._locals[meth] = tuple(var.qualified.values())
        return mb

    def _heap(self, name: str, type_name: str, alloc_class: str) -> int:
        """Intern an allocated heap, with its type and class on first sight."""
        heap = self.heaps.intern(name)
        if heap not in self.heap_types:
            self.heap_types[heap] = self.types.intern(type_name)
            self._alloc_class[name] = alloc_class
        return heap

    def _body_of(self, meth: str) -> _MethodBody:
        return self.body(self.meths.intern(meth))

    def _compile_all(self) -> None:
        """Compile every method not compiled yet (a reader named a call
        site or heap whose method the pack has not reached)."""
        if not self._whole:
            for method in self.program.methods():
                self._body_of(method.id)
            self._whole = True

    # ------------------------------------------------------------------
    # Name-keyed reads (the cold readers; FactBase has the same ones)
    # ------------------------------------------------------------------
    def vars_of(self, meth: str) -> Tuple[str, ...]:
        """The local variables of method ``meth`` (formals and ``this``
        included), in no particular order."""
        meth_i = self.meths.intern(meth)
        names = self._locals.get(meth_i)
        if names is None:
            self.body(meth_i)
            names = self._locals[meth_i]
        return names

    def args_of(self, invo: str) -> Tuple[str, ...]:
        """Call site ``invo``'s actual arguments, by position."""
        args = self._invo_args.get(invo)
        if args is None:
            self._compile_all()
            args = self._invo_args.get(invo, ())
        return args

    def is_vcall(self, invo: str) -> bool:
        """Whether ``invo`` is a virtual call site."""
        if invo not in self._invo_args:
            self._compile_all()
        return invo in self._vcalls

    def heap_type_of(self, heap: str) -> str:
        """The type ``heap`` allocates."""
        if heap not in self._alloc_class:
            self._compile_all()
        return self.types.value(self.heap_types[self.heaps.get(heap)])

    def alloc_class_of(self, heap: str) -> str:
        """Type-sensitivity context element: the class allocating ``heap``."""
        cls = self._alloc_class.get(heap)
        if cls is None:
            self._compile_all()
            cls = self._alloc_class[heap]
        return cls

    def allocs_in(self, methods: Iterable[str]) -> Iterator[str]:
        """The heaps allocated in ``methods`` (a heap may repeat)."""
        heap_name = self.heaps.value
        for meth in methods:
            for _var, heap in self._body_of(meth).allocs:
                yield heap_name(heap)

    def casts_in(self, methods: Iterable[str]) -> Iterator[Tuple[str, str, str]]:
        """The casts of ``methods``, as ``(to, type, from)``."""
        var_name, type_name = self.vars.value, self.types.value
        for meth in methods:
            for frm, to, typ in self._body_of(meth).casts:
                yield var_name(to), type_name(typ), var_name(frm)


#: What the cold readers (metrics, heuristics, precision clients) accept:
#: a run's packed program, or a whole fact base.  Both answer the same
#: name-keyed reads with the same sets.
ProgramFacts = Union[FactBase, PackedProgram]
