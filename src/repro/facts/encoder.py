"""Encoding of IR programs into the model's input relations.

The :class:`FactBase` produced here is the bridge between the IR and the two
analysis engines:

* the Datalog model (:mod:`repro.analysis.datalog_model`) loads the tuples
  verbatim as its EDB;
* the worklist solver compiles them into interned arrays;
* the introspection metrics and the type-sensitive context policy use the
  auxiliary maps (``heap_type``, ``alloc_class``, actual-args index, …).

All entities are encoded as the human-readable string identities assigned by
:mod:`repro.ir.program` (qualified variables, allocation/invocation site ids,
method ids, signature tokens, type and field names).
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, field
from typing import (
    AbstractSet,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

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
from ..ir.program import Method, Program
from ..ir.types import JAVA_STRING
from ..obs import NULL_TRACER, Tracer

__all__ = [
    "FactBase",
    "FactIndex",
    "INSTRUCTION_RELATIONS",
    "METHOD_RELATIONS",
    "MethodRows",
    "assemble_facts",
    "encode_program",
    "method_rows_delta",
    "type_rows",
]

#: The per-method instruction relations.  A fact base derived with
#: :meth:`FactBase.with_instructions` may replace only these, which is what
#: lets it share the original's :class:`FactIndex`.
INSTRUCTION_RELATIONS = (
    "alloc",
    "move",
    "cast",
    "load",
    "store",
    "staticload",
    "staticstore",
    "vcall",
    "scall",
    "specialcall",
    "throwinstr",
    "catchclause",
)

#: The relations one method's encoding writes (:class:`MethodRows`); the
#: rest (SUBTYPE, LOOKUP, REACHABLEROOT) are whole-program.
METHOD_RELATIONS = INSTRUCTION_RELATIONS + (
    "formalarg",
    "actualarg",
    "formalreturn",
    "actualreturn",
    "thisvar",
    "heaptype",
    "allocclass",
    "varinmeth",
    "invoinmeth",
)

#: Where a shared string constant's rows live: once per program, at the
#: constant's first use in method order (see ``_encode_method``).
_STRING_RELATIONS = ("heaptype", "allocclass")
_EMPTY: FrozenSet[str] = frozenset()

#: Every relation of a fact base, in :meth:`FactBase.as_relation_dict`
#: order.
_RELATIONS = (
    "alloc",
    "move",
    "load",
    "store",
    "vcall",
    "scall",
    "specialcall",
    "cast",
    "staticload",
    "staticstore",
    "throwinstr",
    "catchclause",
    "formalarg",
    "actualarg",
    "formalreturn",
    "actualreturn",
    "thisvar",
    "heaptype",
    "lookup",
    "subtype",
    "allocclass",
    "varinmeth",
    "invoinmeth",
    "reachableroot",
)

#: The relations :func:`encode_program` builds; SUBTYPE and LOOKUP are
#: built the first time they are read (:class:`_TypeRows`).
_ENCODED_RELATIONS = tuple(
    name for name in _RELATIONS if name not in ("lookup", "subtype")
)


@dataclass(frozen=True)
class FactIndex:
    """Whole-program name-and-type lookups over one fact base.

    Built once per :class:`FactBase` (:meth:`FactBase.index`) and shared by
    reference with every fact base derived from it, so a solver over a
    slice never re-walks the program to find a method's formals or a
    variable's method.  ``heap_type`` is the fact base's own map, not a
    copy.
    """

    var_meth: Dict[str, str]  # variable -> declaring method
    ret_of_invo: Dict[str, str]  # invocation site -> result variable
    formals: Dict[str, Tuple[str, ...]]  # method -> formals, by position
    returns: Dict[str, Tuple[str, ...]]  # method -> returned variables
    this_of: Dict[str, str]  # instance method -> its ``this``
    heap_type: Dict[str, str]  # heap -> allocated type


class _TypeRows:
    """One of a program's whole-program type relations (SUBTYPE or
    LOOKUP), built by ``build`` the first time it is read.

    No cold run reads them, so a fact base holds one of these per relation
    instead of the rows.  Derived fact bases share it by reference.  Two
    unbuilt holders over the same program and builder are equal without
    building; otherwise equality compares the rows.
    """

    __slots__ = ("program", "build", "rows")

    def __init__(
        self,
        program: Optional[Program],
        build: Optional[Callable[[Program], List[tuple]]],
        rows: Optional[List[tuple]] = None,
    ) -> None:
        self.program = program
        self.build = build
        self.rows = rows

    def get(self) -> List[tuple]:
        rows = self.rows
        if rows is None:
            assert self.program is not None and self.build is not None
            rows = self.rows = self.build(self.program)
            self.program = self.build = None
        return rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _TypeRows):
            return NotImplemented
        if self is other or (
            self.rows is None
            and other.rows is None
            and self.program is other.program
            and self.build is other.build
        ):
            return True
        return self.get() == other.get()

    __hash__ = None  # type: ignore[assignment]


@dataclass
class FactBase:
    """All input relations of one program, as tuple lists plus indexes.

    SUBTYPE and LOOKUP are built from the program the first time they are
    read (``subtype``, ``lookup`` and everything that reads every
    relation); until then the fact base holds neither.
    """

    program: Program

    # Instruction relations -- tuples follow the schema in facts.schema.
    alloc: List[Tuple[str, str, str]] = field(default_factory=list)
    move: List[Tuple[str, str]] = field(default_factory=list)
    load: List[Tuple[str, str, str]] = field(default_factory=list)
    store: List[Tuple[str, str, str]] = field(default_factory=list)
    vcall: List[Tuple[str, str, str, str]] = field(default_factory=list)
    scall: List[Tuple[str, str, str]] = field(default_factory=list)
    specialcall: List[Tuple[str, str, str, str]] = field(default_factory=list)
    cast: List[Tuple[str, str, str, str]] = field(default_factory=list)
    staticload: List[Tuple[str, str, str]] = field(default_factory=list)
    staticstore: List[Tuple[str, str, str]] = field(default_factory=list)
    throwinstr: List[Tuple[str, str]] = field(default_factory=list)
    catchclause: List[Tuple[str, str, str]] = field(default_factory=list)

    # Name-and-type relations.
    formalarg: List[Tuple[str, int, str]] = field(default_factory=list)
    actualarg: List[Tuple[str, int, str]] = field(default_factory=list)
    formalreturn: List[Tuple[str, str]] = field(default_factory=list)
    actualreturn: List[Tuple[str, str]] = field(default_factory=list)
    thisvar: List[Tuple[str, str]] = field(default_factory=list)
    heaptype: List[Tuple[str, str]] = field(default_factory=list)
    allocclass: List[Tuple[str, str]] = field(default_factory=list)
    varinmeth: List[Tuple[str, str]] = field(default_factory=list)
    invoinmeth: List[Tuple[str, str]] = field(default_factory=list)
    reachableroot: List[Tuple[str]] = field(default_factory=list)

    # Indexes used by policies, metrics, and the solver.  Their values
    # are tuples: a tuple of strings leaves the collector's tracking,
    # where a list per method or call site would stay in every pass.
    heap_type: Dict[str, str] = field(default_factory=dict)
    alloc_class: Dict[str, str] = field(default_factory=dict)
    vars_of_method: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    args_of_invo: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    method_of_invo: Dict[str, str] = field(default_factory=dict)
    vcall_invos: Set[str] = field(default_factory=set)
    all_heaps: Set[str] = field(default_factory=set)
    string_const_heaps: Set[str] = field(default_factory=set)

    _index: Optional[FactIndex] = field(
        default=None, init=False, repr=False, compare=False
    )
    _subtype: _TypeRows = field(init=False, repr=False)
    _lookup: _TypeRows = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._subtype = _TypeRows(self.program, _subtype_rows)
        self._lookup = _TypeRows(self.program, _lookup_rows)

    @property
    def subtype(self) -> List[Tuple[str, str]]:
        """SUBTYPE rows, built on first read."""
        return self._subtype.get()

    @subtype.setter
    def subtype(self, rows: List[Tuple[str, str]]) -> None:
        self._subtype = _TypeRows(None, None, rows)

    @property
    def lookup(self) -> List[Tuple[str, str, str]]:
        """LOOKUP rows, built on first read."""
        return self._lookup.get()

    @lookup.setter
    def lookup(self, rows: List[Tuple[str, str, str]]) -> None:
        self._lookup = _TypeRows(None, None, rows)

    @classmethod
    def from_relations(
        cls, program: Program, relations: Mapping[str, Iterable[tuple]]
    ) -> "FactBase":
        """Rebuild a fact base from schema-named relation rows.

        The inverse of :meth:`as_relation_dict` (e.g. over
        :func:`repro.facts.io.load_facts`): the relation lists are taken
        as given and the encoder's indexes are re-derived from them.
        """
        facts = cls(program)
        unknown = set(relations) - {name.upper() for name in _RELATIONS}
        if unknown:
            raise ValueError(f"not fact-base relations: {sorted(unknown)}")
        for name, rows in relations.items():
            setattr(facts, name.lower(), list(rows))
        facts.heap_type = dict(facts.heaptype)
        facts.alloc_class = dict(facts.allocclass)
        facts.all_heaps = set(facts.heap_type)
        facts.string_const_heaps = {
            heap
            for heap, typ in facts.heap_type.items()
            if typ == JAVA_STRING and facts.alloc_class.get(heap) == JAVA_STRING
        }
        vars_of: Dict[str, List[str]] = {m.id: [] for m in program.methods()}
        for var, meth in facts.varinmeth:
            vars_of.setdefault(meth, []).append(var)
        facts.vars_of_method = {m: tuple(sorted(vs)) for m, vs in vars_of.items()}
        facts.method_of_invo = dict(facts.invoinmeth)
        args_of: Dict[str, List[str]] = {invo: [] for invo in facts.method_of_invo}
        for invo, i, arg in sorted(facts.actualarg, key=lambda r: (r[0], r[1])):
            args_of.setdefault(invo, []).append(arg)
        facts.args_of_invo = {invo: tuple(args) for invo, args in args_of.items()}
        facts.vcall_invos = {invo for _b, _s, invo, _m in facts.vcall}
        return facts

    def index(self) -> FactIndex:
        """The shared :class:`FactIndex`, built on first use.

        The fact base must not be mutated afterwards (nothing in the
        analysis does: a changed program is re-encoded).
        """
        if self._index is None:
            by_pos: Dict[str, Dict[int, str]] = {}
            for meth, i, arg in self.formalarg:
                by_pos.setdefault(meth, {})[i] = arg
            returns: Dict[str, List[str]] = {}
            for meth, ret in self.formalreturn:
                returns.setdefault(meth, []).append(ret)
            self._index = FactIndex(
                var_meth=dict(self.varinmeth),
                ret_of_invo=dict(self.actualreturn),
                formals={m: tuple(p[i] for i in sorted(p)) for m, p in by_pos.items()},
                returns={m: tuple(rs) for m, rs in returns.items()},
                this_of=dict(self.thisvar),
                heap_type=self.heap_type,
            )
        return self._index

    def with_instructions(
        self, program: Program, rows: Mapping[str, List[tuple]]
    ) -> "FactBase":
        """A fact base over ``program`` with some instruction relations
        replaced (a slice).  Every other relation, every encoder index and
        the :class:`FactIndex` are shared by reference, so this costs
        O(len(rows)) however large the program is."""
        unknown = set(rows) - set(INSTRUCTION_RELATIONS)
        if unknown:
            raise ValueError(f"not instruction relations: {sorted(unknown)}")
        derived = dataclasses.replace(self, program=program, **rows)
        derived._index = self.index()
        derived._subtype = self._subtype
        derived._lookup = self._lookup
        return derived

    def as_relation_dict(self) -> Dict[str, List[tuple]]:
        """Tuples keyed by schema relation name (Datalog EDB loading)."""
        return {name.upper(): list(getattr(self, name)) for name in _RELATIONS}

    def alloc_class_of(self, heap: str) -> str:
        """Type-sensitivity context element: class containing the alloc site."""
        return self.alloc_class[heap]

    # The cold readers' name-keyed reads, as a
    # :class:`~repro.analysis.pack.PackedProgram` offers them.
    def vars_of(self, meth: str) -> Tuple[str, ...]:
        """The local variables of method ``meth``."""
        return self.vars_of_method.get(meth, ())

    def args_of(self, invo: str) -> Tuple[str, ...]:
        """Call site ``invo``'s actual arguments, by position."""
        return self.args_of_invo.get(invo, ())

    def is_vcall(self, invo: str) -> bool:
        """Whether ``invo`` is a virtual call site."""
        return invo in self.vcall_invos

    def heap_type_of(self, heap: str) -> str:
        """The type ``heap`` allocates."""
        return self.heap_type[heap]

    def allocs_in(self, methods: AbstractSet[str]) -> Iterator[str]:
        """The heaps allocated in ``methods`` (a heap may repeat)."""
        return (heap for _var, heap, meth in self.alloc if meth in methods)

    def casts_in(self, methods: AbstractSet[str]) -> Iterator[Tuple[str, str, str]]:
        """The casts of ``methods``, as ``(to, type, from)``."""
        return (
            (to, typ, frm) for to, typ, frm, meth in self.cast if meth in methods
        )

    def count_tuples(self) -> int:
        return sum(len(getattr(self, name)) for name in _RELATIONS)

    def digest(self) -> str:
        """Stable SHA-256 over the input relations (hex string).

        The digest is *content-addressed*: it depends only on the set of
        tuples in each relation, not on insertion order, so two encodings
        of the same program — or of two textually different sources that
        lower to identical facts — share a digest.  Any added, removed, or
        altered tuple changes it.  This is the cache key used by
        :mod:`repro.service.cache`.
        """
        h = hashlib.sha256()
        for name, tuples in sorted(self.as_relation_dict().items()):
            h.update(name.encode())
            h.update(b"\x00")
            # Fields never contain the separators (\x1f/\x1e): entity ids
            # are printable identifiers, indices are integers.
            for row in sorted("\x1f".join(str(f) for f in t) for t in tuples):
                h.update(row.encode())
                h.update(b"\x1e")
        return h.hexdigest()


def encode_program(program: Program, tracer: Tracer = NULL_TRACER) -> FactBase:
    """Encode a frozen program into its input relations.

    The encoding is wrapped in a ``facts.encode`` span on ``tracer``,
    annotated with the number of rows it built: every relation but
    SUBTYPE and LOOKUP, which the fact base builds when first read.
    """
    if not program.frozen:
        raise ValueError("program must be frozen before encoding")
    with tracer.span("facts.encode"):
        facts = _encode(program)
        if tracer.enabled:
            tracer.annotate(
                tuples=sum(len(getattr(facts, n)) for n in _ENCODED_RELATIONS)
            )
    return facts


def _encode(program: Program) -> FactBase:
    facts = FactBase(program)
    for method in program.methods():
        _encode_method(program, method, facts)
    for ep in program.entry_points:
        facts.reachableroot.append((ep,))
    return facts


def _encode_method(program: Program, method: Method, facts: FactBase) -> None:
    mid = method.id
    qual = method.qualified_var

    local_vars = sorted(method.local_vars())
    facts.vars_of_method[mid] = tuple(map(qual, local_vars))
    for v in local_vars:
        facts.varinmeth.append((qual(v), mid))

    for i, p in enumerate(method.params):
        facts.formalarg.append((mid, i, qual(p)))
    if not method.is_static:
        facts.thisvar.append((mid, qual("this")))
    for rv in set(method.return_vars()):
        facts.formalreturn.append((mid, qual(rv)))

    alloc_idx = 0
    for instr in method.instructions:
        if isinstance(instr, Alloc):
            heap = program.alloc_site(method, alloc_idx)
            alloc_idx += 1
            facts.alloc.append((qual(instr.target), heap, mid))
            facts.heaptype.append((heap, instr.class_name))
            facts.heap_type[heap] = instr.class_name
            facts.allocclass.append((heap, method.class_name))
            facts.alloc_class[heap] = method.class_name
            facts.all_heaps.add(heap)
        elif isinstance(instr, ConstString):
            heap = instr.heap_id
            facts.alloc.append((qual(instr.target), heap, mid))
            if heap not in facts.all_heaps:
                facts.heaptype.append((heap, JAVA_STRING))
                facts.heap_type[heap] = JAVA_STRING
                # Shared constants have no single allocating class; the
                # type-sensitivity context element coarsens to the string
                # class itself (all constants merge under type contexts).
                facts.allocclass.append((heap, JAVA_STRING))
                facts.alloc_class[heap] = JAVA_STRING
                facts.all_heaps.add(heap)
            facts.string_const_heaps.add(heap)
        elif isinstance(instr, Move):
            facts.move.append((qual(instr.target), qual(instr.source)))
        elif isinstance(instr, Load):
            facts.load.append((qual(instr.target), qual(instr.base), instr.field_name))
        elif isinstance(instr, Store):
            facts.store.append((qual(instr.base), instr.field_name, qual(instr.source)))
        elif isinstance(instr, StaticLoad):
            facts.staticload.append(
                (qual(instr.target), instr.class_name, instr.field_name)
            )
        elif isinstance(instr, StaticStore):
            facts.staticstore.append(
                (instr.class_name, instr.field_name, qual(instr.source))
            )
        elif isinstance(instr, Cast):
            facts.cast.append(
                (qual(instr.target), instr.type_name, qual(instr.source), mid)
            )
        elif isinstance(instr, VirtualCall):
            facts.vcall.append((qual(instr.base), instr.sig, instr.invo, mid))
            facts.vcall_invos.add(instr.invo)
            _encode_call_common(instr, qual, facts, mid)
        elif isinstance(instr, StaticCall):
            callee = program.lookup(instr.class_name, instr.sig)
            assert callee is not None, "validated earlier"
            facts.scall.append((callee.id, instr.invo, mid))
            _encode_call_common(instr, qual, facts, mid)
        elif isinstance(instr, SpecialCall):
            callee = program.lookup(instr.class_name, instr.sig)
            assert callee is not None, "validated earlier"
            facts.specialcall.append((qual(instr.base), callee.id, instr.invo, mid))
            _encode_call_common(instr, qual, facts, mid)
        elif isinstance(instr, Throw):
            facts.throwinstr.append((qual(instr.var), mid))
        elif isinstance(instr, Catch):
            facts.catchclause.append((mid, instr.type_name, qual(instr.target)))
        elif isinstance(instr, Return):
            pass  # handled via method.return_vars()
        else:  # pragma: no cover - exhaustive over instruction kinds
            raise TypeError(f"unencodable instruction: {instr!r}")


def _encode_call_common(instr, qual, facts: FactBase, in_meth: str) -> None:
    facts.args_of_invo[instr.invo] = tuple(map(qual, instr.args))
    facts.method_of_invo[instr.invo] = in_meth
    facts.invoinmeth.append((instr.invo, in_meth))
    for i, a in enumerate(instr.args):
        facts.actualarg.append((instr.invo, i, qual(a)))
    if instr.target is not None:
        facts.actualreturn.append((instr.invo, qual(instr.target)))


def _subtype_rows(program: Program) -> List[Tuple[str, str]]:
    """SUBTYPE: the reflexive-transitive closure, as the cast rule
    expects."""
    hierarchy = program.hierarchy
    return [
        (ct.name, sup)
        for ct in hierarchy
        for sup in hierarchy.supertypes(ct.name)
    ]


def _lookup_rows(program: Program) -> List[Tuple[str, str, str]]:
    """LOOKUP: the dispatch table of every *instantiable* type (only
    concrete classes can be receivers) for every instance signature it
    resolves.

    One walk up each class's superclass chain, where the first
    declaration of a signature wins (as in ``Program.lookup``, whose
    memo this leaves alone); a static first declaration resolves no
    instance call.
    """
    rows: List[Tuple[str, str, str]] = []
    classes = program.classes
    hierarchy = program.hierarchy
    for ct in hierarchy:
        if ct.is_interface or ct.is_abstract:
            continue
        seen: Set[str] = set()
        for sup in hierarchy.superclass_chain(ct.name):
            cd = classes.get(sup.name)
            if cd is None:
                continue
            for sig, method in cd.methods.items():
                if sig not in seen:
                    seen.add(sig)
                    if not method.is_static:
                        rows.append((ct.name, sig, method.id))
    return rows


# ----------------------------------------------------------------------
# Per-method encoding: the pieces of ``encode_program``'s output, so a
# changed program can be re-encoded one method at a time.
# ----------------------------------------------------------------------
class MethodRows:
    """One method's encoding: its non-empty :data:`METHOD_RELATIONS` and
    its share of the derived maps (``method_of_invo`` and ``all_heaps``
    follow from ``args_of_invo`` and ``heap_type``).

    Its rows depend on the rest of the program in two ways only: static
    and special calls name the callee ``Program.lookup`` resolved
    (``call_sigs``), and a string constant's HEAPTYPE/ALLOCCLASS rows are
    kept by :func:`assemble_facts` only at the constant's first use
    (``strings``).
    """

    __slots__ = (
        "rows",
        "vars",
        "heap_type",
        "alloc_class",
        "args_of_invo",
        "vcall_invos",
        "strings",
        "call_sigs",
    )

    def __init__(self, program: Program, method: Method) -> None:
        scratch = FactBase(program)
        _encode_method(program, method, scratch)
        # Tuples, not lists: the collector stops tracking a tuple of
        # untracked rows, and a caller may hold one per relation per method.
        encoded = vars(scratch)
        self.rows: Dict[str, Tuple[tuple, ...]] = {
            name: tuple(encoded[name])
            for name in METHOD_RELATIONS
            if encoded[name]
        }
        self.vars = scratch.vars_of_method[method.id]
        self.heap_type = scratch.heap_type
        self.alloc_class = scratch.alloc_class
        self.args_of_invo = scratch.args_of_invo
        self.vcall_invos = scratch.vcall_invos or _EMPTY
        strings = scratch.string_const_heaps
        self.strings = frozenset(strings) if strings else _EMPTY
        callees = [row[0] for row in scratch.scall]
        callees += [row[1] for row in scratch.specialcall]
        self.call_sigs = (
            frozenset(program.method(c).sig for c in callees) if callees else _EMPTY
        )


def type_rows(program: Program) -> Tuple[List[tuple], List[tuple]]:
    """``program``'s SUBTYPE and LOOKUP rows, as a fact base of it reads
    them."""
    return _subtype_rows(program), _lookup_rows(program)


def assemble_facts(
    program: Program,
    methods: Iterable[MethodRows],
    subtype: Iterable[tuple],
    lookup: Iterable[tuple],
) -> FactBase:
    """The whole fact base from per-method encodings.

    ``methods`` must follow ``program.methods()``; the result is then
    list-equal to ``encode_program(program)``, row order included, given
    that program's SUBTYPE/LOOKUP rows.
    """
    facts = FactBase(program)
    out = {name: getattr(facts, name) for name in METHOD_RELATIONS}
    heap_type = facts.heap_type
    alloc_class = facts.alloc_class
    args_of_invo = facts.args_of_invo
    method_of_invo = facts.method_of_invo
    vcall_invos = facts.vcall_invos
    strings = facts.string_const_heaps
    vars_of_method = facts.vars_of_method
    for method, entry in zip(program.methods(), methods):
        mid = method.id
        rows = entry.rows
        if entry.strings:
            shared = entry.strings & strings
            if shared:
                # An earlier method already emitted these constants.
                rows = dict(rows)
                for name in _STRING_RELATIONS:
                    rows[name] = [r for r in rows[name] if r[0] not in shared]
            strings |= entry.strings
        for name, part in rows.items():
            out[name].extend(part)
        vars_of_method[mid] = entry.vars
        if entry.heap_type:
            heap_type.update(entry.heap_type)
            alloc_class.update(entry.alloc_class)
        if entry.args_of_invo:
            args_of_invo.update(entry.args_of_invo)
            method_of_invo.update(dict.fromkeys(entry.args_of_invo, mid))
            vcall_invos |= entry.vcall_invos
    facts.all_heaps = set(heap_type)
    facts.subtype = list(subtype)
    facts.lookup = list(lookup)
    facts.reachableroot = [(ep,) for ep in program.entry_points]
    return facts


def method_rows_delta(
    old: Iterable[MethodRows],
    new: Iterable[MethodRows],
    before: AbstractSet[str],
    after: AbstractSet[str],
) -> Tuple[Dict[str, Set[tuple]], Dict[str, Set[tuple]]]:
    """The :data:`METHOD_RELATIONS` rows a whole-program encoding gains
    and loses when the methods encoded as ``old`` are re-encoded as
    ``new``.

    ``before`` and ``after`` are the string constants some method of the
    whole program uses before and after the change (only membership of
    the constants in ``old`` and ``new`` is asked), so no whole fact base
    is needed.  Returns ``(added, removed)``, non-empty sets by attribute
    name.
    """
    was: Dict[str, Set[tuple]] = {}
    now: Dict[str, Set[tuple]] = {}
    for side, entries in ((was, old), (now, new)):
        for entry in entries:
            for name, rows in entry.rows.items():
                side.setdefault(name, set()).update(rows)
    added: Dict[str, Set[tuple]] = {}
    removed: Dict[str, Set[tuple]] = {}
    for name in was.keys() | now.keys():
        plus = now.get(name, set()) - was.get(name, set())
        minus = was.get(name, set()) - now.get(name, set())
        if name in _STRING_RELATIONS:
            # A string constant's rows come and go with its last use
            # anywhere in the program, not with one method's use.
            plus = {r for r in plus if r[0] not in before}
            minus = {r for r in minus if r[0] not in after}
        if plus:
            added[name] = plus
        if minus:
            removed[name] = minus
    return added, removed
