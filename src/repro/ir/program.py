"""Program representation: classes, methods, and whole-program services.

A :class:`Program` owns a :class:`~repro.ir.types.TypeHierarchy`, a set of
class definitions with fields and methods, and designated entry points.  When
frozen it provides the two name-resolution services the analysis model needs
(paper Figure 2):

* ``LOOKUP(type, sig) = meth`` — virtual dispatch resolution, implemented by
  walking the superclass chain (:meth:`Program.lookup`);
* unique identities for every allocation site (``H``), invocation site
  (``I``), method (``M``) and variable (``V``).

Identity conventions (stable, human-readable, used throughout results and
reports):

* method id       ``"Class.name/arity"``
* signature       ``"name/arity"``
* allocation site ``"Class.name/arity/new Type/k"``   (k-th alloc in method)
* invocation site ``"Class.name/arity/invo/k"``       (k-th call in method)
* qualified var   ``"Class.name/arity/v"``
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .instructions import (
    Alloc,
    Instruction,
    Invocation,
    Return,
    SpecialCall,
    StaticCall,
    VirtualCall,
)
from .types import JAVA_STRING, OBJECT, ClassType, TypeHierarchy, TypeError_

__all__ = ["Method", "ClassDef", "Program", "ProgramError", "signature"]


class ProgramError(Exception):
    """Raised on malformed programs (duplicate methods, bad references)."""


def signature(name: str, arity: int) -> str:
    """The signature token ``S`` of the paper's domain: name and arity."""
    return f"{name}/{arity}"


@dataclass
class Method:
    """A method definition.

    ``params`` are the formal parameter variable names (FORMALARG); ``this``
    is implicit for instance methods and named ``"this"``.  Instructions are
    a flat, unordered bag — the analysis is flow-insensitive (Section 2).
    """

    class_name: str
    name: str
    params: Tuple[str, ...]
    instructions: Tuple[Instruction, ...] = ()
    is_static: bool = False

    # Filled in when attached to a Program.
    id: str = field(default="", compare=False)
    #: The allocation-site id of each Alloc, in instruction order.
    alloc_sites: Tuple[str, ...] = field(default=(), compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.id:
            self.id = f"{self.class_name}.{self.sig}"

    @property
    def arity(self) -> int:
        return len(self.params)

    @property
    def sig(self) -> str:
        return signature(self.name, self.arity)

    @property
    def this_var(self) -> Optional[str]:
        return None if self.is_static else "this"

    def return_vars(self) -> Iterator[str]:
        """Variables feeding FORMALRETURN — one per non-void Return."""
        for instr in self.instructions:
            if isinstance(instr, Return) and instr.var is not None:
                yield instr.var

    def local_vars(self) -> Set[str]:
        """All local variables: params, ``this``, and every defined/used var."""
        result: Set[str] = set(self.params)
        if not self.is_static:
            result.add("this")
        for instr in self.instructions:
            result.update(instr.defined_vars())
            result.update(instr.used_vars())
        return result

    def qualified_var(self, var: str) -> str:
        return f"{self.id}/{var}"


@dataclass
class ClassDef:
    """Fields and methods of one class; type info lives in the hierarchy."""

    type: ClassType
    fields: Tuple[str, ...] = ()
    static_fields: Tuple[str, ...] = ()
    methods: Dict[str, Method] = field(default_factory=dict)  # sig -> Method

    @property
    def name(self) -> str:
        return self.type.name


class Program:
    """A whole program: hierarchy + class definitions + entry points.

    Built mutable, then frozen by :meth:`freeze`; a frozen program is
    never changed again.  An edited program is either built anew or
    made by :meth:`derive` from its predecessor, sharing everything the
    edit left alone.
    """

    def __init__(self) -> None:
        self.hierarchy = TypeHierarchy()
        self.classes: Dict[str, ClassDef] = {
            OBJECT: ClassDef(self.hierarchy[OBJECT]),
            JAVA_STRING: ClassDef(self.hierarchy[JAVA_STRING]),
        }
        self.entry_points: List[str] = []  # method ids
        self._frozen = False
        # Method id -> method, filled at freeze time.  In class order
        # unless a derived program has added methods since (methods()
        # restores it).
        self._methods_by_id: Dict[str, Method] = {}
        self._class_ordered = True
        self._lookup_cache: Dict[Tuple[str, str], Optional[Method]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_class(
        self,
        class_type: ClassType,
        fields: Iterable[str] = (),
        static_fields: Iterable[str] = (),
    ) -> ClassDef:
        if self._frozen:
            raise ProgramError("cannot add classes to a frozen program")
        self.hierarchy.add(class_type)
        cd = ClassDef(class_type, tuple(fields), tuple(static_fields))
        self.classes[class_type.name] = cd
        return cd

    def add_method(self, method: Method) -> Method:
        if self._frozen:
            raise ProgramError("cannot add methods to a frozen program")
        cd = self.classes.get(method.class_name)
        if cd is None:
            raise ProgramError(
                f"method {method.name!r} declared in unknown class "
                f"{method.class_name!r}"
            )
        if method.sig in cd.methods:
            raise ProgramError(
                f"duplicate method {method.sig!r} in class {method.class_name!r}"
            )
        cd.methods[method.sig] = method
        return method

    def add_entry_point(self, method_id: str) -> None:
        self.entry_points.append(method_id)

    def freeze(self) -> "Program":
        """Validate, assign site identities, and enable queries."""
        if self._frozen:
            return self
        self.hierarchy.freeze()
        for cd in self.classes.values():
            for method in cd.methods.values():
                self._assign_site_ids(method)
                self._methods_by_id[method.id] = method
        for ep in self.entry_points:
            if ep not in self._methods_by_id:
                raise ProgramError(f"entry point {ep!r} is not a defined method")
        self._frozen = True
        return self

    def derive(
        self,
        methods: Iterable[Method],
        removed: Iterable[str],
        entry_points: Iterable[str],
    ) -> "Program":
        """A new frozen program: this one with whole methods replaced,
        added or removed, and the entry points set to ``entry_points``.

        The ids in ``removed`` are dropped first.  Then each of
        ``methods`` whose id this program still has replaces that method
        in place; any other is appended to its class, in the order given.
        That is the method order :meth:`freeze` gives a program built
        with the same edits, so :meth:`methods` iterates alike.

        Classes, fields and the hierarchy are shared with this program,
        as is every method not replaced; only the classes whose methods
        change are copied.  This program is left as it was.  Every
        method's class must exist, and every entry point must be a
        method of the result.
        """
        derived = Program.__new__(Program)
        derived.hierarchy = self.hierarchy
        derived.classes = dict(self.classes)
        derived._lookup_cache = {}
        derived._frozen = True
        changed: Dict[str, Dict[str, Method]] = {}

        def class_methods(class_name: str) -> Dict[str, Method]:
            table = changed.get(class_name)
            if table is None:
                table = dict(self.classes[class_name].methods)
                changed[class_name] = table
            return table

        # The method table is patched: replacing or removing a method
        # keeps every other in place.  An added one goes to the end of its
        # class, and the table is put back in class order only when
        # methods() is first called.
        by_id = derived._methods_by_id = dict(self._methods_by_id)
        derived._class_ordered = self._class_ordered
        for method_id in removed:
            old = by_id.pop(method_id)
            del class_methods(old.class_name)[old.sig]
        for method in methods:
            table = class_methods(method.class_name)
            if method.sig not in table:
                derived._class_ordered = False
            table[method.sig] = method  # an existing key keeps its place
            by_id[method.id] = method
            derived._assign_site_ids(method)
        for class_name, table in changed.items():
            derived.classes[class_name] = replace(
                self.classes[class_name], methods=table
            )
        derived.entry_points = list(entry_points)
        for ep in derived.entry_points:
            if ep not in derived._methods_by_id:
                raise ProgramError(f"entry point {ep!r} is not a defined method")
        return derived

    def _assign_site_ids(self, method: Method) -> None:
        """Rewrite instructions so every call site has a unique ``invo`` id
        and record allocation-site identities.  An invocation that already
        carries its id (a body lifted from a frozen program) is kept."""
        new_instructions: List[Instruction] = []
        alloc_sites: List[str] = []
        invo_idx = 0
        for instr in method.instructions:
            if isinstance(instr, Alloc):
                alloc_sites.append(
                    f"{method.id}/new {instr.class_name}/{len(alloc_sites)}"
                )
            elif isinstance(instr, Invocation):
                invo = f"{method.id}/invo/{invo_idx}"
                invo_idx += 1
                # ``invo`` is compare=False: test it explicitly.
                if instr.invo != invo:
                    instr = replace(instr, invo=invo)
            new_instructions.append(instr)
        method.instructions = tuple(new_instructions)
        method.alloc_sites = tuple(alloc_sites)

    # ------------------------------------------------------------------
    # Queries (require frozen)
    # ------------------------------------------------------------------
    @property
    def frozen(self) -> bool:
        return self._frozen

    def method(self, method_id: str) -> Method:
        return self._methods_by_id[method_id]

    def methods(self) -> Iterator[Method]:
        """Every method, in class order: a fresh build's order."""
        if not self._class_ordered:
            self._methods_by_id = {
                m.id: m for cd in self.classes.values() for m in cd.methods.values()
            }
            self._class_ordered = True
        return iter(self._methods_by_id.values())

    def alloc_site(self, method: Method, alloc_index: int) -> str:
        return self._methods_by_id[method.id].alloc_sites[alloc_index]

    @property
    def _alloc_sites(self) -> Dict[Tuple[str, int], str]:
        """Every allocation site, keyed ``(method id, alloc index)``:
        built when read, from the methods' own sites."""
        return {
            (m.id, i): site
            for m in self.methods()
            for i, site in enumerate(m.alloc_sites)
        }

    def lookup(self, type_name: str, sig: str) -> Optional[Method]:
        """LOOKUP(type, sig): resolve virtual dispatch.

        Walks the superclass chain of ``type_name`` and returns the first
        class that declares a method with the given signature, or ``None``
        if the call cannot be resolved (an analysis-level dead end, treated
        as no call-graph edge — matching the paper's LOOKUP join).
        """
        key = (type_name, sig)
        cached = self._lookup_cache.get(key, _MISS)
        if cached is not _MISS:
            return cached
        result: Optional[Method] = None
        for ct in self.hierarchy.superclass_chain(type_name):
            cd = self.classes.get(ct.name)
            if cd is not None and sig in cd.methods:
                result = cd.methods[sig]
                break
        self._lookup_cache[key] = result
        return result

    def declared_field(self, type_name: str, field_name: str) -> bool:
        """True if ``field_name`` is declared by ``type_name`` or a super."""
        for ct in self.hierarchy.superclass_chain(type_name):
            cd = self.classes.get(ct.name)
            if cd is not None and field_name in cd.fields:
                return True
        return False

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def count_instructions(self) -> int:
        return sum(len(m.instructions) for m in self.methods())

    def count_methods(self) -> int:
        return len(self._methods_by_id)

    def count_classes(self) -> int:
        return len(self.classes)

    def count_call_sites(self) -> int:
        return sum(
            1
            for m in self.methods()
            for i in m.instructions
            if isinstance(i, (VirtualCall, StaticCall, SpecialCall))
        )

    def count_alloc_sites(self) -> int:
        return sum(len(m.alloc_sites) for m in self.methods())

    def summary(self) -> str:
        return (
            f"classes={self.count_classes()} methods={self.count_methods()} "
            f"instructions={self.count_instructions()} "
            f"call-sites={self.count_call_sites()} "
            f"alloc-sites={self.count_alloc_sites()}"
        )


_MISS = object()
