"""Frozen pre-compilation Datalog engine (the benchmark baseline).

This is a verbatim snapshot of :mod:`repro.datalog.engine` as it stood
before the compiled-join-plan rework: dict environments copied on every
binding, per-literal ``positions``/``key_parts`` rebuilt per candidate row,
and a linear ``_matches`` scan over semi-naive delta rows.

It exists for two reasons (the same pattern as
:mod:`repro.analysis.reference_solver`):

* ``repro bench --kind datalog`` measures the compiled engine *against*
  this baseline and records the speedup trajectory as ``bench-datalog``
  receipts;
* the differential tests and fuzz oracles cross-check the compiled
  engine's relations against this one, so the plan compiler cannot
  silently change the semantics it was built to accelerate.

Do not optimize this module; it is the yardstick.

The engine evaluates a :class:`~repro.datalog.rules.RuleProgram` over a
:class:`~repro.datalog.database.Database` to fixpoint:

1. **Stratification** — predicates are grouped into SCCs of the dependency
   graph; negation and aggregation edges must cross SCCs (checked), and the
   condensation's topological order yields strata.  Heads of a multi-head
   rule must share a stratum (the paper's Figure 3 rules satisfy this: their
   co-derived heads are mutually recursive).
2. **Per-stratum fixpoint** — one naive round seeds the stratum, then
   semi-naive rounds join each rule once per body atom that has a delta,
   substituting the delta for that atom and full relations elsewhere.
3. **Aggregates** — evaluated after their stratum's rule fixpoint (they
   behave like negation for stratification, so their inputs are complete).

Joins are index nested-loop: for each body atom the engine fetches only the
rows matching the positions already bound, using the relation's lazily built
positional indexes.

The evaluator is deliberately simple and allocation-light rather than
clever; it exists to execute the paper's ten-rule model and metric queries
faithfully, with the worklist solver as the performance engine.  A
``max_rows`` budget makes runaway programs fail fast like the solver does.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .database import Database, Relation
from .engine import EvaluationBudgetExceeded
from .rules import AggregateRule, Rule, RuleError, RuleProgram
from .terms import Atom, FilterAtom, FunAtom, NegAtom, Var

__all__ = ["ReferenceEngine", "Engine", "EvaluationBudgetExceeded", "stratify"]

Row = Tuple
Env = Dict[str, object]


def stratify(program: RuleProgram) -> Dict[str, int]:
    """Assign a stratum number to every predicate.

    Raises :class:`RuleError` when a negated or aggregated dependency sits
    inside a recursive cycle (non-stratifiable program).
    """
    preds = sorted(program.all_preds())
    edges = program.dependency_edges()

    # Tarjan SCC over the dependency graph head -> body.
    graph: Dict[str, List[str]] = {p: [] for p in preds}
    for head, body, _strict in edges:
        graph[head].append(body)

    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Set[str] = set()
    scc_of: Dict[str, int] = {}
    scc_count = [0]

    def strongconnect(v: str) -> None:
        # Iterative Tarjan to survive deep predicate chains.
        work = [(v, iter(graph[v]))]
        index[v] = lowlink[v] = index_counter[0]
        index_counter[0] += 1
        stack.append(v)
        on_stack.add(v)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = lowlink[w] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(graph[w])))
                    advanced = True
                    break
                elif w in on_stack:
                    lowlink[node] = min(lowlink[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                scc_id = scc_count[0]
                scc_count[0] += 1
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    scc_of[w] = scc_id
                    if w == node:
                        break

    for p in preds:
        if p not in index:
            strongconnect(p)

    for head, body, strict in edges:
        if strict and scc_of[head] == scc_of[body]:
            raise RuleError(
                f"not stratifiable: {head} depends on {body} through "
                f"negation/aggregation inside a recursive cycle"
            )

    # Longest-path layering of the SCC condensation: stratum of an SCC is
    # 1 + max over dependencies (strict or not, negation forces strictly
    # greater which longest-path over all edges already guarantees when the
    # SCCs differ).
    scc_deps: Dict[int, Set[int]] = {}
    for head, body, _strict in edges:
        if scc_of[head] != scc_of[body]:
            scc_deps.setdefault(scc_of[head], set()).add(scc_of[body])

    level_cache: Dict[int, int] = {}

    def level(scc: int) -> int:
        cached = level_cache.get(scc)
        if cached is not None:
            return cached
        level_cache[scc] = 0  # placeholder; condensation is acyclic
        deps = scc_deps.get(scc, ())
        result = 1 + max((level(d) for d in deps), default=-1)
        level_cache[scc] = result
        return result

    return {p: level(scc_of[p]) for p in preds}


class Engine:
    """Evaluate a rule program over a database to fixpoint."""

    def __init__(
        self,
        program: RuleProgram,
        database: Optional[Database] = None,
        max_rows: Optional[int] = None,
    ) -> None:
        self.program = program
        self.db = database if database is not None else Database()
        self.max_rows = max_rows
        self.strata = stratify(program)
        self._check_multihead_strata()

    def _check_multihead_strata(self) -> None:
        for rule in self.program.rules:
            levels = {self.strata[h.pred] for h in rule.heads}
            if len(levels) > 1:
                raise RuleError(
                    f"heads of {rule!r} span strata {sorted(levels)}; "
                    "multi-head rules must derive into a single stratum"
                )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def load(self, relations: Dict[str, Sequence[Row]]) -> None:
        self.db.load({k: list(map(tuple, v)) for k, v in relations.items()})

    def run(self) -> Database:
        """Evaluate all strata in order; returns the database."""
        max_level = max(self.strata.values(), default=0)
        for level in range(max_level + 1):
            self._run_stratum(level)
        return self.db

    def query(self, pred: str) -> Set[Row]:
        return self.db.rows(pred)

    # ------------------------------------------------------------------
    # Stratum evaluation
    # ------------------------------------------------------------------
    def _run_stratum(self, level: int) -> None:
        rules = [
            r
            for r in self.program.rules
            if self.strata[next(iter(r.head_preds()))] == level
        ]
        stratum_preds = {p for r in rules for p in r.head_preds()}

        # Naive seeding round.
        for rule in rules:
            self._apply(rule, self._evaluate_body(rule.body))

        # Clear any deltas produced by seeding or fact loading, then iterate.
        recursive_preds = stratum_preds | {
            p for r in rules for p in r.body_preds() if p in stratum_preds
        }
        current: Dict[str, Set[Row]] = {
            p: self.db.take_delta(p) for p in recursive_preds
        }
        # EDB deltas are irrelevant after the naive round: drop them.
        for rule in rules:
            for p in rule.body_preds():
                if p not in stratum_preds:
                    self.db.take_delta(p)

        while any(current.values()):
            for rule in rules:
                body_preds = [
                    (i, lit.pred)
                    for i, lit in enumerate(rule.body)
                    if isinstance(lit, Atom) and lit.pred in stratum_preds
                ]
                for pos, pred in body_preds:
                    delta = current.get(pred)
                    if delta:
                        self._apply(
                            rule, self._evaluate_body(rule.body, pos, delta)
                        )
            current = {p: self.db.take_delta(p) for p in recursive_preds}

        # Aggregates of this stratum run on the completed inputs.
        for agg in self.program.aggregates:
            if self.strata[agg.head_pred] == level:
                self._run_aggregate(agg)

    def _apply(self, rule: Rule, envs: Iterator[Env]) -> None:
        db = self.db
        for env in envs:
            for head in rule.heads:
                row = tuple(
                    env[a.name] if isinstance(a, Var) else a for a in head.args
                )
                if db.add_fact(head.pred, row):
                    self._charge()

    def _charge(self) -> None:
        if self.max_rows is not None and self.db.total_rows() > self.max_rows:
            raise EvaluationBudgetExceeded(
                f"database exceeded {self.max_rows} rows"
            )

    # ------------------------------------------------------------------
    # Body evaluation (index nested-loop join)
    # ------------------------------------------------------------------
    def _evaluate_body(
        self,
        body: Tuple,
        delta_pos: Optional[int] = None,
        delta_rows: Optional[Set[Row]] = None,
    ) -> Iterator[Env]:
        def step(i: int, env: Env) -> Iterator[Env]:
            if i == len(body):
                yield env
                return
            lit = body[i]
            if isinstance(lit, Atom):
                if i == delta_pos:
                    candidates: Sequence[Row] = [
                        r for r in delta_rows or () if self._matches(lit, r, env)
                    ]
                    for row in candidates:
                        new_env = self._bind(lit, row, env)
                        if new_env is not None:
                            yield from step(i + 1, new_env)
                else:
                    rel = self.db.relation(lit.pred)
                    positions: List[int] = []
                    key_parts: List[object] = []
                    for pos, arg in enumerate(lit.args):
                        if isinstance(arg, Var):
                            if not arg.is_wildcard and arg.name in env:
                                positions.append(pos)
                                key_parts.append(env[arg.name])
                        else:
                            positions.append(pos)
                            key_parts.append(arg)
                    for row in rel.match(tuple(positions), tuple(key_parts)):
                        new_env = self._bind(lit, row, env)
                        if new_env is not None:
                            yield from step(i + 1, new_env)
            elif isinstance(lit, NegAtom):
                row = tuple(
                    env[a.name] if isinstance(a, Var) else a
                    for a in lit.atom.args
                )
                if row not in self.db.relation(lit.pred):
                    yield from step(i + 1, env)
            elif isinstance(lit, FunAtom):
                vals = [
                    env[a.name] if isinstance(a, Var) else a for a in lit.ins
                ]
                out_val = lit.func(*vals)
                existing = env.get(lit.out.name, _MISSING)
                if existing is _MISSING:
                    new_env = dict(env)
                    new_env[lit.out.name] = out_val
                    yield from step(i + 1, new_env)
                elif existing == out_val:
                    yield from step(i + 1, env)
            elif isinstance(lit, FilterAtom):
                vals = [
                    env[a.name] if isinstance(a, Var) else a for a in lit.args
                ]
                if lit.func(*vals):
                    yield from step(i + 1, env)
            else:  # pragma: no cover - exhaustive over literal kinds
                raise AssertionError(f"unknown literal {lit!r}")

        yield from step(0, {})

    @staticmethod
    def _matches(atom: Atom, row: Row, env: Env) -> bool:
        for arg, val in zip(atom.args, row):
            if isinstance(arg, Var):
                if not arg.is_wildcard and env.get(arg.name, val) != val:
                    return False
            elif arg != val:
                return False
        return True

    @staticmethod
    def _bind(atom: Atom, row: Row, env: Env) -> Optional[Env]:
        new_env: Optional[Env] = None
        for arg, val in zip(atom.args, row):
            if isinstance(arg, Var):
                if arg.is_wildcard:
                    continue
                source = new_env if new_env is not None else env
                bound = source.get(arg.name, _MISSING)
                if bound is _MISSING:
                    if new_env is None:
                        new_env = dict(env)
                    new_env[arg.name] = val
                elif bound != val:
                    return None
            elif arg != val:
                return None
        return new_env if new_env is not None else dict(env)

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _run_aggregate(self, agg: AggregateRule) -> None:
        groups: Dict[Row, Set[Row]] = {}
        positive = [l for l in agg.body if isinstance(l, Atom)]
        all_vars: List[str] = []
        seen: Set[str] = set()
        for atom in positive:
            for v in atom.variables():
                if v.name not in seen:
                    seen.add(v.name)
                    all_vars.append(v.name)
        for env in self._evaluate_body(agg.body):
            key = tuple(env[g.name] for g in agg.group_vars)
            witness = tuple(env[name] for name in all_vars)
            groups.setdefault(key, set()).add(witness)
        value_pos = (
            all_vars.index(agg.value_var.name)
            if agg.value_var is not None
            else -1
        )
        for key, witnesses in groups.items():
            if agg.kind == "count":
                value: object = len(witnesses)
            else:
                values = [w[value_pos] for w in witnesses]
                if agg.kind == "sum":
                    value = sum(values)
                elif agg.kind == "min":
                    value = min(values)
                else:
                    value = max(values)
            if self.db.add_fact(agg.head_pred, key + (value,)):
                self._charge()


_MISSING = object()

#: Canonical name; ``Engine`` is kept so the module body stays verbatim.
ReferenceEngine = Engine
