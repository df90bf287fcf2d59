"""Semi-naive, stratified Datalog evaluation over compiled join plans.

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

Unlike the frozen :mod:`~repro.datalog.reference_engine` — which re-derives
index positions and key parts per literal per candidate row and copies a
dict environment on every binding — this engine **compiles each rule into a
join plan** once and replays it every round:

* each rule (and each semi-naive delta variant, one per positive body atom
  that can carry a delta) becomes a chain of step closures with the index
  positions, key templates, output/check slot assignments, and head
  projections all precomputed;
* variable environments are fixed-width list *registers* indexed by slot
  number — no dicts, and no copying: a step's output slots are never read
  before that step runs, so overwriting on the next candidate row is safe;
* literals are greedily reordered per plan (most bound positions first,
  smaller relation on ties; negations/functions/filters fire as soon as
  their inputs are bound) — the classic bound-ness join-order heuristic;
* delta rows are wrapped in an indexed :class:`Relation` (shared by every
  rule consuming that delta in the round) instead of being linearly
  rescanned per candidate environment;
* relation indexes are created once per (predicate, positions) pair and
  maintained incrementally by ``Relation.add``, so plans reuse them across
  rounds and strata.

Plans are compiled lazily, on first use inside ``run()``, so the join-order
heuristic sees real relation sizes (EDB facts are loaded between ``Engine``
construction and ``run()``).  A ``max_rows`` budget makes runaway programs
fail fast like the solver does; the budget check is O(1) via the database's
maintained row counter.  ``Engine.rounds`` counts the semi-naive delta
rounds executed — tests pin it to catch plans that silently degrade to
naive re-evaluation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..obs import NULL_TRACER, Tracer
from .database import Database, Relation
from .rules import AggregateRule, Rule, RuleError, RuleProgram
from .terms import Atom, FilterAtom, FunAtom, NegAtom, Var

__all__ = ["Engine", "EvaluationBudgetExceeded", "stratify"]

Row = Tuple

#: A linked plan step: ``step(env, delta_relation)``.  Scans call their
#: successor once per matching row; guards call it at most once.
_Step = Callable[[List[object], Optional[Relation]], None]


class EvaluationBudgetExceeded(Exception):
    """The engine derived more rows than ``max_rows`` allows."""


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
        tracer: Tracer = NULL_TRACER,
    ) -> None:
        self.program = program
        self.db = database if database is not None else Database()
        self.max_rows = max_rows
        # Spans wrap strata/rounds/rule compilation only, never the
        # per-row join inner loops.
        self._tracer = tracer
        with tracer.span("datalog.stratify", rules=len(program.rules)):
            self.strata = stratify(program)
        self._check_multihead_strata()
        #: Semi-naive delta rounds executed across all strata (telemetry;
        #: pinned by tests to catch silent naive-restart regressions).
        self.rounds = 0
        # Plan caches: compiled on first use, replayed every round after.
        self._naive_plans: Dict[int, Callable[[Optional[Relation]], None]] = {}
        self._delta_plans: Dict[
            Tuple[int, int], Callable[[Optional[Relation]], None]
        ] = {}
        self._agg_runners: Dict[int, Callable[[], Dict[Row, Set[Row]]]] = {}

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
        tracer = self._tracer
        for level in range(max_level + 1):
            with tracer.span("datalog.stratum", level=level):
                self._run_stratum(level)
                if tracer.enabled:
                    tracer.annotate(
                        rounds=self.rounds, rows=self.db.total_rows()
                    )
        return self.db

    def query(self, pred: str) -> Set[Row]:
        return self.db.rows(pred)

    # ------------------------------------------------------------------
    # Stratum evaluation
    # ------------------------------------------------------------------
    def _run_stratum(self, level: int) -> None:
        rules = [
            (i, r)
            for i, r in enumerate(self.program.rules)
            if self.strata[next(iter(r.head_preds()))] == level
        ]
        stratum_preds = {p for _i, r in rules for p in r.head_preds()}

        # Naive seeding round.
        for i, _rule in rules:
            self._naive_plan(i)(None)

        # Clear any deltas produced by seeding or fact loading, then iterate.
        current: Dict[str, Set[Row]] = {
            p: self.db.take_delta(p) for p in stratum_preds
        }
        # EDB deltas are irrelevant after the naive round: drop them.
        for _i, rule in rules:
            for p in rule.body_preds():
                if p not in stratum_preds:
                    self.db.take_delta(p)

        tracer = self._tracer
        while any(current.values()):
            self.rounds += 1
            with tracer.span("datalog.round", round=self.rounds):
                if tracer.enabled:
                    tracer.annotate(
                        delta_rows=sum(len(r) for r in current.values())
                    )
                # Wrap each delta in an indexed relation, shared by every
                # rule consuming it this round (replaces the linear
                # _matches scan).
                delta_rels: Dict[str, Relation] = {}
                for p, rows in current.items():
                    if rows:
                        rel = Relation(p)
                        rel.rows = rows
                        delta_rels[p] = rel
                for i, rule in rules:
                    for pos, atom in rule.positive_positions():
                        delta = delta_rels.get(atom.pred)
                        if delta is not None and atom.pred in stratum_preds:
                            self._delta_plan(i, pos)(delta)
                current = {p: self.db.take_delta(p) for p in stratum_preds}

        # Aggregates of this stratum run on the completed inputs.
        for agg_idx, agg in enumerate(self.program.aggregates):
            if self.strata[agg.head_pred] == level:
                self._run_aggregate(agg_idx)

    def _charge(self) -> None:
        if self.max_rows is not None and self.db.total_rows() > self.max_rows:
            raise EvaluationBudgetExceeded(
                f"database exceeded {self.max_rows} rows"
            )

    # ------------------------------------------------------------------
    # Plan compilation
    # ------------------------------------------------------------------
    def _naive_plan(self, rule_idx: int) -> Callable[[Optional[Relation]], None]:
        plan = self._naive_plans.get(rule_idx)
        if plan is None:
            plan = self._compile_rule(self.program.rules[rule_idx], None)
            self._naive_plans[rule_idx] = plan
        return plan

    def _delta_plan(
        self, rule_idx: int, delta_pos: int
    ) -> Callable[[Optional[Relation]], None]:
        plan = self._delta_plans.get((rule_idx, delta_pos))
        if plan is None:
            plan = self._compile_rule(self.program.rules[rule_idx], delta_pos)
            self._delta_plans[(rule_idx, delta_pos)] = plan
        return plan

    def _compile_rule(
        self, rule: Rule, delta_pos: Optional[int]
    ) -> Callable[[Optional[Relation]], None]:
        with self._tracer.span(
            "datalog.compile",
            heads=",".join(sorted(rule.head_preds())),
            delta_pos=delta_pos if delta_pos is not None else -1,
        ):
            steps, slots = self._compile_body(rule.body, delta_pos)
            emit = self._make_rule_emit(rule, slots)
            runner = self._link(steps, emit)
        nslots = len(slots)

        def plan(delta: Optional[Relation]) -> None:
            runner([None] * nslots, delta)

        return plan

    def _choose_order(
        self, body: Tuple, delta_pos: Optional[int]
    ) -> List[int]:
        """Greedy join order: the delta atom leads its plan; guards fire as
        soon as their inputs are bound; among positive atoms, most bound
        positions wins, smaller relation breaks ties."""
        remaining = set(range(len(body)))
        bound: Set[str] = set()
        order: List[int] = []

        def bind(lit: object) -> None:
            if isinstance(lit, Atom):
                bound.update(v.name for v in lit.variables())
            elif isinstance(lit, FunAtom):
                bound.add(lit.out.name)

        def guard_ready(lit: object) -> bool:
            if isinstance(lit, NegAtom):
                need = {v.name for v in lit.atom.variables()}
            elif isinstance(lit, FunAtom):
                need = {
                    a.name
                    for a in lit.ins
                    if isinstance(a, Var) and not a.is_wildcard
                }
            elif isinstance(lit, FilterAtom):
                need = {
                    a.name
                    for a in lit.args
                    if isinstance(a, Var) and not a.is_wildcard
                }
            else:
                return False
            return need <= bound

        def take(idx: int) -> None:
            remaining.discard(idx)
            order.append(idx)
            bind(body[idx])

        if delta_pos is not None:
            take(delta_pos)
        while remaining:
            progressed = True
            while progressed:
                progressed = False
                for idx in sorted(remaining):
                    if guard_ready(body[idx]):
                        take(idx)
                        progressed = True
            atoms = [i for i in sorted(remaining) if isinstance(body[i], Atom)]
            if not atoms:
                if remaining:
                    stuck = [repr(body[i]) for i in sorted(remaining)]
                    raise RuleError(
                        f"cannot schedule literals {stuck}: inputs never bound"
                    )
                break

            def cost(idx: int) -> Tuple[int, int, int]:
                atom = body[idx]
                n_bound = sum(
                    1
                    for a in atom.args
                    if not isinstance(a, Var)
                    or (not a.is_wildcard and a.name in bound)
                )
                return (-n_bound, self.db.count(atom.pred), idx)

            take(min(atoms, key=cost))
        return order

    def _compile_body(
        self, body: Tuple, delta_pos: Optional[int]
    ) -> Tuple[List[Tuple], Dict[str, int]]:
        """Lower a body to step descriptors with slot-register assignment.

        Key/argument templates are ``(is_slot, value)`` pairs: ``value`` is
        a slot number when ``is_slot`` else a constant.
        """
        order = self._choose_order(body, delta_pos)
        slots: Dict[str, int] = {}
        bound: Set[str] = set()
        steps: List[Tuple] = []

        def tmpl_of(arg: object, context: str) -> Tuple[bool, object]:
            if isinstance(arg, Var):
                if arg.is_wildcard:
                    raise RuleError(f"wildcard is not allowed in {context}")
                return (True, slots[arg.name])
            return (False, arg)

        for idx in order:
            lit = body[idx]
            if isinstance(lit, Atom):
                positions: List[int] = []
                key_tmpl: List[Tuple[bool, object]] = []
                outs: List[Tuple[int, int]] = []
                checks: List[Tuple[int, int]] = []
                seen_here: Dict[str, int] = {}
                for pos, arg in enumerate(lit.args):
                    if isinstance(arg, Var):
                        if arg.is_wildcard:
                            continue
                        if arg.name in bound:
                            positions.append(pos)
                            key_tmpl.append((True, slots[arg.name]))
                        elif arg.name in seen_here:
                            checks.append((pos, seen_here[arg.name]))
                        else:
                            slot = slots.setdefault(arg.name, len(slots))
                            seen_here[arg.name] = slot
                            outs.append((pos, slot))
                    else:
                        positions.append(pos)
                        key_tmpl.append((False, arg))
                bound.update(seen_here)
                steps.append(
                    (
                        "scan",
                        lit.pred,
                        tuple(positions),
                        tuple(key_tmpl),
                        tuple(outs),
                        tuple(checks),
                        idx == delta_pos,
                    )
                )
            elif isinstance(lit, NegAtom):
                tmpl = tuple(
                    tmpl_of(a, f"negated atom {lit!r}") for a in lit.atom.args
                )
                steps.append(("neg", lit.pred, tmpl))
            elif isinstance(lit, FunAtom):
                ins = tuple(
                    tmpl_of(a, f"function atom {lit!r}") for a in lit.ins
                )
                if lit.out.name in bound:
                    steps.append(("funcheck", lit.func, ins, slots[lit.out.name]))
                else:
                    slot = slots.setdefault(lit.out.name, len(slots))
                    bound.add(lit.out.name)
                    steps.append(("funbind", lit.func, ins, slot))
            elif isinstance(lit, FilterAtom):
                args = tuple(
                    tmpl_of(a, f"filter atom {lit!r}") for a in lit.args
                )
                steps.append(("filter", lit.func, args))
            else:  # pragma: no cover - exhaustive over literal kinds
                raise AssertionError(f"unknown literal {lit!r}")
        return steps, slots

    # ------------------------------------------------------------------
    # Plan linking (descriptors -> closure chain)
    # ------------------------------------------------------------------
    def _link(self, steps: List[Tuple], emit: _Step) -> _Step:
        nxt = emit
        for step in reversed(steps):
            kind = step[0]
            if kind == "scan":
                _, pred, positions, key_tmpl, outs, checks, is_delta = step
                nxt = self._make_scan(
                    pred, positions, key_tmpl, outs, checks, is_delta, nxt
                )
            elif kind == "neg":
                _, pred, tmpl = step
                nxt = _make_neg(self.db.relation(pred).rows, tmpl, nxt)
            elif kind == "funbind":
                _, func, ins, slot = step
                nxt = _make_fun_bind(func, ins, slot, nxt)
            elif kind == "funcheck":
                _, func, ins, slot = step
                nxt = _make_fun_check(func, ins, slot, nxt)
            else:
                _, func, args = step
                nxt = _make_filter(func, args, nxt)
        return nxt

    def _make_scan(
        self,
        pred: str,
        positions: Tuple[int, ...],
        key_tmpl: Tuple[Tuple[bool, object], ...],
        outs: Tuple[Tuple[int, int], ...],
        checks: Tuple[Tuple[int, int], ...],
        is_delta: bool,
        nxt: _Step,
    ) -> _Step:
        if is_delta:
            if positions:
                make_key = _make_key_fn(key_tmpl)

                def run(env: List[object], delta: Relation) -> None:
                    rows = delta.index_for(positions).get(make_key(env))
                    if rows:
                        _drive(rows, env, delta, outs, checks, nxt)

            else:

                def run(env: List[object], delta: Relation) -> None:
                    # Delta rows are a frozen snapshot: iterate directly.
                    _drive(delta.rows, env, delta, outs, checks, nxt)

            return run

        rel = self.db.relation(pred)
        if not positions:
            rows_set = rel.rows

            def run(env: List[object], delta: Optional[Relation]) -> None:
                # Copy: the scanned relation may be a head of this very
                # rule and grow while we iterate.
                _drive(list(rows_set), env, delta, outs, checks, nxt)

            return run

        # Index captured once; Relation.add maintains it incrementally, so
        # every round (and every plan sharing the positions) reuses it.
        index = rel.index_for(positions)
        make_key = _make_key_fn(key_tmpl)

        if not checks and len(outs) == 1:
            (p0, s0) = outs[0]

            def run(env: List[object], delta: Optional[Relation]) -> None:
                rows = index.get(make_key(env))
                if rows:
                    for row in rows:
                        env[s0] = row[p0]
                        nxt(env, delta)

            return run

        if not checks and len(outs) == 2:
            (p0, s0), (p1, s1) = outs

            def run(env: List[object], delta: Optional[Relation]) -> None:
                rows = index.get(make_key(env))
                if rows:
                    for row in rows:
                        env[s0] = row[p0]
                        env[s1] = row[p1]
                        nxt(env, delta)

            return run

        if not checks and not outs:

            def run(env: List[object], delta: Optional[Relation]) -> None:
                # Pure membership probe: every matching row binds nothing,
                # so one successor call covers them all.
                if index.get(make_key(env)):
                    nxt(env, delta)

            return run

        def run(env: List[object], delta: Optional[Relation]) -> None:
            rows = index.get(make_key(env))
            if rows:
                _drive(rows, env, delta, outs, checks, nxt)

        return run

    # ------------------------------------------------------------------
    # Head emission
    # ------------------------------------------------------------------
    def _make_rule_emit(self, rule: Rule, slots: Dict[str, int]) -> _Step:
        heads = tuple(
            (
                head.pred,
                tuple(
                    (True, slots[a.name]) if isinstance(a, Var) else (False, a)
                    for a in head.args
                ),
            )
            for head in rule.heads
        )
        add_fact = self.db.add_fact
        charge = self._charge
        unlimited = self.max_rows is None

        if len(heads) == 1:
            pred, tmpl = heads[0]

            def emit(env: List[object], _delta: Optional[Relation]) -> None:
                row = tuple(env[v] if s else v for s, v in tmpl)
                if add_fact(pred, row) and not unlimited:
                    charge()

            return emit

        def emit(env: List[object], _delta: Optional[Relation]) -> None:
            for pred, tmpl in heads:
                row = tuple(env[v] if s else v for s, v in tmpl)
                if add_fact(pred, row) and not unlimited:
                    charge()

        return emit

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _run_aggregate(self, agg_idx: int) -> None:
        agg = self.program.aggregates[agg_idx]
        runner = self._agg_runners.get(agg_idx)
        if runner is None:
            runner = self._compile_aggregate(agg)
            self._agg_runners[agg_idx] = runner
        groups = runner()
        all_vars = _aggregate_witness_vars(agg)
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

    def _compile_aggregate(
        self, agg: AggregateRule
    ) -> Callable[[], Dict[Row, Set[Row]]]:
        steps, slots = self._compile_body(agg.body, None)
        key_slots = tuple(slots[g.name] for g in agg.group_vars)
        wit_slots = tuple(slots[n] for n in _aggregate_witness_vars(agg))
        cell: List[Dict[Row, Set[Row]]] = [{}]

        def emit(env: List[object], _delta: Optional[Relation]) -> None:
            groups = cell[0]
            key = tuple(env[s] for s in key_slots)
            witness = tuple(env[s] for s in wit_slots)
            seen = groups.get(key)
            if seen is None:
                groups[key] = {witness}
            else:
                seen.add(witness)

        runner = self._link(steps, emit)
        nslots = len(slots)

        def collect() -> Dict[Row, Set[Row]]:
            cell[0] = {}
            runner([None] * nslots, None)
            return cell[0]

        return collect


def _aggregate_witness_vars(agg: AggregateRule) -> List[str]:
    """Named variables of the positive body atoms, first-occurrence order —
    an aggregate counts/folds over their distinct bindings."""
    all_vars: List[str] = []
    seen: Set[str] = set()
    for lit in agg.body:
        if isinstance(lit, Atom):
            for v in lit.variables():
                if v.name not in seen:
                    seen.add(v.name)
                    all_vars.append(v.name)
    return all_vars


# ----------------------------------------------------------------------
# Step-closure factories (module level so linked plans stay flat)
# ----------------------------------------------------------------------

def _make_key_fn(
    key_tmpl: Tuple[Tuple[bool, object], ...]
) -> Callable[[List[object]], Tuple]:
    if len(key_tmpl) == 1:
        (is_slot, v0) = key_tmpl[0]
        if is_slot:
            return lambda env: (env[v0],)
        const_key = (v0,)
        return lambda env: const_key
    if all(is_slot for is_slot, _v in key_tmpl):
        key_slots = tuple(v for _s, v in key_tmpl)
        if len(key_slots) == 2:
            k0, k1 = key_slots
            return lambda env: (env[k0], env[k1])
        return lambda env: tuple(env[s] for s in key_slots)
    return lambda env: tuple(env[v] if s else v for s, v in key_tmpl)


def _drive(
    rows,
    env: List[object],
    delta: Optional[Relation],
    outs: Tuple[Tuple[int, int], ...],
    checks: Tuple[Tuple[int, int], ...],
    nxt: _Step,
) -> None:
    """Generic scan inner loop: bind outputs, verify repeated-variable
    checks, recurse.  Outputs are written before checks run so a variable
    repeated within one atom checks against its own row."""
    if checks:
        for row in rows:
            for p, s in outs:
                env[s] = row[p]
            ok = True
            for p, s in checks:
                if row[p] != env[s]:
                    ok = False
                    break
            if ok:
                nxt(env, delta)
    elif outs:
        for row in rows:
            for p, s in outs:
                env[s] = row[p]
            nxt(env, delta)
    elif rows:
        # No bindings at all: one successor call covers every row.
        nxt(env, delta)


def _make_neg(
    rows: Set[Row], tmpl: Tuple[Tuple[bool, object], ...], nxt: _Step
) -> _Step:
    def run(env: List[object], delta: Optional[Relation]) -> None:
        if tuple(env[v] if s else v for s, v in tmpl) not in rows:
            nxt(env, delta)

    return run


def _make_fun_bind(
    func: Callable, ins: Tuple[Tuple[bool, object], ...], slot: int, nxt: _Step
) -> _Step:
    def run(env: List[object], delta: Optional[Relation]) -> None:
        env[slot] = func(*[env[v] if s else v for s, v in ins])
        nxt(env, delta)

    return run


def _make_fun_check(
    func: Callable, ins: Tuple[Tuple[bool, object], ...], slot: int, nxt: _Step
) -> _Step:
    def run(env: List[object], delta: Optional[Relation]) -> None:
        if env[slot] == func(*[env[v] if s else v for s, v in ins]):
            nxt(env, delta)

    return run


def _make_filter(
    func: Callable, args: Tuple[Tuple[bool, object], ...], nxt: _Step
) -> _Step:
    def run(env: List[object], delta: Optional[Relation]) -> None:
        if func(*[env[v] if s else v for s, v in args]):
            nxt(env, delta)

    return run
