"""SCC-partitioned parallel solve mode for the packed bitset solver.

:class:`ParallelPointsToSolver` runs the same analysis as
:class:`~repro.analysis.solver.PointsToSolver` — identical relations,
identical tuple counts, identical budget semantics — but farms the
*edge-propagation closure* out to ``multiprocessing`` workers in
bulk-synchronous (BSP) rounds:

* the **master** keeps the authoritative solver state and runs every
  *consumer* reaction sequentially (field-node minting, virtual/special
  call resolution, throws, reachability, graph growth) — these mutate
  shared structure and stay single-writer by design;
* **workers** own disjoint partitions of the pointer-assignment graph and
  run the pure bitset closure (``new = delta & ~pts; pts |= new`` over
  plain and cast-filtered subset edges) to a *local* fixpoint per round;
* deltas crossing a partition boundary become **frontier masks**, merged
  (and deduplicated, and budget-charged) by the master at the round
  barrier, then redistributed next round.

Partitioning condenses the graph into strongly connected components
(iterative Tarjan) and deals SCCs to workers in topological order as
contiguous, size-balanced blocks: an SCC never straddles workers, so
cyclic flow converges inside one worker's local fixpoint instead of
bouncing across barriers; topological contiguity keeps forward chains
mostly within one block.  Nodes minted after condensation are dealt
round-robin (``node % workers``); the graph is re-condensed when the
node count has grown past ``recondense_growth`` since the last deal.

The initial points-to snapshot ships to workers through
``multiprocessing.shared_memory`` (one packed buffer of little-endian
mask bytes plus an offset table); per-round deltas travel over pipes.
Workers never charge budgets: the master charges every admission exactly
once after deduplication, so ``BudgetExceeded.tuples`` aggregates worker
admissions with *identical* cutoff semantics to a single-process solve —
the derived-tuple total is order-independent, and partial charge sums can
never overshoot it.  Wall-clock budgets are checked at every barrier.

Small frontiers are not worth a barrier: while the worklist holds fewer
than ``min_round_nodes`` nodes the solver simply runs the inherited
sequential loop.  Pass ``min_round_nodes=0`` to force every round through
the parallel machinery (the fuzz oracle and the tests do, so tiny
programs still exercise worker dispatch, shared-memory bootstrap, and
barrier merging).  :meth:`PointsToSolver.extend` is inherited unchanged
and stays sequential: warm extensions are latency-bound, not
throughput-bound.
"""

from __future__ import annotations

import multiprocessing
from collections import deque
from typing import Dict, List, Optional, Tuple

from ..contexts.policies import ContextPolicy
from ..facts.encoder import FactBase
from ..ir.program import Program
from .solver import (
    _NONE,
    BudgetExceeded,
    PointsToSolver,
    RawSolution,
    popcount,
)

__all__ = ["ParallelPointsToSolver", "parallel_solve"]


# ----------------------------------------------------------------------
# Mask packing for the shared-memory bootstrap
# ----------------------------------------------------------------------

def _pack_masks(masks: List[int]) -> Tuple[List[int], bytes]:
    """Pack int masks into (offsets, payload) for a shared buffer.

    ``offsets`` has len(masks) + 1 entries; mask ``i`` spans
    ``payload[offsets[i]:offsets[i + 1]]`` as little-endian bytes.
    """
    offsets = [0]
    chunks = []
    pos = 0
    for m in masks:
        b = m.to_bytes((m.bit_length() + 7) // 8, "little") if m else b""
        pos += len(b)
        offsets.append(pos)
        chunks.append(b)
    return offsets, b"".join(chunks)


def _unpack_masks(offsets: List[int], payload: memoryview) -> List[int]:
    return [
        int.from_bytes(payload[offsets[i]:offsets[i + 1]], "little")
        for i in range(len(offsets) - 1)
    ]


# ----------------------------------------------------------------------
# SCC condensation -> topologically contiguous ownership
# ----------------------------------------------------------------------

def _scc_ownership(
    n_nodes: int,
    out_plain: Dict[int, List[int]],
    out_filtered: Dict[int, List[Tuple[int, int]]],
    workers: int,
) -> List[int]:
    """Deal nodes to workers: SCCs whole, topo order, balanced blocks.

    Iterative Tarjan over the union of plain and filtered edges.  Tarjan
    emits components in reverse topological order; reversing gives
    sources-first, and slicing that sequence into ``workers`` contiguous
    blocks of ~equal node count yields the ownership array.
    """
    index = [0] * n_nodes  # 0 = unvisited; else index + 1
    low = [0] * n_nodes
    on_stack = bytearray(n_nodes)
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 1

    def successors(v: int) -> List[int]:
        out = out_plain.get(v, ())
        fout = out_filtered.get(v)
        if fout:
            return list(out) + [dst for dst, _t in fout]
        return list(out)

    for root in range(n_nodes):
        if index[root]:
            continue
        # explicit DFS stack of (node, iterator position over successors)
        work = [(root, 0, successors(root))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        while work:
            v, i, succ = work[-1]
            if i < len(succ):
                work[-1] = (v, i + 1, succ)
                w = succ[i]
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = 1
                    work.append((w, 0, successors(w)))
                elif on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    pv = work[-1][0]
                    if low[v] < low[pv]:
                        low[pv] = low[v]
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = 0
                        comp.append(w)
                        if w == v:
                            break
                    sccs.append(comp)

    owner = [0] * n_nodes
    if workers <= 1:
        return owner
    target = (n_nodes + workers - 1) // workers
    block = 0
    filled = 0
    for comp in reversed(sccs):  # topological order, sources first
        if filled >= target and block < workers - 1:
            block += 1
            filled = 0
        for v in comp:
            owner[v] = block
        filled += len(comp)
    return owner


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------

class _WorkerState:
    """Mirror of the propagation-relevant solver state in one worker."""

    __slots__ = (
        "pts", "out_plain", "out_filtered", "filters",
        "owner", "workers", "wid",
    )

    def __init__(self, init: dict, pts: List[int]) -> None:
        self.pts = pts
        self.out_plain: Dict[int, List[int]] = init["out_plain"]
        self.out_filtered: Dict[int, List[Tuple[int, int]]] = (
            init["out_filtered"]
        )
        self.filters: Dict[int, int] = init["filters"]
        self.owner: List[int] = init["owner"]
        self.workers: int = init["workers"]
        self.wid: int = init["wid"]


def _worker_round(
    state: _WorkerState, pending: Dict[int, int]
) -> Tuple[Dict[int, int], Dict[int, int]]:
    """One BSP round: closure over owned nodes, frontier for the rest.

    The master-broadcast ``pending`` is walked once with an owned-dst
    filter (every worker sees the same broadcast, so each destination is
    admitted by exactly one worker); locally admitted deltas then close
    over the owned subgraph, spilling cross-partition flow into the
    frontier, deduplicated against the (possibly one-round-stale, which
    only over-approximates) local mirror.
    """
    pts = state.pts
    out_plain = state.out_plain
    out_filtered = state.out_filtered
    filters = state.filters
    owner = state.owner
    n_owner = len(owner)
    workers = state.workers
    me = state.wid

    admitted: Dict[int, int] = {}
    frontier: Dict[int, int] = {}
    local: Dict[int, int] = {}
    wl = deque()
    push = wl.append

    def admit(dst: int, new: int) -> None:
        pts[dst] |= new
        admitted[dst] = admitted.get(dst, 0) | new
        p = local.get(dst)
        if p is None:
            local[dst] = new
            push(dst)
        else:
            local[dst] = p | new

    for src, delta in pending.items():
        out = out_plain.get(src)
        if out:
            for dst in out:
                o = owner[dst] if dst < n_owner else dst % workers
                if o == me:
                    new = delta & ~pts[dst]
                    if new:
                        admit(dst, new)
        fout = out_filtered.get(src)
        if fout:
            for dst, type_i in fout:
                o = owner[dst] if dst < n_owner else dst % workers
                if o == me:
                    new = delta & filters.get(type_i, 0) & ~pts[dst]
                    if new:
                        admit(dst, new)

    while wl:
        src = wl.popleft()
        delta = local.pop(src, 0)
        if not delta:
            continue
        out = out_plain.get(src)
        if out:
            for dst in out:
                o = owner[dst] if dst < n_owner else dst % workers
                new = delta & ~pts[dst]
                if new:
                    if o == me:
                        admit(dst, new)
                    else:
                        frontier[dst] = frontier.get(dst, 0) | new
        fout = out_filtered.get(src)
        if fout:
            for dst, type_i in fout:
                o = owner[dst] if dst < n_owner else dst % workers
                new = delta & filters.get(type_i, 0) & ~pts[dst]
                if new:
                    if o == me:
                        admit(dst, new)
                    else:
                        frontier[dst] = frontier.get(dst, 0) | new

    return admitted, frontier


def _worker_main(conn, shm_name: str) -> None:
    """Worker process entry point: bootstrap from shared memory, loop."""
    from multiprocessing import shared_memory

    try:
        init = conn.recv()
        shm = shared_memory.SharedMemory(name=shm_name)
        try:
            pts = _unpack_masks(init["offsets"], shm.buf)
        finally:
            shm.close()
        state = _WorkerState(init, pts)
        conn.send(("ready", state.wid))
        while True:
            msg = conn.recv()
            tag = msg[0]
            if tag == "stop":
                break
            # ("round", pts_updates, n_nodes, new_plain, new_filtered,
            #  filter_updates, owner_update, pending)
            (_, pts_updates, n_nodes, new_plain, new_filtered,
             filter_updates, owner_update, pending) = msg
            pts = state.pts
            if n_nodes > len(pts):
                pts.extend([0] * (n_nodes - len(pts)))
            for node, mask in pts_updates.items():
                pts[node] |= mask
            out_plain = state.out_plain
            for src, dst in new_plain:
                out = out_plain.get(src)
                if out is None:
                    out_plain[src] = [dst]
                else:
                    out.append(dst)
            out_filtered = state.out_filtered
            for src, dst, type_i in new_filtered:
                fout = out_filtered.get(src)
                if fout is None:
                    out_filtered[src] = [(dst, type_i)]
                else:
                    fout.append((dst, type_i))
            if filter_updates:
                state.filters.update(filter_updates)
            if owner_update is not None:
                state.owner = owner_update
            conn.send(("result",) + _worker_round(state, pending))
    except (EOFError, KeyboardInterrupt):  # master died / interrupted
        pass
    except Exception as exc:  # surface worker crashes at the barrier
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except (OSError, BrokenPipeError):
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Master
# ----------------------------------------------------------------------

class _WorkerPool:
    """Lifecycle + per-round sync bookkeeping for the worker processes."""

    def __init__(self, workers: int) -> None:
        self.workers = workers
        self.conns: List = []
        self.procs: List = []
        self.started = False
        self.owner: List[int] = []
        self.sent_filters: Dict[int, int] = {}
        self.sent_nodes = 0

    def start(self, solver: "ParallelPointsToSolver") -> None:
        from multiprocessing import shared_memory

        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # Materialize every filter a shipped filtered edge references, so
        # workers never see an edge whose filter mask is missing.
        for fout in solver._out_filtered.values():
            for _dst, type_i in fout:
                solver._allowed_pairs(type_i)
        n_nodes = len(solver._pts)
        self.owner = _scc_ownership(
            n_nodes, solver._out_plain, solver._out_filtered, self.workers
        )
        self.sent_nodes = n_nodes
        self.sent_filters = dict(solver._filter_pairs)
        offsets, payload = _pack_masks(solver._pts)
        shm = shared_memory.SharedMemory(
            create=True, size=max(1, len(payload))
        )
        try:
            shm.buf[: len(payload)] = payload
            for wid in range(self.workers):
                parent, child = ctx.Pipe()
                proc = ctx.Process(
                    target=_worker_main,
                    args=(child, shm.name),
                    daemon=True,
                )
                proc.start()
                child.close()
                parent.send(
                    {
                        "offsets": offsets,
                        "out_plain": solver._out_plain,
                        "out_filtered": solver._out_filtered,
                        "filters": dict(solver._filter_pairs),
                        "owner": self.owner,
                        "workers": self.workers,
                        "wid": wid,
                    }
                )
                self.conns.append(parent)
                self.procs.append(proc)
            for conn in self.conns:
                msg = conn.recv()
                if msg[0] != "ready":
                    raise RuntimeError(f"worker bootstrap failed: {msg}")
        finally:
            shm.close()
            shm.unlink()
        self.started = True

    def round(
        self,
        solver: "ParallelPointsToSolver",
        pending: Dict[int, int],
        recondense_growth: Optional[float],
    ) -> List[Tuple[Dict[int, int], Dict[int, int]]]:
        # Drain the admission and edge logs into a sync delta.
        pts_updates: Dict[int, int] = {}
        for node, mask in solver._added_log:
            pts_updates[node] = pts_updates.get(node, 0) | mask
        solver._added_log = []
        new_plain: List[Tuple[int, int]] = []
        new_filtered: List[Tuple[int, int, int]] = []
        for src, dst, type_i in solver._edge_log:
            if type_i == _NONE:
                new_plain.append((src, dst))
            else:
                solver._allowed_pairs(type_i)
                new_filtered.append((src, dst, type_i))
        solver._edge_log = []
        filter_updates = {
            t: mask
            for t, mask in solver._filter_pairs.items()
            if self.sent_filters.get(t) != mask
        }
        self.sent_filters.update(filter_updates)
        n_nodes = len(solver._pts)
        owner_update: Optional[List[int]] = None
        if (
            recondense_growth is not None
            and n_nodes >= self.sent_nodes * recondense_growth
        ):
            self.owner = _scc_ownership(
                n_nodes, solver._out_plain, solver._out_filtered, self.workers
            )
            self.sent_nodes = n_nodes
            owner_update = self.owner
        msg = (
            "round", pts_updates, n_nodes, new_plain, new_filtered,
            filter_updates, owner_update, pending,
        )
        for conn in self.conns:
            conn.send(msg)
        results = []
        for conn in self.conns:
            reply = conn.recv()
            if reply[0] == "error":
                raise RuntimeError(f"parallel solver worker failed: {reply[1]}")
            results.append((reply[1], reply[2]))
        return results

    def shutdown(self) -> None:
        for conn in self.conns:
            try:
                conn.send(("stop",))
            except (OSError, BrokenPipeError):
                pass
        for proc in self.procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
                proc.join(timeout=5)
        for conn in self.conns:
            conn.close()
        self.conns = []
        self.procs = []
        self.started = False


class ParallelPointsToSolver(PointsToSolver):
    """Packed bitset solver with an SCC-partitioned parallel main loop.

    Drop-in for :class:`PointsToSolver`: same constructor arguments plus

    ``workers``
        number of propagation worker processes (>= 1);
    ``min_round_nodes``
        worklist size below which a round runs on the inherited
        sequential path instead of paying a barrier (0 forces every
        round parallel — used by tests and the fuzz oracle);
    ``recondense_growth``
        re-run SCC condensation when the node count grows past this
        factor since the last deal (``None`` disables re-dealing).

    ``solve()`` is overridden; ``extend()`` is inherited and sequential.
    """

    def __init__(
        self,
        program: Program,
        policy: ContextPolicy,
        facts: Optional[FactBase] = None,
        max_tuples: Optional[int] = None,
        max_seconds: Optional[float] = None,
        tracer=None,
        workers: int = 2,
        min_round_nodes: int = 512,
        recondense_growth: Optional[float] = 1.5,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        super().__init__(
            program,
            policy,
            facts=facts,
            max_tuples=max_tuples,
            max_seconds=max_seconds,
            tracer=tracer,
        )
        self.workers = workers
        self.min_round_nodes = min_round_nodes
        self.recondense_growth = recondense_growth
        self.rounds = 0  # BSP rounds executed by the last solve()

    def solve(self) -> RawSolution:
        """Run to fixpoint (or budget) and return the raw solution."""
        self._stopwatch.restart()
        tracer = self._tracer
        ctx0 = self.ctxs.empty_id
        if tracer is None:
            for ep in self.program.entry_points:
                self._make_reachable(self.meths.intern(ep), ctx0)
            self._solve_rounds()
            return self._snapshot()
        with tracer.span(
            "solver.seed", entry_points=len(self.program.entry_points)
        ):
            for ep in self.program.entry_points:
                self._make_reachable(self.meths.intern(ep), ctx0)
        with tracer.span("solver.propagate"):
            self._solve_rounds()
            tracer.annotate(
                tuples=self._tuple_count,
                rounds=self.rounds,
                workers=self.workers,
                nodes=len(self._pts),
                reachable=len(self._reachable),
                compiled_methods=len(self._bodies),
                call_edges=len(self._call_graph),
            )
        with tracer.span("solver.snapshot"):
            return self._snapshot()

    # ------------------------------------------------------------------
    def _solve_rounds(self) -> None:
        pool = _WorkerPool(self.workers)
        self.rounds = 0
        # Masks admitted by workers: edges already walked there, only the
        # master-side consumer reactions remain.
        consumers_only: Dict[int, int] = {}
        try:
            while self._worklist or consumers_only:
                if (
                    not consumers_only
                    and len(self._worklist) < self.min_round_nodes
                ):
                    # Frontier too small to amortize a barrier: finish
                    # (or bridge) on the sequential path.
                    self._propagate()
                    continue

                # Phase A (sequential): fire consumers for every pending
                # delta, accumulating the edge-propagation work for the
                # workers.  Consumer reactions enqueue further pending
                # (graph replay via _add_pts), so drain to a fixpoint.
                to_workers: Dict[int, int] = {}
                wl = self._worklist
                pend = self._pending
                fire = self._fire_consumers
                while consumers_only or wl:
                    if consumers_only:
                        node, mask = consumers_only.popitem()
                        fire(node, mask)
                        continue
                    node = wl.popleft()
                    delta = pend.pop(node, 0)
                    if not delta:
                        continue
                    to_workers[node] = to_workers.get(node, 0) | delta
                    fire(node, delta)

                # Only nodes with out-edges give workers anything to do.
                out_plain = self._out_plain
                out_filtered = self._out_filtered
                to_workers = {
                    n: m
                    for n, m in to_workers.items()
                    if n in out_plain or n in out_filtered
                }
                if not to_workers:
                    continue

                # Phase B (barrier): sync structure, ship the frontier.
                if not pool.started:
                    pool.start(self)
                    # From here on every admission and edge is logged for
                    # the per-round worker sync.
                    self._added_log = []
                    self._edge_log = []
                results = pool.round(
                    self, to_workers, self.recondense_growth
                )
                self.rounds += 1

                # Phase C (sequential): merge worker results, dedup, and
                # charge the budget exactly once per derived tuple.
                pts = self._pts
                log = self._added_log
                for admitted, _frontier in results:
                    for node, mask in admitted.items():
                        new = mask & ~pts[node]
                        if new:
                            pts[node] = pts[node] | new
                            log.append((node, new))
                            self._charge(popcount(new))
                            consumers_only[node] = (
                                consumers_only.get(node, 0) | new
                            )
                for _admitted, frontier in results:
                    for node, mask in frontier.items():
                        new = mask & ~pts[node]
                        if new:
                            pts[node] = pts[node] | new
                            log.append((node, new))
                            self._charge(popcount(new))
                            p = pend.get(node)
                            if p is None:
                                pend[node] = new
                                wl.append(node)
                            else:
                                pend[node] = p | new
                if (
                    self.max_seconds is not None
                    and self._stopwatch.elapsed() > self.max_seconds
                ):
                    raise BudgetExceeded(
                        "time budget exceeded",
                        self._tuple_count,
                        self._stopwatch.elapsed(),
                    )
        finally:
            self._added_log = None
            self._edge_log = None
            if pool.started:
                pool.shutdown()


def parallel_solve(
    program: Program,
    policy: ContextPolicy,
    facts: Optional[FactBase] = None,
    max_tuples: Optional[int] = None,
    max_seconds: Optional[float] = None,
    tracer=None,
    workers: int = 2,
    min_round_nodes: int = 512,
) -> RawSolution:
    """Convenience one-call entry point for :class:`ParallelPointsToSolver`."""
    return ParallelPointsToSolver(
        program,
        policy,
        facts=facts,
        max_tuples=max_tuples,
        max_seconds=max_seconds,
        tracer=tracer,
        workers=workers,
        min_round_nodes=min_round_nodes,
    ).solve()
