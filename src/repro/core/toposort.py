"""Topological sort with on-line cycle detection and breaking.

Step 4 of the paper's algorithm: order the CRWI digraph's vertices so
every conflict edge ``u -> v`` places ``u`` before ``v``; whenever the
sort discovers a cycle, hand it to a
:class:`~repro.core.policies.CyclePolicy`, evict the chosen vertex (its
copy command will be re-encoded as an add), and carry on.  The output is
a total topological order of the surviving vertices plus the eviction
set.

The sort runs in two stages:

1. **Acyclic peel.**  A forward Kahn pass strips vertices whose
   ancestors contain no cycle (layered indegree-zero waves, ascending
   within each wave), and a mirrored reverse pass strips vertices whose
   descendants contain no cycle (outdegree-zero waves).  On an acyclic
   digraph this *is* the whole sort — an array-native frontier-batched
   peel when the fast paths are on (:mod:`repro.core._kernels`), a
   scalar reference loop with identical wave order otherwise.  Real
   delta scripts put only a few percent of their copies on cycles, so
   the scalar stage that follows touches a small residual core.

2. **Gray-path DFS on the cyclic core.**  The remaining vertices — each
   with a cycle among both its ancestors and its descendants — go
   through the iterative depth-first search producing reverse postorder.
   A back edge to a gray vertex exposes a cycle as the gray-path segment
   from that vertex to the top of the stack:

   * when the policy evicts the top-of-stack vertex (always the case for
     the constant-time policy) the sort simply abandons that vertex — O(1);
   * when it evicts a vertex deeper in the gray path (possible under
     locally-minimum), the stack is unwound to the victim and the popped
     descendants are reset to white for re-exploration — the extra work
     the paper attributes to the locally-minimum policy.

   Reset vertices are queued for retry so none is lost when its
   outer-loop root index has already passed.

The final order is ``forward waves + core reverse postorder + reverse
waves (wave order flipped)``; no edge can point from a later stage into
an earlier one, so the composition is a topological order of the
survivors.  The tests verify both that the final order respects every
surviving edge and that the evicted set is a feedback vertex set; the
fast and scalar peels are pinned bit-identical by
``tests/test_vectorized_oracle.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .. import perf
from ..exceptions import CycleBreakError
from . import _kernels as _k
from .crwi import CRWIDigraph
from .policies import CyclePolicy

_WHITE, _GRAY, _BLACK = 0, 1, 2


@dataclass
class ToposortResult:
    """Outcome of one cycle-breaking topological sort.

    ``order`` lists surviving vertex ids in a topological order of the
    residual digraph; ``evicted`` lists evicted vertex ids in the order
    the policy removed them.  The counters feed the benches: the paper's
    runtime discussion keys on how many cycles were found and how long
    the walked cycles were.  ``peeled`` counts the vertices the acyclic
    peel kept away from the DFS.
    """

    order: List[int] = field(default_factory=list)
    evicted: List[int] = field(default_factory=list)
    cycles_found: int = 0
    total_cycle_length: int = 0
    revisits: int = 0
    peeled: int = 0


def _peel_reference(graph: CRWIDigraph) -> Tuple[List[int], List[int], List[int]]:
    """Scalar acyclic peel; the oracle for :func:`_kernels.toposort_peel`.

    Returns ``(prefix, core, suffix)``: the forward-wave order, the
    cyclic core (ascending), and the suffix order (reverse waves,
    flipped wave-by-wave, ascending within each wave).
    """
    n = graph.vertex_count
    flat, bounds = graph.flat_successors()
    pred_row = graph.pred_row_reader()
    active = [True] * n

    # A degree counter hits zero exactly once, so the candidate buffers
    # cannot collect duplicates and plain lists beat sets here.
    indeg = graph.indegrees()
    prefix: List[int] = []
    frontier = [v for v in range(n) if indeg[v] == 0]
    while frontier:
        prefix.extend(frontier)
        for u in frontier:
            active[u] = False
        cand: List[int] = []
        for u in frontier:
            for v in flat[bounds[u]:bounds[u + 1]]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    cand.append(v)
        frontier = sorted(v for v in cand if active[v])

    outdeg = graph.outdegrees()
    waves: List[List[int]] = []
    frontier = [v for v in range(n) if active[v] and outdeg[v] == 0]
    while frontier:
        waves.append(frontier)
        for u in frontier:
            active[u] = False
        cand = []
        for u in frontier:
            for p in pred_row(u):
                outdeg[p] -= 1
                if outdeg[p] == 0:
                    cand.append(p)
        frontier = sorted(p for p in cand if active[p])

    suffix = [v for wave in reversed(waves) for v in wave]
    core = [v for v in range(n) if active[v]]
    return prefix, core, suffix


def _peel(graph: CRWIDigraph) -> Tuple[List[int], List[int], List[int], bool]:
    """Dispatch the acyclic peel to the array kernel or the scalar oracle.

    The kernel only pays off on graphs big enough to peel in wide waves
    (``ARRAY_PEEL_MIN``), and above the gate it is adaptive: the flat
    row readers let it hand narrow-wave fringes back to the scalar
    loop (``NARROW_WAVE``).  Both spellings produce the same waves, so
    the dispatch never changes the order.
    """
    if _k.fast_enabled() and graph.vertex_count >= _k.ARRAY_PEEL_MIN:
        csr = graph.csr()
        pred = graph.pred_csr()
        if csr is not None and pred is not None:
            flat, bounds = graph.flat_successors()
            # The reverse fallback touches only its tail waves' rows, so
            # slicing the CSR transpose per row beats a bulk ``tolist``.
            prefix, core, suffix = _k.toposort_peel(
                csr[0], csr[1], pred[0], pred[1],
                lambda u: flat[bounds[u]:bounds[u + 1]],
                lambda u: pred[1][pred[0][u]:pred[0][u + 1]])
            return prefix.tolist(), core.tolist(), suffix.tolist(), True
    prefix, core, suffix = _peel_reference(graph)
    return prefix, core, suffix, False


def cycle_breaking_toposort(
    graph: CRWIDigraph,
    policy: CyclePolicy,
    costs: Optional[Sequence[int]] = None,
) -> ToposortResult:
    """Topologically sort ``graph``, evicting vertices to break cycles.

    ``costs`` (per-vertex eviction costs) defaults to
    :meth:`CRWIDigraph.costs`; it is consulted only by cost-aware
    policies.
    """
    started = time.perf_counter()
    n = graph.vertex_count
    if costs is None:
        costs = graph.costs()
    result = ToposortResult()

    prefix, core, suffix, used_fast = _peel(graph)
    result.peeled = len(prefix) + len(suffix)
    if not core:
        result.order = prefix + suffix
        _record_sort(started, result, used_fast)
        return result

    # Gray-path DFS over the cyclic core only; everything peeled is
    # finished (black) from the start and never re-entered.
    color = [_BLACK] * n
    for v in core:
        color[v] = _WHITE
    is_evicted = [False] * n
    pos_in_path = [-1] * n
    path: List[int] = []
    postorder: List[int] = []
    retry: List[int] = []
    # Bound once: the flat adjacency (two tolist calls on a kernel-built
    # graph, a pure-Python flatten otherwise) replaces per-vertex list
    # lookups in the edge loop with flat-array scans.
    flat, bounds = graph.flat_successors()

    def drive(color_=color, pos_=pos_in_path, path_=path, flat_=flat,
              bounds_=bounds, evicted_=is_evicted, post_=postorder) -> None:
        # One invocation sorts every root: the default arguments alias
        # the shared state once at definition time (locals in the hot
        # loop, not closure cells), and root selection is folded into
        # the traversal machine so no per-root call overhead remains.
        # The current vertex and its absolute scan window into the flat
        # adjacency live in plain locals; ``saved[i]`` holds the resume
        # position of ``path_[i]`` for every non-top path vertex — no
        # per-vertex frame objects.
        saved: List[int] = []
        core_iter = iter(core)
        while True:
            # Pick the next root: every core vertex in ascending order,
            # then the eviction-reset vertices LIFO.
            root = -1
            for r in core_iter:
                if color_[r] == _WHITE and not evicted_[r]:
                    root = r
                    break
            if root < 0:
                while retry:
                    r = retry.pop()
                    if color_[r] == _WHITE and not evicted_[r]:
                        root = r
                        break
                if root < 0:
                    return
            u = root
            color_[u] = _GRAY
            pos_[u] = 0
            path_.append(u)
            edge_pos = bounds_[u]
            end = bounds_[u + 1]
            while True:
                moved = False
                while edge_pos < end:
                    v = flat_[edge_pos]
                    edge_pos += 1
                    if evicted_[v] or color_[v] == _BLACK:
                        continue
                    if color_[v] == _WHITE:
                        saved.append(edge_pos)
                        color_[v] = _GRAY
                        pos_[v] = len(path_)
                        path_.append(v)
                        u = v
                        edge_pos = bounds_[u]
                        end = bounds_[u + 1]
                        moved = True
                        break
                    # Back edge u -> v with v gray: the cycle is the gray
                    # path from v through u.
                    cycle = path_[pos_[v]:]
                    victim = policy.choose(cycle, costs)
                    if not (0 <= victim < n and color_[victim] == _GRAY
                            and pos_[victim] >= pos_[v]):
                        raise CycleBreakError(
                            "policy %r chose vertex %d outside the cycle"
                            % (getattr(policy, "name", policy), victim)
                        )
                    result.cycles_found += 1
                    result.total_cycle_length += len(cycle)
                    evicted_[victim] = True
                    result.evicted.append(victim)
                    # Unwind to the victim; the popped descendants return
                    # to white and are re-explored later.  Only pop counts
                    # matter for ``saved`` — the entries themselves are
                    # stale.
                    w = path_.pop()
                    pos_[w] = -1
                    while w != victim:
                        color_[w] = _WHITE
                        retry.append(w)
                        result.revisits += 1
                        saved.pop()
                        w = path_.pop()
                        pos_[w] = -1
                    if not path_:
                        break
                    u = path_[-1]
                    end = bounds_[u + 1]
                    edge_pos = saved.pop()
                    moved = True
                    break
                if not moved:
                    if path_:
                        # All edges of u examined: u is finished.
                        path_.pop()
                        pos_[u] = -1
                        color_[u] = _BLACK
                        post_.append(u)
                        if not path_:
                            break
                        u = path_[-1]
                        end = bounds_[u + 1]
                        edge_pos = saved.pop()
                    else:
                        # An unwind emptied the path; pick the next root.
                        break

    drive()

    result.order = prefix + list(reversed(postorder)) + suffix
    _record_sort(started, result, used_fast)
    return result


def _record_sort(started: float, result: ToposortResult, used_fast: bool) -> None:
    recorder = perf.active()
    if recorder is not None:
        recorder.merge({
            "toposort.calls": 1,
            "toposort.seconds": time.perf_counter() - started,
            "toposort.peeled": result.peeled,
            "toposort.core": (len(result.order) + len(result.evicted)
                              - result.peeled),
            "toposort.fast": 1 if used_fast else 0,
        })


def plain_toposort(graph: CRWIDigraph, excluding: Sequence[int] = ()) -> List[int]:
    """Topological order of ``graph`` minus ``excluding``; raises on cycles.

    Kahn's algorithm in layered waves (ascending within each
    indegree-zero wave) — the same order from the array kernel and the
    scalar reference.  Used after a whole-graph eviction solver has
    already made the digraph acyclic, and by tests as an independent
    check on the DFS sorter.
    """
    dead = set(excluding)
    n = graph.vertex_count
    order: Optional[List[int]] = None
    if _k.fast_enabled() and n >= _k.ARRAY_PEEL_MIN:
        csr = graph.csr()
        if csr is not None:
            np = _k.np
            dead_mask = np.zeros(n, dtype=bool)
            if dead:
                dead_mask[np.array(sorted(dead), dtype=np.int64)] = True
            waves = _k.layered_toposort(csr[0], csr[1], dead_mask)
            if waves is None:
                raise CycleBreakError(
                    "digraph still contains a cycle after removing %d vertices"
                    % len(dead)
                )
            return waves.tolist()
    # Scalar reference: identical wave order.
    succ = graph.successors
    indeg = [0] * n
    for u in range(n):
        if u in dead:
            continue
        for v in succ[u]:
            if v not in dead:
                indeg[v] += 1
    active = [v not in dead for v in range(n)]
    order = []
    frontier = [v for v in range(n) if active[v] and indeg[v] == 0]
    while frontier:
        order.extend(frontier)
        for u in frontier:
            active[u] = False
        cand = set()
        for u in frontier:
            for v in succ[u]:
                if v in dead:
                    continue
                indeg[v] -= 1
                if indeg[v] == 0:
                    cand.add(v)
        frontier = sorted(v for v in cand if active[v])
    if len(order) != n - len(dead):
        raise CycleBreakError(
            "digraph still contains a cycle after removing %d vertices" % len(dead)
        )
    return order


def locality_toposort(graph: CRWIDigraph, excluding: Sequence[int] = ()) -> List[int]:
    """Topological order minimizing jumps across the version file.

    Kahn's algorithm with a *nearest-neighbor* frontier: at every step
    the available vertex whose id (= write-offset rank) is closest to
    the one just emitted is taken, so the write head moves as little as
    the conflict edges allow.  Plain ascending order is the wrong
    heuristic here — content shifted toward higher offsets forces
    *descending* application within its run, and an ascending frontier
    thrashes between such runs.  On ``bench_flash_wear``'s shifting
    release it takes 164 erase cycles (at most 5 per block) where the
    default dfs order takes 180 (at most 7), and 12–24% fewer on five
    more seeds of that construction; the bench asserts it is never
    worse than dfs there.

    The emission loop is inherently sequential (each pick depends on the
    previous cursor), but the indegree initialization batches through
    the CSR kernels when the fast paths are on — the restricted
    indegrees are plain counts, so both spellings agree exactly.

    Raises on residual cycles; run an eviction stage first.
    """
    from bisect import bisect_left, insort

    dead = set(excluding)
    n = graph.vertex_count
    indegree: Optional[List[int]] = None
    if _k.fast_enabled() and n >= _k.ARRAY_SETUP_MIN:
        csr = graph.csr()
        if csr is not None:
            np = _k.np
            dead_mask = np.zeros(n, dtype=bool)
            if dead:
                dead_mask[np.array(sorted(dead), dtype=np.int64)] = True
            indegree = _k.restricted_indegrees(csr[0], csr[1], dead_mask).tolist()
    if indegree is None:
        indegree = [0] * n
        for u in range(n):
            if u in dead:
                continue
            for v in graph.successors[u]:
                if v not in dead:
                    indegree[v] += 1
    frontier: List[int] = sorted(
        v for v in range(n) if v not in dead and indegree[v] == 0
    )
    order: List[int] = []
    cursor = 0
    while frontier:
        i = bisect_left(frontier, cursor)
        candidates = [c for c in (i - 1, i) if 0 <= c < len(frontier)]
        pick = min(candidates, key=lambda c: abs(frontier[c] - cursor))
        u = frontier.pop(pick)
        order.append(u)
        cursor = u
        for v in graph.successors[u]:
            if v in dead:
                continue
            indegree[v] -= 1
            if indegree[v] == 0:
                insort(frontier, v)
    if len(order) != n - len(dead):
        raise CycleBreakError(
            "digraph still contains a cycle after removing %d vertices" % len(dead)
        )
    return order


def order_respects_edges(graph: CRWIDigraph, result: ToposortResult) -> bool:
    """True when ``result.order`` places u before v for every surviving edge u->v."""
    position = {v: i for i, v in enumerate(result.order)}
    dead = set(result.evicted)
    for u in range(graph.vertex_count):
        if u in dead:
            continue
        for v in graph.successors[u]:
            if v in dead:
                continue
            if position[u] >= position[v]:
                return False
    return True
