"""Array kernels for the convert plane (CRWI construction and toposort).

Mirrors ``repro.delta._kernels``: every kernel here is a vectorized
twin of a scalar loop that stays in the library as the ``_reference``
oracle, and `tests/test_vectorized_oracle.py` pins the two bit-identical.
The kernels operate on flat int64 arrays:

* the CRWI adjacency is CSR (``indptr``/``indices``) — per-vertex
  successor runs in one contiguous ``indices`` buffer, the
  representation Kammer & Sajenko's in-place graph traversals assume;
* edge construction exploits the paper's section-4.3 observation that
  the write intervals are disjoint and sorted, so each copy's read
  interval overlaps a *contiguous run* of write intervals found by two
  ``searchsorted`` passes over the whole command set at once;
* the toposort peels (forward indegree / reverse outdegree) advance in
  whole frontier waves via ``bincount`` decrements instead of
  one-vertex-at-a-time queue pops.

Everything degrades gracefully: when numpy is missing, ``HAVE_NUMPY``
is False and the callers fall back to their scalar references.  The
fast/scalar switch is shared with the differencing plane
(``repro.delta.rolling.use_fast_paths`` / ``REPRO_NO_FAST``) so one pin
freezes the whole library to its oracles.
"""

from __future__ import annotations

from typing import Optional, Tuple

try:  # pragma: no cover - exercised implicitly by every import
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False


def fast_enabled() -> bool:
    """True when numpy is present and the library-wide fast-path switch is on.

    The switch lives in ``repro.delta.rolling`` (set via
    ``use_fast_paths`` or the ``REPRO_NO_FAST`` environment pin); the
    import is deferred because ``repro.delta`` imports ``repro.core`` at
    package load.
    """
    if not HAVE_NUMPY:
        return False
    from ..delta.rolling import fast_paths_enabled

    return fast_paths_enabled()


# --------------------------------------------------------------------------
# CRWI edge construction


def crwi_edges(srcs: "np.ndarray", dsts: "np.ndarray", lens: "np.ndarray",
               ) -> Tuple["np.ndarray", "np.ndarray"]:
    """CSR successor adjacency for copies sorted by write offset.

    ``dsts`` must be ascending with disjoint write intervals
    ``[dst, dst+len-1]`` (the caller validates).  Edge ``i -> j`` exists
    when ``i``'s read interval ``[src, src+len-1]`` meets ``j``'s write
    interval; because the write intervals are disjoint and sorted, the
    ``j`` for a given ``i`` form a contiguous run ``[lo_i, hi_i)``
    located with two ``searchsorted`` passes.  Self-edges are masked out
    during the ragged expansion.  Row order is ascending ``j``, matching
    the scalar ``IntervalIndex.overlapping`` append order.
    """
    n = int(srcs.shape[0])
    starts = dsts
    stops = dsts + lens - 1
    read_start = srcs
    read_stop = srcs + lens - 1
    lo = np.searchsorted(starts, read_start, side="right") - 1
    # The run starts one later when the interval at lo ends before the
    # read begins (or lo underflowed).
    bump = (lo < 0) | (stops[np.maximum(lo, 0)] < read_start)
    lo = lo + bump
    hi = np.searchsorted(starts, read_stop, side="right")
    counts = np.maximum(hi - lo, 0)
    rows = np.arange(n, dtype=np.int64)
    has_self = (lo <= rows) & (rows < hi) & (counts > 0)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts - has_self, out=indptr[1:])
    total = int(counts.sum())
    if total == 0:
        return indptr, np.empty(0, dtype=np.int64)
    rep_rows = np.repeat(rows, counts)
    run_base = np.cumsum(counts) - counts
    flat = (np.arange(total, dtype=np.int64)
            - np.repeat(run_base, counts)
            + np.repeat(lo, counts))
    indices = flat[flat != rep_rows]
    return indptr, indices


def csr_transpose(indptr: "np.ndarray", indices: "np.ndarray", n: int,
                  ) -> Tuple["np.ndarray", "np.ndarray"]:
    """Predecessor CSR from a successor CSR.

    The stable argsort keeps each predecessor row in ascending source
    order — exactly the order the scalar builder appends them in.
    """
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=pred_indptr[1:])
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    pred_indices = rows[np.argsort(indices, kind="stable")]
    return pred_indptr, pred_indices


def rows_from_csr(indptr: "np.ndarray", indices: "np.ndarray") -> list:
    """Materialize CSR rows back into canonical python adjacency lists."""
    flat = indices.tolist()
    bounds = indptr.tolist()
    return [flat[bounds[i]:bounds[i + 1]] for i in range(len(bounds) - 1)]


# --------------------------------------------------------------------------
# Eviction pricing

# varint_size(v) = 1 + (number of thresholds 128^k <= v); int64 values
# never need more than 9 bytes, so k runs 1..8.
_VARINT_THRESHOLDS: Optional["np.ndarray"] = None


def varint_sizes(values: "np.ndarray") -> "np.ndarray":
    """Encoded LEB128 sizes for an array of non-negative offsets."""
    global _VARINT_THRESHOLDS
    if _VARINT_THRESHOLDS is None:
        _VARINT_THRESHOLDS = np.array(
            [1 << (7 * k) for k in range(1, 9)], dtype=np.int64)
    return 1 + np.searchsorted(_VARINT_THRESHOLDS, values, side="right")


def eviction_costs(lens: "np.ndarray", srcs: "np.ndarray",
                   fixed_width: Optional[int]) -> "np.ndarray":
    """Batch ``max(1, length - |f|)`` pricing (section 5 cost model).

    ``fixed_width=None`` selects varint pricing of the source offsets.
    """
    widths = varint_sizes(srcs) if fixed_width is None else fixed_width
    return np.maximum(lens - widths, 1)


# --------------------------------------------------------------------------
# Toposort peels

#: Minimum vertex count before the wave peels dispatch to numpy.  Each
#: wave costs ~10 kernel launches regardless of width, so tiny graphs
#: are pure overhead; above the gate the peel is adaptive (see
#: ``NARROW_WAVE``), so the worst case is one wasted setup pass.
#: Mirrors the `_FLATTEN_AFTER` hybrid in ``repro.delta._kernels``.
ARRAY_PEEL_MIN = 4096

#: Frontier width below which a peel wave is cheaper in the scalar
#: loop than as a batch of kernel launches.  Shift-driven delta graphs
#: peel in long narrow chains (wave width a handful), where the numpy
#: wave loop loses by integer factors; Figure 3-family graphs peel in
#: one wave proportional to the input, where it wins.  The peels start
#: vectorized and hand the remaining fringe to the scalar loop the
#: first time a wave comes in under this width — the wave sequence is
#: identical on both sides of the switch, so the hybrid stays
#: bit-compatible with the pure-scalar oracle.
NARROW_WAVE = 64

#: Minimum vertex count for one-shot array setup passes (restricted
#: indegree counting, subgraph masking) — a handful of kernel launches
#: with no wave loop, so they amortize much earlier than the peels.
ARRAY_SETUP_MIN = 512


def _gather(indptr: "np.ndarray", indices: "np.ndarray",
            rows: "np.ndarray") -> "np.ndarray":
    """Concatenate the CSR rows of ``rows`` (ragged multi-row gather)."""
    counts = indptr[rows + 1] - indptr[rows]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    run_base = np.cumsum(counts) - counts
    rel = np.arange(total, dtype=np.int64) - np.repeat(run_base, counts)
    return indices[np.repeat(indptr[rows], counts) + rel]


def _next_wave(degree: "np.ndarray", active: "np.ndarray",
               touched: "np.ndarray") -> "np.ndarray":
    """Ascending active vertices of ``touched`` whose degree just hit zero.

    ``touched`` may repeat a vertex (several wave members share a
    neighbor); a counter reaches zero exactly once per peel, so the
    duplicates are all within this call and one sorted adjacent-dedup
    pass restores the reference's set semantics.  Kept to a handful of
    cheap launches — this runs once per wave, and waves can number in
    the thousands on chain-shaped graphs.
    """
    wave = touched[(degree[touched] == 0) & active[touched]]
    if wave.size > 1:
        wave = np.sort(wave)
        keep = np.empty(wave.shape[0], dtype=bool)
        keep[0] = True
        np.not_equal(wave[1:], wave[:-1], out=keep[1:])
        wave = wave[keep]
    return wave


def _finish_peel_scalar(degree: "np.ndarray", active: "np.ndarray",
                        frontier: "np.ndarray", row) -> Tuple[list, "np.ndarray"]:
    """Finish one peel direction with the scalar wave loop.

    Takes over mid-peel when the frontier narrows: ``degree`` is the
    live indegree (forward) or outdegree (reverse) array, ``row`` maps a
    vertex to the neighbor list its removal decrements.  Returns the
    remaining waves and the updated active mask.  A degree counter hits
    zero exactly once, so the candidate buffers cannot collect
    duplicates; sorting them reproduces the kernel's ascending waves.
    """
    deg = degree.tolist()
    act = active.tolist()
    wave = frontier.tolist()
    waves = []
    while wave:
        waves.append(wave)
        for u in wave:
            act[u] = False
        cand: list = []
        for u in wave:
            for v in row(u):
                deg[v] -= 1
                if deg[v] == 0:
                    cand.append(v)
        wave = sorted(v for v in cand if act[v])
    return waves, np.array(act, dtype=bool)


def toposort_peel(indptr: "np.ndarray", indices: "np.ndarray",
                  pred_indptr: "np.ndarray", pred_indices: "np.ndarray",
                  succ_row=None, pred_row=None,
                  ) -> Tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Peel the acyclic fringe off a digraph in frontier waves.

    Returns ``(prefix, core, suffix)``:

    * ``prefix`` — vertices with no cycle among their ancestors, in
      layered Kahn order (ascending within each indegree-zero wave);
    * ``core`` — the remaining cyclic core, ascending (the scalar
      gray-path DFS takes over here);
    * ``suffix`` — vertices with no cycle among their descendants,
      ordered so every edge into them is satisfied when the suffix is
      appended after the core (reverse outdegree peel, waves reversed).

    On an acyclic graph ``core`` and ``suffix`` are empty and ``prefix``
    is a complete layered topological order.

    ``succ_row`` / ``pred_row`` (vertex -> neighbor list callables)
    enable the adaptive narrow-wave fallback: each peel direction runs
    vectorized while its waves are at least ``NARROW_WAVE`` wide and
    hands the rest to the scalar loop the first time one is not, so
    chain-shaped fringes never pay per-wave kernel-launch overhead.
    Without the callables the peel stays pure numpy.
    """
    n = int(indptr.shape[0]) - 1
    empty = np.empty(0, dtype=np.int64)
    active = np.ones(n, dtype=bool)

    indeg = np.diff(pred_indptr).copy()
    prefix_waves = []
    frontier = np.flatnonzero(indeg == 0)
    while frontier.size:
        if succ_row is not None and frontier.size < NARROW_WAVE:
            tail, active = _finish_peel_scalar(indeg, active, frontier,
                                               succ_row)
            prefix_waves.extend(
                np.array(w, dtype=np.int64) for w in tail)
            break
        prefix_waves.append(frontier)
        active[frontier] = False
        succs = _gather(indptr, indices, frontier)
        if not succs.size:
            break
        np.subtract.at(indeg, succs, 1)
        frontier = _next_wave(indeg, active, succs)

    outdeg = np.diff(indptr).copy()
    suffix_waves = []
    frontier = np.flatnonzero(active & (outdeg == 0))
    while frontier.size:
        if pred_row is not None and frontier.size < NARROW_WAVE:
            tail, active = _finish_peel_scalar(outdeg, active, frontier,
                                               pred_row)
            suffix_waves.extend(
                np.array(w, dtype=np.int64) for w in tail)
            break
        suffix_waves.append(frontier)
        active[frontier] = False
        preds = _gather(pred_indptr, pred_indices, frontier)
        if not preds.size:
            break
        np.subtract.at(outdeg, preds, 1)
        frontier = _next_wave(outdeg, active, preds)

    prefix = np.concatenate(prefix_waves) if prefix_waves else empty
    suffix = (np.concatenate(suffix_waves[::-1]) if suffix_waves else empty)
    return prefix, np.flatnonzero(active), suffix


def layered_toposort(indptr: "np.ndarray", indices: "np.ndarray",
                     dead: "np.ndarray") -> Optional["np.ndarray"]:
    """Layered Kahn order of the live subgraph; None if a cycle remains.

    ``dead`` is a bool mask of excluded vertices.  Waves are emitted in
    ascending order, matching the scalar reference peel.
    """
    n = int(dead.shape[0])
    live = ~dead
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep_edge = live[rows] & live[indices]
    indeg = np.bincount(indices[keep_edge], minlength=n)
    active = live.copy()
    waves = []
    emitted = 0
    frontier = np.flatnonzero(live & (indeg == 0))
    while frontier.size:
        waves.append(frontier)
        emitted += int(frontier.size)
        active[frontier] = False
        succs = _gather(indptr, indices, frontier)
        succs = succs[live[succs]]
        if not succs.size:
            break
        np.subtract.at(indeg, succs, 1)
        frontier = _next_wave(indeg, active, succs)
    if emitted != int(live.sum()):
        return None
    return (np.concatenate(waves) if waves else np.empty(0, dtype=np.int64))


def restricted_indegrees(indptr: "np.ndarray", indices: "np.ndarray",
                         dead: "np.ndarray") -> "np.ndarray":
    """Indegrees of the live subgraph (edges with both endpoints live)."""
    n = int(dead.shape[0])
    live = ~dead
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keep_edge = live[rows] & live[indices]
    return np.bincount(indices[keep_edge], minlength=n)
