"""Conflicting read-write interval (CRWI) digraph construction.

Section 4.2 of the paper encodes the potential write-before-read
conflicts of a delta file in a digraph:

* one vertex per copy command, with copies sorted by increasing write
  offset (``t``);
* a directed edge ``v_i -> v_j`` whenever copy ``c_i`` *reads* from the
  interval copy ``c_j`` *writes* (``[f_i, f_i+l_i-1] ∩ [t_j, t_j+l_j-1]
  ≠ ∅``), meaning ``c_i`` must execute before ``c_j``.

Because the write intervals of a delta script are disjoint, the edge
relation is computed with one binary search per copy command over the
write intervals sorted by start offset — ``O(|C| log |C| + |E|)`` total,
the bound of section 4.3.  The class records enough bookkeeping to check
Lemma 1 (``|E| <= L_V``) empirically.

Two equivalent representations back the digraph:

* canonical python adjacency lists (``successors``/``predecessors``) —
  what tests hand-build and the policies index; and
* a CSR view (``indptr``/``indices`` flat arrays, plus the transpose)
  that the vectorized builder produces directly and the array-native
  toposort peels consume.

Whichever exists is the source of truth; the other is derived lazily.
The fast builder (:mod:`repro.core._kernels`) replaces the per-copy
``IntervalIndex.overlapping`` loop with two whole-set ``searchsorted``
passes and one ragged expansion; ``_build_reference`` keeps the scalar
loop as the oracle, and the two are pinned bit-identical by
``tests/test_vectorized_oracle.py``.

Self-edges are excluded: a copy command does not conflict with itself;
overlapping read/write intervals within one command are handled by
directional copying at apply time (section 4.1).
"""

from __future__ import annotations

import time
from typing import Callable, Iterable, List, Optional, Tuple, Union

from .. import perf
from . import _kernels as _k
from .commands import CopyCommand, DeltaScript
from .intervals import Interval, IntervalIndex

#: The ``|f|`` term of the eviction cost model: either a fixed field
#: width in bytes (the paper's 1998 codewords) or a function mapping an
#: offset value to its encoded size (``repro.delta.varint.varint_size``
#: for the library's default varint wire format, where a near offset
#: costs 1 byte and a far one up to 5).
OffsetPricing = Union[int, Callable[[int], int]]


def field_width(pricing: OffsetPricing, value: int) -> int:
    """Encoded size of an offset/length field ``value`` under ``pricing``."""
    return pricing(value) if callable(pricing) else pricing


def _is_varint_pricing(pricing: OffsetPricing) -> bool:
    """True when ``pricing`` is the library's own ``varint_size``.

    Identity check with a deferred import (``repro.delta`` depends on
    ``repro.core``): only the known function may be batch-priced by the
    vectorized kernel — an arbitrary callable must run per-offset.
    """
    if not callable(pricing):
        return False
    from ..delta.varint import varint_size

    return pricing is varint_size


class CRWIDigraph:
    """The conflict digraph of one delta script's copy commands.

    ``vertices[i]`` is the copy command for vertex ``i``; vertices are
    numbered in increasing write-offset order, the paper's ``c_1 ... c_n``
    convention.  ``successors[i]`` lists the vertices whose write interval
    vertex ``i`` reads from (edges out of ``i``); ``predecessors`` is the
    transposed relation.

    The adjacency lists remain the canonical mutable API (tests build
    graphs by appending to them); a graph constructed by the fast
    builder starts life as CSR arrays and materializes the lists only
    when first read.  Anything that mutates the lists after construction
    must call :meth:`invalidate_caches`, which also discards the CSR
    view so it is rebuilt from the mutated lists.
    """

    def __init__(
        self,
        vertices: Optional[List[CopyCommand]] = None,
        successors: Optional[List[List[int]]] = None,
        predecessors: Optional[List[List[int]]] = None,
    ):
        self.vertices: List[CopyCommand] = vertices if vertices is not None else []
        self._successors: Optional[List[List[int]]] = (
            successors if successors is not None else [])
        self._predecessors: Optional[List[List[int]]] = (
            predecessors if predecessors is not None else [])
        # CSR views (successor orientation + transpose), int64 arrays.
        self._indptr = None
        self._indices = None
        self._pred_indptr = None
        self._pred_indices = None
        # Derived scalar caches.
        self._edge_count: Optional[int] = None
        self._flat_succ: Optional[Tuple[List[int], List[int]]] = None
        self._flat_pred: Optional[Tuple[List[int], List[int]]] = None
        # (srcs, dsts, lens) int64 arrays of the vertex commands, cached
        # for batch pricing; set for free by the fast builder.
        self._cmd_arrays = None

    @classmethod
    def _from_csr(cls, vertices, indptr, indices, pred_indptr, pred_indices,
                  cmd_arrays=None) -> "CRWIDigraph":
        """Internal: wrap kernel-built CSR arrays without list materialization."""
        graph = cls(vertices=vertices)
        graph._successors = None
        graph._predecessors = None
        graph._indptr = indptr
        graph._indices = indices
        graph._pred_indptr = pred_indptr
        graph._pred_indices = pred_indices
        graph._edge_count = int(indptr[-1]) if len(indptr) else 0
        graph._cmd_arrays = cmd_arrays
        return graph

    # -- representation management ------------------------------------

    @property
    def successors(self) -> List[List[int]]:
        """Canonical successor adjacency lists (materialized from CSR lazily)."""
        if self._successors is None:
            self._successors = _k.rows_from_csr(self._indptr, self._indices)
        return self._successors

    @successors.setter
    def successors(self, value: List[List[int]]) -> None:
        self._successors = value
        self.invalidate_caches()

    @property
    def predecessors(self) -> List[List[int]]:
        """Canonical predecessor adjacency lists (materialized from CSR lazily)."""
        if self._predecessors is None:
            self._predecessors = _k.rows_from_csr(
                self._pred_indptr, self._pred_indices)
        return self._predecessors

    @predecessors.setter
    def predecessors(self, value: List[List[int]]) -> None:
        self._predecessors = value
        self.invalidate_caches()

    def invalidate_caches(self) -> None:
        """Drop derived edge caches after a direct adjacency mutation.

        When the adjacency lists have been materialized they are the
        (possibly mutated) source of truth, so the CSR view is dropped
        too and rebuilt on demand; a CSR-only graph cannot have been
        mutated and keeps its arrays.
        """
        self._edge_count = None
        self._flat_succ = None
        self._flat_pred = None
        if self._successors is not None:
            self._indptr = None
            self._indices = None
        if self._predecessors is not None:
            self._pred_indptr = None
            self._pred_indices = None

    def csr(self) -> Optional[Tuple["_k.np.ndarray", "_k.np.ndarray"]]:
        """The successor adjacency as ``(indptr, indices)`` int64 arrays.

        Built from the lists on first use when the graph was constructed
        scalar-side; ``None`` without numpy.
        """
        if self._indptr is None:
            if not _k.HAVE_NUMPY:
                return None
            np = _k.np
            succ = self.successors
            indptr = np.zeros(len(succ) + 1, dtype=np.int64)
            np.cumsum(np.array([len(a) for a in succ], dtype=np.int64),
                      out=indptr[1:])
            flat = [v for adj in succ for v in adj]
            self._indptr = indptr
            self._indices = np.array(flat, dtype=np.int64)
        return self._indptr, self._indices

    def pred_csr(self) -> Optional[Tuple["_k.np.ndarray", "_k.np.ndarray"]]:
        """The predecessor (transposed) adjacency as CSR arrays."""
        if self._pred_indptr is None:
            if not _k.HAVE_NUMPY:
                return None
            np = _k.np
            pred = self.predecessors
            indptr = np.zeros(len(pred) + 1, dtype=np.int64)
            np.cumsum(np.array([len(a) for a in pred], dtype=np.int64),
                      out=indptr[1:])
            flat = [v for adj in pred for v in adj]
            self._pred_indptr = indptr
            self._pred_indices = np.array(flat, dtype=np.int64)
        return self._pred_indptr, self._pred_indices

    def flat_successors(self) -> Tuple[List[int], List[int]]:
        """The successor adjacency as flat ``(targets, bounds)`` lists.

        ``targets[bounds[u]:bounds[u + 1]]`` is ``successors[u]`` — the
        encoding the toposort machinery scans, so a kernel-built graph
        never materializes per-vertex lists just to be sorted.  From CSR
        arrays this is two ``tolist`` calls; a list-built graph flattens
        (pure Python, no numpy needed).  Cached until the next
        :meth:`invalidate_caches`.
        """
        if self._flat_succ is None:
            if self._successors is None:
                self._flat_succ = (self._indices.tolist(),
                                   self._indptr.tolist())
            else:
                bounds = [0] * (len(self._successors) + 1)
                total = 0
                for i, adj in enumerate(self._successors):
                    total += len(adj)
                    bounds[i + 1] = total
                flat = [v for adj in self._successors for v in adj]
                self._flat_succ = (flat, bounds)
        return self._flat_succ

    def outdegrees(self) -> List[int]:
        """Per-vertex successor counts (CSR row widths when lists are lazy)."""
        if self._successors is None:
            return _k.np.diff(self._indptr).tolist()
        return [len(s) for s in self._successors]

    def indegrees(self) -> List[int]:
        """Per-vertex predecessor counts.

        Reads the CSR row bounds when the predecessor lists have not been
        materialized — the acyclic peel needs only the counts, so a
        kernel-built graph should not pay for the lists up front.
        """
        if self._predecessors is None:
            return _k.np.diff(self._pred_indptr).tolist()
        return [len(p) for p in self._predecessors]

    def pred_row_reader(self) -> Callable[[int], List[int]]:
        """A ``vertex -> predecessor row`` accessor.

        On a kernel-built graph this slices rows out of flat ``tolist``
        conversions of the CSR transpose (cached alongside
        :meth:`flat_successors`, dropped by :meth:`invalidate_caches`)
        instead of materializing every per-vertex list.  Rows are
        identical to ``predecessors[u]`` either way.
        """
        if self._predecessors is None:
            if self._flat_pred is None:
                self._flat_pred = (self._pred_indices.tolist(),
                                   self._pred_indptr.tolist())
            flat, bounds = self._flat_pred
            return lambda u: flat[bounds[u]:bounds[u + 1]]
        return self._predecessors.__getitem__

    def _command_arrays(self):
        """Cached ``(srcs, dsts, lens)`` int64 arrays of the vertex commands."""
        if self._cmd_arrays is None and _k.HAVE_NUMPY:
            np = _k.np
            n = len(self.vertices)
            self._cmd_arrays = (
                np.fromiter((c.src for c in self.vertices), np.int64, n),
                np.fromiter((c.dst for c in self.vertices), np.int64, n),
                np.fromiter((c.length for c in self.vertices), np.int64, n),
            )
        return self._cmd_arrays

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CRWIDigraph(vertices=%d, edges=%d)" % (
            self.vertex_count, self.edge_count)

    # -- queries -------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        """Number of vertices (= number of copy commands)."""
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        """Number of directed conflict edges (cached after first use)."""
        if self._edge_count is None:
            if self._successors is None:
                self._edge_count = int(self._indptr[-1])
            else:
                self._edge_count = sum(len(adj) for adj in self._successors)
        return self._edge_count

    def cost(self, vertex: int, offset_encoding_size: OffsetPricing = 4) -> int:
        """Compression lost by evicting ``vertex`` (converting copy to add).

        Replacing copy ``<f, t, l>`` with add ``<t, l> + data`` grows the
        delta by ``l - |f|`` bytes, where ``|f|`` is the encoded size of
        the dropped ``f`` field (section 5).  Under the varint wire
        format ``|f|`` depends on the offset value, so
        ``offset_encoding_size`` accepts a per-offset size function
        (``varint_size``) as well as a fixed width; the fixed default of
        4 keeps the paper's 1998 codeword model.  The cost is clamped at
        1 so every eviction has positive cost, as the optimization
        problem in the paper requires.
        """
        cmd = self.vertices[vertex]
        return max(1, cmd.length - field_width(offset_encoding_size, cmd.src))

    def costs(self, offset_encoding_size: OffsetPricing = 4) -> List[int]:
        """Eviction costs for every vertex, in vertex order.

        Batch-priced through the array kernels when the fast paths are
        on: fixed widths vectorize directly, and the library's own
        ``varint_size`` is recognized by identity and priced with the
        ``searchsorted`` size kernel; any other callable falls back to
        the per-vertex scalar loop.
        """
        if _k.fast_enabled() and self.vertex_count:
            fixed: Optional[int]
            if not callable(offset_encoding_size):
                fixed = offset_encoding_size
            elif _is_varint_pricing(offset_encoding_size):
                fixed = None
            else:
                fixed = -1  # sentinel: unknown callable, no batch path
            if fixed is None or fixed >= 0:
                srcs, _dsts, lens = self._command_arrays()
                return _k.eviction_costs(lens, srcs, fixed).tolist()
        return [self.cost(v, offset_encoding_size)
                for v in range(self.vertex_count)]

    def edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate all directed edges as ``(u, v)`` pairs.

        Reads the CSR view directly when the lists have not been
        materialized; both spellings yield the same pairs in the same
        order.
        """
        if self._successors is None:
            bounds = self._indptr.tolist()
            flat = self._indices.tolist()
            for u in range(len(bounds) - 1):
                for pos in range(bounds[u], bounds[u + 1]):
                    yield (u, flat[pos])
            return
        for u, adj in enumerate(self._successors):
            for v in adj:
                yield (u, v)


def _iter_copies(script: DeltaScript) -> List[CopyCommand]:
    """All copy commands of ``script`` in one pass over the command list."""
    return [c for c in script.commands if isinstance(c, CopyCommand)]


def build_crwi_digraph(script: DeltaScript) -> CRWIDigraph:
    """Construct the CRWI digraph for the copy commands of ``script``.

    Steps 2-3 of the paper's algorithm: sort copies by write offset, then
    for each copy's read interval locate the write intervals it intersects
    via binary search over the disjoint, sorted write intervals.  With
    the fast paths on, all binary searches run as two ``searchsorted``
    passes over the whole command set and the adjacency materializes as
    CSR arrays; the scalar ``IntervalIndex`` loop is retained as the
    bit-identical reference.
    """
    return _build_from_sorted(sorted(_iter_copies(script), key=lambda c: c.dst))


def _build_from_sorted(copies: List[CopyCommand]) -> CRWIDigraph:
    """Digraph over copies already sorted by write offset.

    Entry point shared with the integrated builder
    (:class:`repro.core.integrated.InPlaceDeltaBuilder`), whose feed
    order guarantees sortedness; dispatches to the vectorized or the
    reference constructor and records the convert-plane counters.
    """
    started = time.perf_counter()
    if _k.fast_enabled() and copies:
        graph = _build_fast(copies)
        fast = 1
    else:
        graph = _build_reference(copies)
        fast = 0
    recorder = perf.active()
    if recorder is not None:
        recorder.merge({
            "crwi.build.calls": 1,
            "crwi.build.seconds": time.perf_counter() - started,
            "crwi.build.fast": fast,
        })
    return graph


def _build_fast(copies: List[CopyCommand]) -> CRWIDigraph:
    """Vectorized digraph construction (copies pre-sorted by write offset)."""
    np = _k.np
    n = len(copies)
    srcs = np.fromiter((c.src for c in copies), np.int64, n)
    dsts = np.fromiter((c.dst for c in copies), np.int64, n)
    lens = np.fromiter((c.length for c in copies), np.int64, n)
    stops = dsts + lens - 1
    # Same disjointness contract (and error) as IntervalIndex.
    bad = np.flatnonzero(dsts[1:] <= stops[:-1])
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            "IntervalIndex requires disjoint intervals; %r overlaps %r"
            % (Interval(int(dsts[k]), int(stops[k])),
               Interval(int(dsts[k + 1]), int(stops[k + 1])))
        )
    indptr, indices = _k.crwi_edges(srcs, dsts, lens)
    pred_indptr, pred_indices = _k.csr_transpose(indptr, indices, n)
    return CRWIDigraph._from_csr(
        copies, indptr, indices, pred_indptr, pred_indices,
        cmd_arrays=(srcs, dsts, lens))


def _build_reference(copies: List[CopyCommand]) -> CRWIDigraph:
    """Scalar digraph construction; the oracle for :func:`_build_fast`."""
    graph = CRWIDigraph(
        vertices=copies,
        successors=[[] for _ in copies],
        predecessors=[[] for _ in copies],
    )
    if not copies:
        return graph
    index = IntervalIndex([c.write_interval for c in copies])
    for i, cmd in enumerate(copies):
        for j in index.overlapping(cmd.read_interval):
            if j != i:
                graph.successors[i].append(j)
                graph.predecessors[j].append(i)
    graph.invalidate_caches()
    return graph


def lemma1_bound(script: DeltaScript) -> int:
    """The Lemma 1 upper bound on CRWI edges: the version file length ``L_V``."""
    return script.version_length


def read_bytes_bound(script: DeltaScript) -> int:
    """Tighter form of the Lemma 1 argument: the sum of all copy read lengths.

    Each copy command ``i`` can conflict with at most ``l_i`` other
    commands, and the read lengths sum to at most ``L_V``; this returns
    the first quantity, which the tests check dominates the realized edge
    count.  One tight pass over the command list — the analysis reports
    call this alongside the digraph build, so it must not rescan with
    stacked generator sweeps.
    """
    total = 0
    for c in script.commands:
        if isinstance(c, CopyCommand):
            total += c.length
    return total
