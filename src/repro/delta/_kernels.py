"""Vectorized Karp-Rabin kernels (numpy fast paths for the differencing core).

Every kernel here computes *exactly* what the scalar reference
implementations in :mod:`repro.delta.rolling` compute — the same
fingerprints modulo the same Mersenne prime ``2^61 - 1`` with the same
base — just in whole-buffer numpy passes instead of a Python-level loop
per byte.  Bit-identical fingerprints are load-bearing: seed-table slot
assignment (FCFS collisions) and full-index bucket order both depend on
the exact fingerprint values, and the delta scripts the differs emit
must not change when the fast paths are enabled.

The arithmetic never leaves ``uint64``.  A 61-bit modular product needs
122 product bits, so operands are split at bit 31 and the partial
products are reduced with the Mersenne identities ``2^61 ≡ 1`` and
``x * 2^k ≡ rotl61(x, k) (mod 2^61 - 1)``:

* ``a*b = a1*b1*2^62 + (a1*b0 + a0*b1)*2^31 + a0*b0`` with every
  partial product below ``2^62`` (no uint64 overflow);
* ``t*2^62 ≡ t*2`` and the 31-bit shift becomes a 61-bit rotate.

All-seed fingerprinting uses the prefix trick: with
``Q[i] = sum_{j<i} data[j] * B^-(j+1) (mod M)`` (a cumulative sum, the
only sequential dependency, handled by ``np.cumsum`` on the split
representation one cache-sized block at a time; a window needs only a
difference of two prefix sums, so every block sums from zero), the seed
hash at offset ``i`` is ``(Q[i+L] - Q[i]) * B^(i+L)``.  Power tables
for ``B`` and ``B^-1`` are grown on demand and cached module-wide, so
repeated fingerprinting of same-scale buffers (every batch pipeline)
pays for them once.

When numpy is unavailable ``HAVE_NUMPY`` is False and
:mod:`repro.delta.rolling` keeps every caller on the scalar reference
paths; nothing here is imported into a hot path unguarded.
"""

from __future__ import annotations

from bisect import bisect_left as _bisect_left
from typing import List

try:  # pragma: no cover - exercised implicitly by every fast-path test
    import numpy as _np
except ImportError:  # pragma: no cover - the scalar fallback environment
    _np = None

HAVE_NUMPY = _np is not None

#: Karp-Rabin parameters — must match repro.delta.rolling exactly.
_BASE = 257
_MODULUS = (1 << 61) - 1

if HAVE_NUMPY:
    _MASK = _np.uint64(_MODULUS)
    _LO31 = _np.uint64((1 << 31) - 1)
    _U1 = _np.uint64(1)
    _U30 = _np.uint64(30)
    _U31 = _np.uint64(31)
    _U61 = _np.uint64(61)

    #: Output positions per block of :func:`seed_fingerprints`.  Small
    #: enough that a block's buffers stay in cache, and far below the
    #: 2^24 terms (each < 2^39) whose running sum could wrap uint64.
    _CUMSUM_BLOCK = 1 << 15


def _reduce(x, scratch):
    """Map ``x`` to its canonical residue in ``[0, 2^61 - 1)``, in place.

    Any uint64 ``x`` works.  One fold suffices: the folded value is at
    most ``(2^61 - 1) + 7``, which a single conditional subtract maps
    into ``[0, 2^61 - 1)``.  ``scratch`` is a same-shape uint64 buffer
    the call may clobber.
    """
    _np.right_shift(x, _U61, out=scratch)
    x &= _MASK
    x += scratch
    _np.subtract(x, _MASK, out=x, where=x >= _MASK)
    return x


def _rotl31(x, scratch):
    """``x * 2^31 (mod 2^61 - 1)`` for ``x <= 2^61 - 1`` via 61-bit rotate,
    in place; ``scratch`` as for :func:`_reduce`."""
    _np.right_shift(x, _U30, out=scratch)
    x <<= _U31
    x &= _MASK
    x |= scratch
    return x


def _mulmod(a, b, out, work):
    """Elementwise ``out = a * b (mod 2^61 - 1)`` for residues ``a, b < 2^61``.

    ``b`` may be a scalar and ``out`` may alias ``a`` (both limbs of
    ``a`` are split off before ``out`` is written).  ``work`` is four
    same-shape uint64 buffers the call clobbers.
    """
    b1, b0, a1, cross = work
    _np.right_shift(b, _U31, out=b1)
    _np.bitwise_and(b, _LO31, out=b0)
    _np.right_shift(a, _U31, out=a1)
    a0 = _np.bitwise_and(a, _LO31, out=out)
    _np.multiply(a1, b0, out=cross)
    low = _np.multiply(b0, a0, out=b0)
    a0 *= b1
    cross += a0
    high = _np.multiply(b1, a1, out=b1)
    high <<= _U1  # t * 2^62 ≡ t * 2
    _rotl31(_reduce(cross, a1), a1)
    _reduce(low, a1)
    total = _np.add(low, high, out=out)
    total += cross
    return _reduce(total, a1)


# -- power tables ------------------------------------------------------
#
# pows(base)[i] == base^i mod M.  Grown by doubling with the vectorized
# mulmod (log n vector passes) and cached module-wide: every caller
# slices a read-only view, so a pipeline fingerprinting many same-sized
# buffers builds each table once.

_BASE_INV = pow(_BASE, _MODULUS - 2, _MODULUS)
_pow_tables: dict = {}


def _powers(base: int, count: int):
    table = _pow_tables.get(base)
    if table is None or len(table) < count:
        if table is None:
            table = _np.ones(1, dtype=_np.uint64)
        while len(table) < count:
            factor = _np.uint64(pow(base, len(table), _MODULUS))
            work = [_np.empty(len(table), dtype=_np.uint64)
                    for _ in range(4)]
            grown = _np.empty(2 * len(table), dtype=_np.uint64)
            grown[:len(table)] = table
            _mulmod(table, factor, grown[len(table):], work)
            table = grown
        table.setflags(write=False)
        _pow_tables[base] = table
    return table[:count]


# -- kernels -----------------------------------------------------------


def seed_fingerprints(data, seed_length: int):
    """All-seed Karp-Rabin fingerprints of ``data`` as a uint64 array.

    ``result[i]`` equals ``hash_seed(data, i, seed_length)`` from the
    scalar reference implementation, for every ``i`` in
    ``[0, len(data) - seed_length]``.

    Output positions are produced in blocks of at most
    ``_CUMSUM_BLOCK``.  Each block runs every pass in place (ufuncs with
    ``out=``) over five block-sized buffers allocated once per call, so
    the working set stays cache-sized however long ``data`` is.  A
    window is a difference of two prefix sums, so each block sums from
    zero and no state passes between blocks.
    """
    n = len(data)
    count = n - seed_length + 1
    if count <= 0:
        return _np.empty(0, dtype=_np.uint64)
    d = _np.frombuffer(bytes(data), dtype=_np.uint8)
    inv = _powers(_BASE_INV, n + 1)
    pows = _powers(_BASE, n + 1)
    result = _np.empty(count, dtype=_np.uint64)
    block = min(count, _CUMSUM_BLOCK)
    q_hi, q_lo, scratch = (_np.empty(block + seed_length, dtype=_np.uint64)
                           for _ in range(3))
    work = [_np.empty(block, dtype=_np.uint64) for _ in range(2)]
    for start in range(0, count, block):
        c = min(block, count - start)
        m = c + seed_length
        # Block prefix sums P[k] = sum_{start<=j<start+k} data[j] *
        # B^-(j+1) for k in [0, m), one buffer per limb of the weight
        # split at bit 31 (byte*weight terms stay below 2^39, so a
        # block's cumsum cannot wrap uint64).
        hi, lo, free = q_hi[:m], q_lo[:m], scratch[:m]
        weights = inv[start + 1:start + m]
        block_bytes = d[start:start + m - 1]
        hi[0] = lo[0] = 0
        _np.right_shift(weights, _U31, out=hi[1:])
        hi[1:] *= block_bytes
        _np.bitwise_and(weights, _LO31, out=lo[1:])
        lo[1:] *= block_bytes
        _reduce(_np.cumsum(hi, out=hi), free)
        _reduce(_np.cumsum(lo, out=lo), free)
        # Windowed sums P[k+L] - P[k] (+ M so the wrapped difference
        # comes back non-negative), each into a buffer the step before
        # freed: scratch, then hi once its window is taken.
        win_hi = _np.subtract(hi[seed_length:], hi[:c], out=free[:c])
        win_hi += _MASK
        _reduce(win_hi, hi[:c])
        win_lo = _np.subtract(lo[seed_length:], lo[:c], out=hi[:c])
        win_lo += _MASK
        _reduce(win_lo, lo[:c])
        window = _rotl31(win_hi, lo[:c])
        window += win_lo
        _reduce(window, lo[:c])
        _mulmod(window, pows[start + seed_length:start + m],
                result[start:start + c],
                (hi[:c], lo[:c], work[0][:c], work[1][:c]))
    return result


def _slot_index(fps, table_size: int):
    """``fps % table_size`` as int64 slot indices (fingerprints are
    < 2^61, so the uint64 remainders reinterpret exactly)."""
    return (fps % _np.uint64(table_size)).view(_np.int64)


def fcfs_slots(fingerprints, table_size: int):
    """First-come-first-served slot assignment for a whole seed scan.

    Equivalent to inserting ``fingerprints[i] -> offset i`` in order into
    an empty :class:`~repro.delta.rolling.SeedTable` of ``table_size``
    slots: each slot keeps the offset of the *first* fingerprint that
    hashed to it.  Returns ``(slots_array, fps, occupied)``:
    ``slots_array`` holds each slot's offset as int64 (``-1`` when
    empty) and ``fps`` is ``fingerprints`` as a uint64 array (the input
    itself when it already is one).  A slot's full 61-bit fingerprint
    is ``fps[slots_array[slot]]``, so the pair backs
    :func:`probe_table`, the batch probe the vectorized correcting scan
    uses, without a per-slot copy of the fingerprints.

    The first-come winner of a slot is the smallest offset hashing to
    it, so one O(n) scatter-min (``np.minimum.at``, which reduces
    repeated indices in full, unlike a fancy-index assignment whose
    write order numpy leaves open) computes every slot at once.
    """
    fps = _np.asarray(fingerprints, dtype=_np.uint64)
    n = len(fps)
    slots = _np.full(table_size, n, dtype=_np.int64)
    _np.minimum.at(slots, _slot_index(fps, table_size),
                   _np.arange(n, dtype=_np.int64))
    empty = slots == n
    slots[empty] = -1
    return slots, fps, table_size - int(_np.count_nonzero(empty))


def probe_table(slots_array, fps_r, fingerprints):
    """Batch-probe an FCFS table with every query fingerprint at once.

    ``slots_array`` and ``fps_r`` are what :func:`fcfs_slots` returns:
    the slot offsets and the fingerprints of the buffer they index.
    Returns ``(positions, candidates)`` as int64 arrays: the ascending
    query positions whose slot is occupied by a fingerprint *equal* to
    the query, and the stored offset for each.  Byte equality implies
    fingerprint equality, so every position the scalar scan would
    byte-verify successfully is in ``positions`` — the scan loop only
    has to visit these (and re-verify the bytes, since equal 61-bit
    fingerprints can still collide across distinct seeds).
    """
    fps = _np.asarray(fingerprints, dtype=_np.uint64)
    if not len(fps_r):  # every slot empty: nothing can hit
        fps = fps[:0]
    cand = slots_array.take(_slot_index(fps, len(slots_array)))
    # An empty slot's -1 reads fps_r's last element; the mask drops it.
    hit = fps_r.take(cand) == fps
    hit &= cand >= 0
    positions = _np.flatnonzero(hit)
    return positions, cand.take(positions)


def scan_arrays(fingerprints, table_size: int):
    """Per-position ``(slot, fingerprint)`` int64 arrays for a scan loop.

    One vectorized modulo pass replaces the per-iteration ``fp % size``
    of the scalar tandem scan.  Both arrays are ``int64``: fingerprints
    are < 2**61 so the ``uint64`` kernel output reinterprets exactly,
    and a signed dtype lets the scan use ``-1`` as an empty-slot
    sentinel that can never equal a real fingerprint.
    """
    if isinstance(fingerprints, list):
        fps = _np.array(fingerprints, dtype=_np.int64)
    else:
        fps = _np.asarray(fingerprints)
        fps = fps.view(_np.int64) if fps.dtype == _np.uint64 \
            else fps.astype(_np.int64)
    return fps % _np.int64(table_size), fps


class FingerprintGroups:
    """Seed offsets of one buffer grouped by fingerprint, flat-array form.

    The vectorized replacement for the dict-of-lists inside
    :class:`~repro.delta.rolling.FullSeedIndex`: a stable argsort groups
    equal fingerprints together (offsets ascending within each group,
    matching insertion order), and per-group caps reproduce the
    ``max_positions`` bound.

    Lookups are two-tier, shaped by how the greedy scan behaves: it
    jumps over matched regions, so of the ~1M seeds in a large version
    it resolves candidates for only the positions it actually visits.
    :meth:`membership` answers "could this fingerprint be present?" for
    a *whole* query array in one cheap vectorized pass (one-sided
    error: ``False`` is definite absence), and :meth:`lookup` resolves
    a single visited fingerprint by bisection over plain Python lists —
    the two together beat a full vectorized join by an order of
    magnitude on realistic inputs, because ``np.searchsorted`` over
    every version seed costs more than the entire scan.
    """

    __slots__ = ("unique", "starts", "counts", "offsets", "stored",
                 "_present", "_present_size", "_lists", "_lookups")

    #: Scalar lookups before the group arrays are flattened to Python
    #: lists.  Each numpy-side lookup costs ~3x its list/bisect
    #: equivalent but flattening costs ~0.15s per million stored
    #: positions, so sparse scans (the common case: the greedy scan
    #: jumps over matches) stay on numpy and dense scans amortize the
    #: one-time flatten.
    _FLATTEN_AFTER = 1 << 15

    def __init__(self, fingerprints, max_positions: int,
                 offset_scale: int = 1):
        fps = _np.asarray(fingerprints, dtype=_np.uint64)
        order = _np.argsort(fps, kind="stable").astype(_np.int64)
        ordered = fps[order]
        if offset_scale != 1:
            # Sampled fingerprints (every k-th seed): position i in the
            # sampled array is buffer offset i*k, so scaling here lets
            # lookups return real reference offsets directly.
            order = order * _np.int64(offset_scale)
        if len(ordered):
            boundaries = _np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
            starts = _np.concatenate(
                [_np.zeros(1, dtype=_np.int64), boundaries]
            )
            ends = _np.concatenate(
                [boundaries, _np.array([len(ordered)], dtype=_np.int64)]
            )
            self.unique = ordered[starts]
        else:
            starts = _np.empty(0, dtype=_np.int64)
            ends = starts
            self.unique = ordered
        self.starts = starts
        self.counts = _np.minimum(ends - starts, max_positions)
        self.offsets = order
        self.stored = int(self.counts.sum())
        self._present = None
        self._present_size = 0
        self._lists = None
        self._lookups = 0

    def _scan_lists(self):
        """The group arrays as plain lists (built once, lazily).

        List indexing and :func:`bisect.bisect_left` are several times
        faster than their numpy scalar equivalents, and the scan loop is
        all scalar work.
        """
        if self._lists is None:
            self._lists = (
                self.unique.tolist(),
                self.starts.tolist(),
                self.counts.tolist(),
                self.offsets.tolist(),
            )
        return self._lists

    def membership(self, fingerprints) -> List[bool]:
        """Approximate presence of each query fingerprint, vectorized.

        ``False`` means definitely absent; ``True`` means a fingerprint
        with the same low bits is stored (resolve with :meth:`lookup`).
        The filter is a direct-mapped bitmap sized ~8 slots per stored
        fingerprint (capped at 2^24), so false positives stay around
        ten percent and the common all-literal scan positions skip the
        bisection entirely.
        """
        if self._present is None:
            size = 1 << 16
            while size < 8 * len(self.unique) and size < (1 << 24):
                size <<= 1
            present = _np.zeros(size, dtype=bool)
            present[(self.unique % _np.uint64(size)).astype(_np.int64)] = True
            self._present = present
            self._present_size = size
        queries = _np.asarray(fingerprints, dtype=_np.uint64)
        hits = self._present[
            (queries % _np.uint64(self._present_size)).astype(_np.int64)
        ]
        return hits.tolist()

    def lookup(self, fingerprint: int) -> List[int]:
        """Capped candidate offsets for one fingerprint (ascending)."""
        if self._lists is not None:
            unique, starts, counts, offsets = self._lists
            i = _bisect_left(unique, fingerprint)
            if i == len(unique) or unique[i] != fingerprint:
                return []
            start = starts[i]
            return offsets[start:start + counts[i]]
        self._lookups += 1
        if self._lookups > self._FLATTEN_AFTER:
            self._scan_lists()
            return self.lookup(fingerprint)
        fp = _np.uint64(fingerprint)
        i = int(_np.searchsorted(self.unique, fp))
        if i >= len(self.unique) or self.unique[i] != fp:
            return []
        start = int(self.starts[i])
        return self.offsets[start:start + int(self.counts[i])].tolist()
