"""Vectorized Karp-Rabin kernels (numpy fast paths for the differencing core).

Every kernel here computes *exactly* what the scalar reference
implementations in :mod:`repro.delta.rolling` compute — the same
fingerprints modulo the same Mersenne prime ``M = 2^61 - 1`` with the
same base — just in whole-buffer numpy passes instead of a Python-level
loop per byte.  Bit-identical fingerprints are load-bearing: seed-table
slot assignment (FCFS collisions) and full-index bucket order both
depend on the exact fingerprint values, and the delta scripts the
differs emit must not change when the fast paths are enabled.

All-seed fingerprinting uses the prefix trick: with
``Q[i] = sum_{j<i} data[j] * B^-(j+1)``, the seed hash at offset ``i``
is ``(Q[i+L] - Q[i]) * B^(i+L) (mod M)``.  The arithmetic never leaves
``uint64``, and it reduces modulo ``M`` once per seed:

* The power tables hold ``B^i`` and ``B^-i`` as two 31-bit limbs
  (``hi < 2^30``, ``lo < 2^31``).  A block of ``2^15`` output positions
  takes one exact prefix sum per limb (``np.cumsum``; each term
  ``byte * limb`` is below ``2^39``, so a block's sum stays far below
  ``2^64``), and the window sums ``x`` (hi) and ``y`` (lo) are plain
  differences of them: exact, non-negative, no reduction.
* ``x * 2^31 + y`` folds into one value below ``2^62`` as
  ``(x >> 30) + ((x & (2^30 - 1)) << 31) + y``, using ``2^61 ≡ 1``.
  That needs ``L * 255 * (2^31 + 1) <= 2^61``, so seeds longer than
  :data:`MAX_FAST_SEED_LENGTH` (about ``2^22``) are fingerprinted by the
  scalar reference instead.
* :func:`_mulmod` multiplies the folded value by ``B^(i+L)`` limb by
  limb, ``v*p = v1*p1*2^62 + (v1*p0 + v0*p1)*2^31 + v0*p0`` with
  ``2^62 ≡ 2`` and the cross term's 31-bit shift split at bit 30, so
  every partial sum stays below ``2^64``; one fold and one conditional
  subtract then give the canonical residue.

The power tables are built by doubling with the same :func:`_mulmod`
and cached module-wide as one tuple, so repeated fingerprinting of
same-scale buffers (every batch pipeline) pays for them once.

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

#: Longest seed :func:`seed_fingerprints` computes in numpy: a window's
#: two limb sums fold below ``2^62`` while ``L * 255 * (2^31 + 1) <=
#: 2^61``.  Longer seeds take the scalar reference.
MAX_FAST_SEED_LENGTH = (1 << 61) // (255 * ((1 << 31) + 1))

if HAVE_NUMPY:
    _MASK = _np.uint64(_MODULUS)
    _LO30 = _np.uint64((1 << 30) - 1)
    _LO31 = _np.uint64((1 << 31) - 1)
    _U1 = _np.uint64(1)
    _U30 = _np.uint64(30)
    _U31 = _np.uint64(31)
    _U61 = _np.uint64(61)

    #: Output positions per block of :func:`seed_fingerprints`.  Small
    #: enough that a block's buffers stay in cache.
    _CUMSUM_BLOCK = 1 << 15


def _mulmod(v, p_hi, p_lo, out, work):
    """Elementwise ``out = v * p (mod 2^61 - 1)``, canonical.

    ``v`` is uint64 below ``2^62``; ``p = p_hi * 2^31 + p_lo`` is a
    residue given as its limbs (arrays or scalars, ``p_hi < 2^30``,
    ``p_lo < 2^31``).  ``out`` may alias ``v``: both limbs of ``v`` are
    split off before ``out`` is written.  ``work`` is three same-shape
    uint64 buffers the call clobbers.
    """
    v1, v0, t = work
    _np.right_shift(v, _U31, out=v1)
    _np.bitwise_and(v, _LO31, out=v0)
    _np.multiply(v1, p_hi, out=out)
    out <<= _U1  # v1*p1 * 2^62 ≡ v1*p1 * 2, below 2^62
    _np.multiply(v0, p_hi, out=t)
    v1 *= p_lo
    v1 += t  # cross term, below 2^63
    v0 *= p_lo
    out += v0
    _np.right_shift(v1, _U30, out=t)  # cross * 2^31 ≡ (cross >> 30)
    out += t
    v1 &= _LO30  # ... + ((cross & (2^30 - 1)) << 31)
    v1 <<= _U31
    out += v1  # below 2^63 + 2^62: reduce once
    _np.right_shift(out, _U61, out=t)
    out &= _MASK
    out += t
    _np.subtract(out, _MASK, out=t)  # wraps when out < M
    return _np.minimum(out, t, out=out)


# -- power tables ------------------------------------------------------
#
# (pow_hi, pow_lo, inv_hi, inv_lo): B^i and B^-i mod M for i < size, as
# 31-bit limbs in uint32.  The size is a power of two; a larger request
# builds a new tuple in local variables and publishes it whole, so a
# thread fingerprinting concurrently keeps reading the tuple it took.

_BASE_INV = pow(_BASE, _MODULUS - 2, _MODULUS)
_power_limbs: tuple = ()


def _build_power_limbs(size: int) -> tuple:
    """Both power tables for ``size`` (a power of two) entries, as limbs.

    Each table is built as uint64 by doubling (``B^(i+h) = B^i * B^h``)
    and then split into its limbs.  The doubling multiplies ``2^15``
    entries at a time, so its scratch stays 768 KiB at any size.
    """
    limbs = []
    table = _np.empty(size, dtype=_np.uint64)
    step = min(size, 1 << 15)
    work = [_np.empty(step, dtype=_np.uint64) for _ in range(3)]
    for base in (_BASE, _BASE_INV):
        table[0] = have = 1
        while have < size:
            factor = pow(base, have, _MODULUS)
            f_hi, f_lo = _np.uint64(factor >> 31), _np.uint64(factor) & _LO31
            for lo in range(0, have, step):
                hi = min(lo + step, have)
                _mulmod(table[lo:hi], f_hi, f_lo, table[have + lo:have + hi],
                        [w[:hi - lo] for w in work])
            have *= 2
        for split, operand in ((_np.right_shift, _U31),
                               (_np.bitwise_and, _LO31)):
            limb = split(table, operand, out=_np.empty(size, _np.uint32))
            limb.setflags(write=False)
            limbs.append(limb)
    return tuple(limbs)


def _powers(count: int) -> tuple:
    """The cached power limbs, at least ``count`` entries each."""
    global _power_limbs
    limbs = _power_limbs
    if not limbs or len(limbs[0]) < count:
        limbs = _build_power_limbs(1 << (count - 1).bit_length())
        _power_limbs = limbs
    return limbs


# -- kernels -----------------------------------------------------------


def seed_fingerprints(data, seed_length: int):
    """All-seed Karp-Rabin fingerprints of ``data`` as a uint64 array.

    ``result[i]`` equals ``hash_seed(data, i, seed_length)`` from the
    scalar reference implementation, for every ``i`` in
    ``[0, len(data) - seed_length]``.  ``data`` is any bytes-like
    object; it is read in place, not copied.

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
    if seed_length > MAX_FAST_SEED_LENGTH:
        from repro.delta.rolling import seed_fingerprints_reference
        return _np.array(seed_fingerprints_reference(data, seed_length),
                         dtype=_np.uint64)
    d = _np.frombuffer(data, dtype=_np.uint8)
    pow_hi, pow_lo, inv_hi, inv_lo = _powers(n + 1)
    result = _np.empty(count, dtype=_np.uint64)
    block = min(count, _CUMSUM_BLOCK)
    q_hi, q_lo = (_np.empty(block + seed_length, dtype=_np.uint64)
                  for _ in range(2))
    work = [_np.empty(block, dtype=_np.uint64) for _ in range(3)]
    for start in range(0, count, block):
        c = min(block, count - start)
        m = c + seed_length
        # Exact block prefix sums P[k] = sum_{start<=j<start+k} data[j]
        # * limb(B^-(j+1)) for k in [0, m), one buffer per limb.
        hi, lo = q_hi[:m], q_lo[:m]
        block_bytes = d[start:start + m - 1]
        hi[0] = lo[0] = 0
        _np.multiply(inv_hi[start + 1:start + m], block_bytes, out=hi[1:],
                     dtype=_np.uint64)
        _np.multiply(inv_lo[start + 1:start + m], block_bytes, out=lo[1:],
                     dtype=_np.uint64)
        _np.cumsum(hi, out=hi)
        _np.cumsum(lo, out=lo)
        # Window sums x = P_hi[k+L] - P_hi[k] and y (lo), then
        # v = x * 2^31 + y folded below 2^62.
        x, y, free = (w[:c] for w in work)
        _np.subtract(hi[seed_length:], hi[:c], out=x)
        _np.subtract(lo[seed_length:], lo[:c], out=y)
        _np.right_shift(x, _U30, out=free)
        x &= _LO30
        x <<= _U31
        x += free
        x += y
        _mulmod(x, pow_hi[start + seed_length:start + m],
                pow_lo[start + seed_length:start + m],
                result[start:start + c], (y, free, hi[:c]))
    return result


def _slot_index(fps, table_size: int):
    """``fps % table_size`` as int64 slot indices (fingerprints are
    < 2^61, so the uint64 remainders reinterpret exactly).

    A power-of-two size (the default 2^16) masks with ``table_size -
    1``, the same remainder without a 64-bit division per seed.
    """
    if table_size & (table_size - 1) == 0:
        return (fps & _np.uint64(table_size - 1)).view(_np.int64)
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

    One vectorized :func:`_slot_index` pass replaces the per-iteration
    ``fp % size`` of the scalar tandem scan.  Both arrays are ``int64``:
    fingerprints are < 2**61 so the ``uint64`` kernel output
    reinterprets exactly, and a signed dtype lets the scan use ``-1`` as
    an empty-slot sentinel that can never equal a real fingerprint.
    """
    if isinstance(fingerprints, list):
        fps = _np.array(fingerprints, dtype=_np.int64)
    else:
        fps = _np.asarray(fingerprints)
        fps = fps.view(_np.int64) if fps.dtype == _np.uint64 \
            else fps.astype(_np.int64)
    return _slot_index(fps.view(_np.uint64), table_size), fps


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
            present[_slot_index(self.unique, size)] = True
            self._present = present
            self._present_size = size
        queries = _np.asarray(fingerprints, dtype=_np.uint64)
        return self._present[
            _slot_index(queries, self._present_size)].tolist()

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
