"""Karp-Rabin rolling hashes and seed tables for the differencing algorithms.

The differencing substrate ([5], [1] in the paper) finds matching strings
by hashing fixed-length *seeds* (substrings of ``seed_length`` bytes).
:class:`RollingHash` maintains a Karp-Rabin fingerprint that slides one
byte at a time in O(1); :class:`SeedTable` is the fixed-size,
first-come-first-served hash table the linear-time, constant-space
algorithms use, and :class:`FullSeedIndex` is the exhaustive
position-list index the greedy algorithm uses.

**Fast paths.**  Fingerprinting a buffer one byte per Python iteration is
the bottleneck of every differencing run, so this module carries two
implementations of each primitive:

* the scalar *reference* implementations (``RollingHash``,
  :func:`iter_seed_hashes`, :func:`seed_fingerprints_reference`,
  :func:`match_length_reference`, ...) — simple, dependency-free, and
  the correctness oracle;
* vectorized fast paths (:mod:`repro.delta._kernels`, numpy) that
  compute *bit-identical* fingerprints in whole-buffer passes, plus a
  block-compare :func:`match_length` that locates the first mismatch by
  doubling windows and binary search instead of a per-byte loop.

Fast paths switch on automatically when numpy is importable; call
:func:`use_fast_paths` (or set ``REPRO_NO_FAST=1`` in the environment)
to pin the reference paths — the delta scripts produced are identical
either way, which ``tests/test_vectorized_oracle.py`` enforces.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .. import perf
from . import _kernels as _k

Buffer = Union[bytes, bytearray, memoryview]

#: Default seed (minimum match) length, the paper's algorithms use ~12-16.
DEFAULT_SEED_LENGTH = 16

_BASE = 257
_MODULUS = (1 << 61) - 1  # Mersenne prime keeps the arithmetic fast and uniform.

#: Module switch for the fast paths (on unless REPRO_NO_FAST is set).
#: Flip at runtime with :func:`use_fast_paths`.  The block-compare
#: match extension is pure Python and honors the switch alone; the
#: vectorized fingerprint kernels additionally require numpy and fall
#: back to the scalar reference paths without it.
_FAST = not os.environ.get("REPRO_NO_FAST")


def use_fast_paths(enabled: bool) -> bool:
    """Enable/disable the fast paths; returns the previous state.

    The reference and fast paths produce bit-identical fingerprints,
    match lengths, and delta scripts; this switch exists for oracle
    testing and for benchmarking the scalar pre-optimization baseline
    (``ipdelta bench --no-fast``).
    """
    global _FAST
    previous = _FAST
    _FAST = bool(enabled)
    return previous


def fast_paths_enabled() -> bool:
    """True when the vectorized fast paths are active."""
    return _FAST


class RollingHash:
    """Karp-Rabin fingerprint over a sliding window of fixed length.

    ``update(out_byte, in_byte)`` slides the window one byte right in
    constant time.  The fingerprint is a value in ``[0, 2^61 - 1)``; use
    :meth:`bucket` to reduce it to a table index.
    """

    def __init__(self, window: int = DEFAULT_SEED_LENGTH):
        if window <= 0:
            raise ValueError("window must be positive, got %d" % window)
        self.window = window
        self._value = 0
        # _BASE ** (window - 1) mod _MODULUS, the weight of the byte
        # leaving the window.
        self._out_weight = pow(_BASE, window - 1, _MODULUS)

    @property
    def value(self) -> int:
        """Current fingerprint of the window contents."""
        return self._value

    def reset(self, data: Buffer, start: int = 0) -> int:
        """Fill the window from ``data[start:start+window]`` and return the hash."""
        value = 0
        for i in range(start, start + self.window):
            value = (value * _BASE + data[i]) % _MODULUS
        self._value = value
        return value

    def update(self, out_byte: int, in_byte: int) -> int:
        """Slide the window: remove ``out_byte`` from the left, append ``in_byte``."""
        value = (self._value - out_byte * self._out_weight) % _MODULUS
        self._value = (value * _BASE + in_byte) % _MODULUS
        return self._value

    def bucket(self, table_size: int) -> int:
        """Reduce the fingerprint to a bucket index for a table of ``table_size``."""
        return self._value % table_size


def hash_seed(data: Buffer, start: int, length: int) -> int:
    """One-shot Karp-Rabin hash of ``data[start:start+length]``."""
    value = 0
    for i in range(start, start + length):
        value = (value * _BASE + data[i]) % _MODULUS
    return value


def iter_seed_hashes(data: Buffer, seed_length: int) -> Iterator[Tuple[int, int]]:
    """Yield ``(offset, fingerprint)`` for every seed of ``data``, rolling in O(1).

    The scalar reference scan; :func:`seed_fingerprints` is the
    vectorized equivalent and the one the differs consume.
    """
    n = len(data)
    if n < seed_length:
        return
    roller = RollingHash(seed_length)
    value = roller.reset(data, 0)
    yield 0, value
    for offset in range(1, n - seed_length + 1):
        value = roller.update(data[offset - 1], data[offset + seed_length - 1])
        yield offset, value


def seed_fingerprints_reference(data: Buffer,
                                seed_length: int = DEFAULT_SEED_LENGTH) -> List[int]:
    """Scalar oracle for :func:`seed_fingerprints`: one rolling pass."""
    return [fp for _offset, fp in iter_seed_hashes(data, seed_length)]


def seed_fingerprints(data: Buffer, seed_length: int = DEFAULT_SEED_LENGTH) -> List[int]:
    """Materialized rolling fingerprints for every seed offset of ``data``.

    ``result[i]`` is the Karp-Rabin fingerprint of
    ``data[i:i+seed_length]`` — what :meth:`RollingHash.reset` at ``i``
    (or the equivalent chain of updates) returns.  Precomputing the list
    lets a scan that repeatedly re-seeds over the same buffer (and a
    cache serving many scans of one reference, see
    :class:`repro.pipeline.cache.ReferenceIndexCache`) skip the per-byte
    rolling arithmetic entirely; under the fast paths the whole list is
    computed in a handful of vectorized passes.
    """
    if _FAST and _k.HAVE_NUMPY:
        fps = _k.seed_fingerprints(data, seed_length).tolist()
        perf.add("fingerprint.fast_calls")
        perf.add("fingerprint.bytes", len(data))
        return fps
    perf.add("fingerprint.reference_calls")
    perf.add("fingerprint.bytes", len(data))
    return seed_fingerprints_reference(data, seed_length)


def _seed_fingerprint_array(data: Buffer, seed_length: int):
    """Fingerprints as a uint64 array (fast) or list (reference).

    Internal: the greedy scan keeps the array form to resolve all
    candidate lookups in one vectorized pass.
    """
    if _FAST and _k.HAVE_NUMPY:
        perf.add("fingerprint.fast_calls")
        perf.add("fingerprint.bytes", len(data))
        return _k.seed_fingerprints(data, seed_length)
    perf.add("fingerprint.reference_calls")
    perf.add("fingerprint.bytes", len(data))
    return seed_fingerprints_reference(data, seed_length)


class SeedTable:
    """Fixed-size seed table with first-come-first-served insertion.

    The constant-space algorithms ([5], [1]) bound memory by hashing seed
    fingerprints into a table of ``size`` slots, each remembering the
    offset of the *first* seed that landed there; later colliding seeds
    are dropped.  Lookups must verify candidate matches against the
    actual bytes, since distinct seeds can share a slot.

    Scalar storage is one flat list of slot offsets (``-1`` = empty),
    ``_slots`` — the scan loops in the differs bind it locally and index
    it directly, which is the fastest scalar access CPython offers.
    Tables built whole-buffer under the fast paths hold *probe arrays*
    instead: the slot offsets as an int64 array plus the fingerprint
    array the table was built from, shared, not copied (a slot's
    fingerprint is that array at the slot's offset).  They let the
    correcting scan batch-probe every version position in one
    vectorized pass; their slot list is built from the arrays on the
    first scalar access (``insert``, ``lookup``, a one-pass or scalar
    correcting scan), and incremental mutation drops the arrays.
    """

    __slots__ = ("size", "occupied", "_list", "_slots_array", "_fps")

    def __init__(self, size: int = 1 << 16):
        if size <= 0:
            raise ValueError("table size must be positive, got %d" % size)
        self.size = size
        #: The slot list, or ``None`` until a scalar access builds it.
        self._list: Optional[List[int]] = None
        #: Number of filled slots, exposed for load-factor diagnostics.
        self.occupied = 0
        self._slots_array = None
        self._fps = None

    @classmethod
    def from_fingerprints(cls, fingerprints, size: int = 1 << 16) -> "SeedTable":
        """Build a table by FCFS-inserting ``fingerprints[i] -> i`` in order.

        The whole-buffer form of the half-pass the correcting algorithm
        runs over its reference: offset ``i`` is stored for fingerprint
        ``fingerprints[i]`` unless an earlier fingerprint claimed the
        slot.  Vectorized under the fast paths (an O(n) scatter-min over
        the fingerprint array, no slot list built; the table keeps a
        reference to ``fingerprints``, or to its uint64 array form when
        given a list), bit-identical to the insertion loop.  Timed as
        ``table.seed.build``; fingerprinting the buffer is the caller's.
        """
        table = cls(size)
        with perf.timer("table.seed.build"):
            if _FAST and _k.HAVE_NUMPY:
                (table._slots_array, table._fps,
                 table.occupied) = _k.fcfs_slots(fingerprints, size)
            else:
                insert = table.insert
                for offset, fingerprint in enumerate(fingerprints):
                    insert(fingerprint, offset)
        return table

    @property
    def _slots(self) -> List[int]:
        """The dense slot list, built on first access (from the probe
        arrays when the table has them)."""
        if self._list is None:
            self._list = [-1] * self.size if self._slots_array is None \
                else self._slots_array.tolist()
        return self._list

    @property
    def nbytes(self) -> int:
        """Approximate resident bytes of what the table holds now.

        Probe arrays count the slot offsets and the shared fingerprint
        array they keep alive; a slot list counts one pointer per slot
        plus one int object per stored offset.
        """
        total = 0
        if self._slots_array is not None:
            total += self._slots_array.nbytes + self._fps.nbytes
        if self._list is not None:
            total += 8 * self.size + 28 * self.occupied
        return total

    def probe_arrays(self):
        """``(slots_array, fps)`` for :func:`~repro.delta._kernels.probe_table`,
        or ``None``.

        Present only on tables built whole-buffer under the fast paths;
        any mutation invalidates them.
        """
        if self._slots_array is None:
            return None
        return self._slots_array, self._fps

    def insert(self, fingerprint: int, offset: int) -> bool:
        """Record ``offset`` for ``fingerprint`` unless its slot is taken.

        Returns True when the offset was stored.
        """
        slots = self._list
        if slots is None:
            slots = self._slots
        self._slots_array = None
        self._fps = None
        slot = fingerprint % self.size
        if slots[slot] < 0:
            slots[slot] = offset
            self.occupied += 1
            return True
        return False

    def lookup(self, fingerprint: int) -> Optional[int]:
        """The stored offset for ``fingerprint``'s slot, or ``None``."""
        offset = self._slots[fingerprint % self.size]
        return offset if offset >= 0 else None

    def clear(self) -> None:
        """Empty the table for reuse."""
        self._list = None
        self.occupied = 0
        self._slots_array = None
        self._fps = None


def full_index_reference(data: Buffer, seed_length: int = DEFAULT_SEED_LENGTH,
                         max_positions: int = 64) -> Dict[int, List[int]]:
    """Scalar oracle for the greedy index: fingerprint -> capped offsets.

    The dict-of-lists the pre-vectorization :class:`FullSeedIndex` built,
    retained so the property suite can compare the flat-array fast path
    bucket-for-bucket.
    """
    index: Dict[int, List[int]] = {}
    for offset, fingerprint in iter_seed_hashes(data, seed_length):
        bucket = index.setdefault(fingerprint, [])
        if len(bucket) < max_positions:
            bucket.append(offset)
    return index


class FullSeedIndex:
    """Exhaustive seed index: every seed offset of a buffer, by fingerprint.

    The greedy algorithm's structure: space linear in the reference, but
    it can enumerate *all* candidate match positions for a fingerprint,
    letting the caller pick the longest extension.  ``max_positions``
    caps pathological buckets (e.g. runs of zero bytes) so lookups stay
    bounded.

    Under the fast paths the index is flat arrays — fingerprints grouped
    by a stable sort, offsets ascending within each group exactly like
    insertion order — instead of a dict of lists; ``groups`` then
    supports the greedy scan's vectorized
    :meth:`~repro.delta._kernels.FingerprintGroups.membership` prefilter.
    Candidate lists returned by :meth:`candidates` are identical in
    content and order either way.
    """

    def __init__(self, data: Buffer, seed_length: int = DEFAULT_SEED_LENGTH,
                 max_positions: int = 64):
        self.seed_length = seed_length
        self.data = data
        self.max_positions = max_positions
        #: Flat-array grouping (fast paths), or None on the dict path.
        self.groups = None
        self._index: Optional[Dict[int, List[int]]] = None
        with perf.timer("index.full.build"):
            if _FAST and _k.HAVE_NUMPY:
                fps = _k.seed_fingerprints(data, seed_length)
                self.groups = _k.FingerprintGroups(fps, max_positions)
            else:
                self._index = full_index_reference(data, seed_length,
                                                  max_positions)
        perf.add("index.full.positions", len(self))

    def candidates(self, fingerprint: int) -> List[int]:
        """All stored reference offsets whose seed has this fingerprint."""
        if self.groups is not None:
            return self.groups.lookup(fingerprint)
        return self._index.get(fingerprint, [])

    def __len__(self) -> int:
        if self.groups is not None:
            return self.groups.stored
        return sum(len(v) for v in self._index.values())


def sparse_index_reference(data: Buffer, seed_length: int = DEFAULT_SEED_LENGTH,
                           stride: int = 16,
                           max_positions: int = 64) -> Dict[int, List[int]]:
    """Scalar oracle for :class:`SparseSeedIndex`: every k-th seed, by dict.

    Identical to :func:`full_index_reference` restricted to offsets that
    are multiples of ``stride`` — the sampled tier stores *real* buffer
    offsets, so candidate lists plug into the greedy scan unchanged.
    """
    index: Dict[int, List[int]] = {}
    for offset in range(0, len(data) - seed_length + 1, stride):
        fingerprint = hash_seed(data, offset, seed_length)
        bucket = index.setdefault(fingerprint, [])
        if len(bucket) < max_positions:
            bucket.append(offset)
    return index


class SparseSeedIndex:
    """Sampled seed index: every ``stride``-th seed offset, by fingerprint.

    The greedy algorithm's memory-bounded tier.  A :class:`FullSeedIndex`
    stores every seed position and prices linear in the reference — a
    multi-MiB reference prices over any reasonable cache budget, so the
    pipeline used to rebuild a >128MB index per job and thrash the LRU.
    Sampling every ``stride``-th seed divides the footprint by ``stride``
    while keeping candidate *offsets* exact (samples are real positions,
    not quantized anchors), so the scan still extends matches at byte
    granularity in both directions.

    The trade is coverage, not correctness: a common string shorter than
    ``seed_length + stride - 1`` can slip between samples, and a found
    match may start mid-string — which is why the greedy scan pairs a
    sparse index with backward extension
    (:func:`match_length_backward`), recovering the unsampled prefix the
    same way the correcting algorithm recovers provisional literals.

    Same two bit-identical forms as the full index: flat
    :class:`~repro.delta._kernels.FingerprintGroups` (with offsets
    pre-scaled by ``stride``) under the fast paths, a dict of capped
    offset lists otherwise.
    """

    def __init__(self, data: Buffer, seed_length: int = DEFAULT_SEED_LENGTH,
                 max_positions: int = 64, stride: int = 16):
        if stride <= 0:
            raise ValueError("stride must be positive, got %d" % stride)
        self.seed_length = seed_length
        self.data = data
        self.max_positions = max_positions
        self.stride = stride
        #: Flat-array grouping (fast paths), or None on the dict path.
        self.groups = None
        self._index: Optional[Dict[int, List[int]]] = None
        with perf.timer("index.sparse.build"):
            if _FAST and _k.HAVE_NUMPY:
                fps = _k.seed_fingerprints(data, seed_length)[::stride]
                self.groups = _k.FingerprintGroups(fps, max_positions,
                                                   offset_scale=stride)
            else:
                self._index = sparse_index_reference(data, seed_length,
                                                     stride, max_positions)
        perf.add("index.sparse.positions", len(self))

    def candidates(self, fingerprint: int) -> List[int]:
        """Stored (sampled) reference offsets whose seed has this fingerprint."""
        if self.groups is not None:
            return self.groups.lookup(fingerprint)
        return self._index.get(fingerprint, [])

    def __len__(self) -> int:
        if self.groups is not None:
            return self.groups.stored
        return sum(len(v) for v in self._index.values())


def match_length_reference(a: Buffer, a_start: int, b: Buffer, b_start: int,
                           limit: Optional[int] = None) -> int:
    """Scalar oracle for :func:`match_length`: fixed chunks, bytewise tail."""
    max_len = min(len(a) - a_start, len(b) - b_start)
    if limit is not None:
        max_len = min(max_len, limit)
    matched = 0
    chunk = 512
    while matched < max_len:
        step = min(chunk, max_len - matched)
        if a[a_start + matched:a_start + matched + step] == \
                b[b_start + matched:b_start + matched + step]:
            matched += step
            continue
        # Mismatch inside this chunk: locate it bytewise.
        for i in range(step):
            if a[a_start + matched + i] != b[b_start + matched + i]:
                return matched + i
        matched += step
    return matched


def match_length(a: Buffer, a_start: int, b: Buffer, b_start: int,
                 limit: Optional[int] = None) -> int:
    """Length of the longest common prefix of ``a[a_start:]`` and ``b[b_start:]``.

    Block-compare strategy: grow a doubling window of slice comparisons
    (each a C-level memcmp) while blocks match, then binary-search inside
    the first mismatching block with halving slice comparisons — no
    per-byte Python loop anywhere, so an immediate mismatch costs one
    16-byte compare and a megabyte match costs ~2 MB of memcmp in ~17
    Python operations.
    """
    if not _FAST:
        return match_length_reference(a, a_start, b, b_start, limit)
    max_len = min(len(a) - a_start, len(b) - b_start)
    if limit is not None and limit < max_len:
        max_len = limit
    if max_len <= 0:
        return 0
    matched = 0
    step = 16
    while matched < max_len:
        if step > max_len - matched:
            step = max_len - matched
        pa = a_start + matched
        pb = b_start + matched
        if a[pa:pa + step] == b[pb:pb + step]:
            matched += step
            step <<= 1
            continue
        # First mismatch lies in [matched, matched + step): bisect with
        # slice compares.  Invariant: bytes [0, lo) of the window match
        # and a mismatch exists in [lo, hi).
        lo, hi = 0, step
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if a[pa + lo:pa + mid] == b[pb + lo:pb + mid]:
                lo = mid
            else:
                hi = mid
        return matched + lo
    return matched


def match_length_backward_reference(a: Buffer, a_end: int, b: Buffer, b_end: int,
                                    limit: Optional[int] = None) -> int:
    """Scalar oracle for :func:`match_length_backward`: one byte per step."""
    max_len = min(a_end, b_end)
    if limit is not None:
        max_len = min(max_len, limit)
    matched = 0
    while matched < max_len and a[a_end - matched - 1] == b[b_end - matched - 1]:
        matched += 1
    return matched


def match_length_backward(a: Buffer, a_end: int, b: Buffer, b_end: int,
                          limit: Optional[int] = None) -> int:
    """Length of the longest common suffix of ``a[:a_end]`` and ``b[:b_end]``.

    ``a_end``/``b_end`` are exclusive.  Used by the correcting algorithm
    to extend matches backwards over bytes previously classed as added.
    Same doubling-window + bisect strategy as :func:`match_length`,
    aligned from the right.
    """
    if not _FAST:
        return match_length_backward_reference(a, a_end, b, b_end, limit)
    max_len = min(a_end, b_end)
    if limit is not None and limit < max_len:
        max_len = limit
    if max_len <= 0:
        return 0
    matched = 0
    step = 16
    while matched < max_len:
        if step > max_len - matched:
            step = max_len - matched
        pa = a_end - matched
        pb = b_end - matched
        if a[pa - step:pa] == b[pb - step:pb]:
            matched += step
            step <<= 1
            continue
        # Mismatch within the rightmost `step` bytes of the window.
        # Invariant: the rightmost `lo` bytes match and a mismatch
        # exists among bytes (lo, hi].
        lo, hi = 0, step
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if a[pa - mid:pa - lo] == b[pb - mid:pb - lo]:
                lo = mid
            else:
                hi = mid
        return matched + lo
    return matched
