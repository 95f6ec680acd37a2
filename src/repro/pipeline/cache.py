"""Shared, byte-budgeted cache of per-reference differencing state.

In a batch or serving deployment one reference file is diffed against
many version files (mirror sync, firmware fleets, web caches — the
client/server shape of DeltaFS and the file-sync literature), yet every
differencing call in this library rebuilt its reference-derived state
from scratch: the greedy algorithm's exhaustive
:class:`~repro.delta.rolling.FullSeedIndex`, the correcting algorithm's
half-pass :class:`~repro.delta.rolling.SeedTable`, and the one-pass
algorithm's reference-side rolling fingerprints.  All three artifacts
are pure functions of ``(reference bytes, seed parameters)``, so sharing
them across versions changes *nothing* about the output scripts — only
how often the per-byte construction loops run.

:class:`ReferenceIndexCache` is that sharing layer: an LRU keyed by the
reference's content digest plus the construction parameters, bounded by
an approximate byte budget.  It is thread-safe; cached artifacts are
treated as immutable after construction (the differs only read them),
so one instance can back a whole thread pool.  Process pools hold one
cache per worker process (see :mod:`repro.pipeline.executor`).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import perf
from ..store.digest import content_digest
from ..delta.rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    SeedTable,
    SparseSeedIndex,
    _seed_fingerprint_array,
    seed_fingerprints,
)

Buffer = Union[bytes, bytearray, memoryview]

#: Cached artifact kinds, one per differencing algorithm family (plus
#: the greedy family's sampled tier, see :meth:`ReferenceIndexCache.greedy_index`).
KIND_FULL_INDEX = "full-index"
KIND_SPARSE_INDEX = "sparse-index"
KIND_SEED_TABLE = "seed-table"
KIND_FINGERPRINTS = "fingerprints"

#: Differencing algorithm name -> the reference artifact it consumes.
#: Algorithms absent here (e.g. ``tichy``) build no reusable
#: reference-side state and bypass the cache.  ``"greedy"`` maps to the
#: full-index *family*: the cache serves either the full or the sparse
#: tier depending on how the reference prices against the budget.
ALGORITHM_KINDS: Dict[str, str] = {
    "greedy": KIND_FULL_INDEX,
    "correcting": KIND_SEED_TABLE,
    "onepass": KIND_FINGERPRINTS,
}

#: Rough per-stored-position overhead of a FullSeedIndex (dict entry,
#: list slot, int object) and per-fingerprint overhead of a fingerprint
#: list.  The budget is approximate by design: it exists to bound
#: memory, not to account it exactly.
_POSITION_BYTES = 120
_FINGERPRINT_BYTES = 36

#: Fraction of the cache budget one greedy index may claim before the
#: cache degrades it to the sparse tier.  Half the budget leaves room
#: for the other algorithms' artifacts (and a second reference) beside
#: the index, so serving greedy never monopolizes the LRU.
_GREEDY_INDEX_BUDGET_FRACTION = 0.5


@dataclass
class CacheStats:
    """Point-in-time counters of one :class:`ReferenceIndexCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total artifact requests served (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when untouched)."""
        total = self.lookups
        return self.hits / total if total else 0.0


class ReferenceIndexCache:
    """LRU cache of reference-derived differencing artifacts.

    ``max_bytes`` bounds the *estimated* resident size of the cached
    artifacts (plus the reference bytes an artifact keeps alive).  An
    artifact larger than the whole budget is built and returned but not
    retained.  All methods are safe to call from multiple threads;
    artifact construction runs under a *per-key* lock — a multi-second
    index build never blocks another thread's unrelated hit or build —
    while the double-checked key lock still guarantees each artifact is
    built at most once.
    """

    def __init__(self, max_bytes: int = 128 << 20):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive, got %d" % max_bytes)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, Tuple[object, int]]" = OrderedDict()
        self._build_locks: Dict[tuple, threading.Lock] = {}
        self._bytes = 0
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- keys ----------------------------------------------------------

    @staticmethod
    def digest(reference: Buffer) -> str:
        """Content digest identifying a reference buffer.

        Delegates to :func:`repro.store.content_digest` — the one
        digest every content-addressed layer shares, so a digest
        computed by the shared-memory executor (or the pack store) keys
        this cache directly.
        """
        return content_digest(reference)

    # Every getter below accepts an optional precomputed ``digest``:
    # the shared-memory executor publishes each reference once and ships
    # its digest in the buffer descriptor, so worker-side lookups key on
    # segment identity instead of re-hashing a multi-megabyte reference
    # per job.  A caller-supplied digest MUST equal
    # ``self.digest(reference)`` for those bytes — the cache trusts it.

    # -- core get-or-build --------------------------------------------

    def _lookup(self, key: tuple):
        """Under ``self._lock``: the cached entry for ``key``, counted
        as a hit and moved to the LRU tail, or ``None``."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self._hits += 1
            perf.add("cache.reference.hits")
        return entry

    def _fetch(
        self,
        key: tuple,
        build: Callable[[], object],
        estimate: Callable[[object], int],
    ) -> Tuple[object, bool]:
        """Return ``(artifact, was_hit)``, building and inserting on miss.

        Builds run under a per-key lock, not the global cache lock:
        concurrent fetches of *different* keys build in parallel (well,
        as parallel as the GIL allows — what matters is that a hit on an
        unrelated key returns immediately instead of queueing behind a
        multi-second index build), while concurrent fetches of the
        *same* key serialize on its key lock and all but the first find
        the entry at the double-check, preserving build-at-most-once.

        A key's build lock lives exactly as long as its entry: it stays
        in the lock map while the artifact is cached (so re-fetches of a
        hot key never re-allocate it) and is pruned the moment the entry
        is evicted — or immediately after the build, when the artifact
        was too large to retain.  Under eviction churn the lock map is
        therefore bounded by the entry map instead of growing one stale
        lock per key ever fetched.
        """
        with self._lock:
            entry = self._lookup(key)
            if entry is not None:
                return entry[0], True
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = threading.Lock()
        with build_lock:
            with self._lock:
                entry = self._lookup(key)
                if entry is not None:
                    return entry[0], True
                self._misses += 1
                perf.add("cache.reference.misses")
            retained = False
            try:
                value = build()
                nbytes = estimate(value)
                with self._lock:
                    if nbytes <= self.max_bytes:
                        self._entries[key] = (value, nbytes)
                        self._bytes += nbytes
                        retained = True
                        while self._bytes > self.max_bytes:
                            old_key, (_old_value, old_bytes) = \
                                self._entries.popitem(last=False)
                            self._bytes -= old_bytes
                            self._evictions += 1
                            if old_key == key:
                                retained = False
                            else:
                                self._build_locks.pop(old_key, None)
                            perf.add("cache.reference.evictions")
            finally:
                if not retained:
                    with self._lock:
                        if key not in self._entries:
                            self._build_locks.pop(key, None)
            return value, False

    # -- artifact getters ---------------------------------------------

    def full_index(
        self,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        max_candidates: int = 64,
        digest: Optional[str] = None,
    ) -> FullSeedIndex:
        """The greedy algorithm's exhaustive seed index for ``reference``.

        Always the full tier, regardless of how it prices; most callers
        want :meth:`greedy_index`, which degrades to the sparse tier
        when the full index would not fit the budget.
        """
        key = (KIND_FULL_INDEX, digest or self.digest(reference),
               seed_length, max_candidates)
        value, _hit = self._fetch(
            key,
            lambda: FullSeedIndex(reference, seed_length, max_candidates),
            lambda idx: len(reference) + _POSITION_BYTES * len(idx),
        )
        return value

    def greedy_stride(
        self,
        reference_len: int,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
    ) -> int:
        """The sampling stride the greedy tiers use for this reference.

        ``1`` means the full index fits its share of the budget
        (:data:`_GREEDY_INDEX_BUDGET_FRACTION`); otherwise the smallest
        ``k`` whose every-k-th-seed :class:`SparseSeedIndex` prices
        within that share.  Deterministic in ``(reference_len,
        seed_length, max_bytes)``, so every thread and worker process
        picks the same tier for the same reference.
        """
        positions = reference_len - seed_length + 1
        if positions <= 0:
            return 1
        budget = int(self.max_bytes * _GREEDY_INDEX_BUDGET_FRACTION)
        full_cost = _POSITION_BYTES * positions
        if reference_len + full_cost <= budget:
            return 1
        budget -= reference_len
        if budget <= 0:
            # The reference alone outweighs the index's budget share;
            # sample maximally so at least the artifact stays bounded.
            return positions
        return min(-(-full_cost // budget), positions)

    def greedy_index(
        self,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        max_candidates: int = 64,
        digest: Optional[str] = None,
    ) -> Union[FullSeedIndex, SparseSeedIndex]:
        """The greedy index tier that fits the budget for ``reference``.

        Small references get the exhaustive :class:`FullSeedIndex`; a
        reference whose full index would price over the cache's share of
        the budget (the old behaviour: built anyway, never retained, so
        every pipeline job rebuilt a >100MB index and thrashed the LRU)
        gets an every-k-th-seed :class:`SparseSeedIndex` with ``k`` from
        :meth:`greedy_stride` — sparse enough to be retained, so warm
        jobs skip construction entirely.  ``greedy_delta`` accepts
        either tier; with the sparse tier it compensates for sampling by
        extending verified matches backwards.
        """
        stride = self.greedy_stride(len(reference), seed_length=seed_length)
        if stride == 1:
            return self.full_index(reference, seed_length=seed_length,
                                   max_candidates=max_candidates,
                                   digest=digest)
        key = (KIND_SPARSE_INDEX, digest or self.digest(reference),
               seed_length, max_candidates, stride)
        value, _hit = self._fetch(
            key,
            lambda: SparseSeedIndex(reference, seed_length, max_candidates,
                                    stride=stride),
            lambda idx: len(reference) + _POSITION_BYTES * len(idx),
        )
        return value

    def seed_table(
        self,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        table_size: int = 1 << 16,
        digest: Optional[str] = None,
    ) -> SeedTable:
        """The correcting algorithm's half-pass FCFS seed table.

        The returned table is shared: callers must only :meth:`lookup`,
        never insert or clear.  It is charged what it holds when built
        (:attr:`SeedTable.nbytes`: probe arrays under the fast paths, a
        slot list otherwise).
        """
        key = (KIND_SEED_TABLE, digest or self.digest(reference),
               seed_length, table_size)
        value, _hit = self._fetch(
            key,
            lambda: SeedTable.from_fingerprints(
                _seed_fingerprint_array(reference, seed_length), table_size),
            lambda t: t.nbytes,
        )
        return value

    def fingerprints(
        self,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        digest: Optional[str] = None,
    ) -> List[int]:
        """Rolling Karp-Rabin fingerprints of every reference seed.

        ``result[i]`` equals the fingerprint a
        :class:`~repro.delta.rolling.RollingHash` reports with its window
        at offset ``i`` — the one-pass algorithm's reference-side scan
        state, precomputed once.
        """
        key = (KIND_FINGERPRINTS, digest or self.digest(reference), seed_length)
        value, _hit = self._fetch(
            key,
            lambda: seed_fingerprints(reference, seed_length),
            lambda fps: _FINGERPRINT_BYTES * len(fps),
        )
        return value

    # -- algorithm-level helpers --------------------------------------

    def artifact(
        self,
        algorithm: str,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        max_candidates: int = 64,
        table_size: int = 1 << 16,
        digest: Optional[str] = None,
    ) -> object:
        """Get-or-build the reference artifact ``algorithm`` consumes.

        Returns the greedy index tier (a
        :class:`~repro.delta.rolling.FullSeedIndex` or
        :class:`~repro.delta.rolling.SparseSeedIndex`, see
        :meth:`greedy_index`), the
        :class:`~repro.delta.rolling.SeedTable`, or the fingerprint list
        depending on the algorithm — the object its differ accepts as a
        prebuilt artifact (``index=`` / ``table=`` / ``fingerprints=``).
        Raises ``KeyError`` for algorithms with no cacheable state.
        """
        kind = ALGORITHM_KINDS[algorithm]
        if kind == KIND_FULL_INDEX:
            return self.greedy_index(reference, seed_length=seed_length,
                                     max_candidates=max_candidates,
                                     digest=digest)
        if kind == KIND_SEED_TABLE:
            return self.seed_table(reference, seed_length=seed_length,
                                   table_size=table_size, digest=digest)
        return self.fingerprints(reference, seed_length=seed_length,
                                 digest=digest)

    def has(
        self,
        algorithm: str,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        max_candidates: int = 64,
        table_size: int = 1 << 16,
        digest: Optional[str] = None,
    ) -> bool:
        """True when the artifact ``algorithm`` needs is already cached.

        Does not count as a lookup and does not touch LRU order; used by
        the pipeline to label per-job cache hits.  Always False for
        algorithms with no cacheable state.
        """
        kind = ALGORITHM_KINDS.get(algorithm)
        if kind is None:
            return False
        digest = digest or self.digest(reference)
        if kind == KIND_FULL_INDEX:
            # Same tier decision greedy_index makes, so the answer
            # matches the key an artifact fetch would use.
            stride = self.greedy_stride(len(reference),
                                        seed_length=seed_length)
            if stride == 1:
                key = (kind, digest, seed_length, max_candidates)
            else:
                key = (KIND_SPARSE_INDEX, digest, seed_length,
                       max_candidates, stride)
        elif kind == KIND_SEED_TABLE:
            key = (kind, digest, seed_length, table_size)
        else:
            key = (kind, digest, seed_length)
        with self._lock:
            return key in self._entries

    def warm(
        self,
        algorithm: str,
        reference: Buffer,
        *,
        seed_length: int = DEFAULT_SEED_LENGTH,
        max_candidates: int = 64,
        table_size: int = 1 << 16,
    ) -> bool:
        """Pre-build the artifact ``algorithm`` will need for ``reference``.

        Returns True when the artifact is now cached (built or already
        present), False for algorithms with no cacheable state.
        """
        kind = ALGORITHM_KINDS.get(algorithm)
        if kind is None:
            return False
        if kind == KIND_FULL_INDEX:
            self.greedy_index(reference, seed_length=seed_length,
                              max_candidates=max_candidates)
        elif kind == KIND_SEED_TABLE:
            self.seed_table(reference, seed_length=seed_length,
                            table_size=table_size)
        else:
            self.fingerprints(reference, seed_length=seed_length)
        return self.has(algorithm, reference, seed_length=seed_length,
                        max_candidates=max_candidates, table_size=table_size)

    # -- bookkeeping ---------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                entries=len(self._entries),
                current_bytes=self._bytes,
                max_bytes=self.max_bytes,
            )

    def clear(self) -> None:
        """Drop every cached artifact (counters are preserved)."""
        with self._lock:
            self._entries.clear()
            self._build_locks.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
