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

The seed fingerprints of an image are such an artifact too, and every
image in a release train is diffed from both sides: as a version, then
as the next version's reference.  The cache keeps one fingerprint array
per image (:meth:`ReferenceIndexCache.fingerprints`), the correcting
differ takes the version's array prebuilt, and a cold seed table is
built from the reference's cached array, so each image is fingerprinted
once however many diffs read it.

:class:`ReferenceIndexCache` is that sharing layer: a
:class:`repro.lru.LRU` keyed by the reference's content digest plus the
construction parameters, bounded by an approximate byte budget.  It is
thread-safe; cached artifacts are treated as immutable after
construction (the differs only read them), so one instance can back a
whole thread pool.  Process pools hold one cache per worker process
(see :mod:`repro.pipeline.executor`).
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..lru import LRU, CacheStats
from ..records import content_digest
from ..delta.rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    SeedTable,
    SparseSeedIndex,
    _seed_fingerprint_array,
    # Not called here; perfbench/tracing.py wraps this module attribute.
    seed_fingerprints,
)

Buffer = Union[bytes, bytearray, memoryview]

#: Cached artifact kinds, one per differencing algorithm family (plus
#: the greedy family's sampled tier, see :meth:`ReferenceIndexCache.artifact`).
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

#: Differencing algorithm name -> the keyword its differ takes the
#: prebuilt artifact through.  Both greedy tiers travel as ``index=``.
ARTIFACT_KEYWORDS: Dict[str, str] = {
    "greedy": "index",
    "correcting": "table",
    "onepass": "fingerprints",
}

#: Rough per-stored-position overhead of a FullSeedIndex (dict entry,
#: list slot, int object) and per-fingerprint overhead of a fingerprint
#: list (the scalar paths' form; an array is charged its buffer).  The
#: budget is approximate by design: it exists to bound memory, not to
#: account it exactly.
_POSITION_BYTES = 120
_FINGERPRINT_BYTES = 36

#: Fraction of the cache budget one greedy index may claim before the
#: cache degrades it to the sparse tier.  Half the budget leaves room
#: for the other algorithms' artifacts (and a second reference) beside
#: the index, so serving greedy never monopolizes the LRU.
_GREEDY_INDEX_BUDGET_FRACTION = 0.5


def _charge(kind: str, reference: Buffer, artifact) -> int:
    """Estimated resident bytes of one artifact (an index keeps its
    reference alive; a seed table is charged :attr:`SeedTable.nbytes`,
    which counts the fingerprint array it shares)."""
    if kind == KIND_SEED_TABLE:
        return artifact.nbytes
    if kind == KIND_FINGERPRINTS:
        return getattr(artifact, "nbytes", _FINGERPRINT_BYTES * len(artifact))
    return len(reference) + _POSITION_BYTES * len(artifact)


class ReferenceIndexCache:
    """LRU cache of reference-derived differencing artifacts.

    ``max_bytes`` bounds the *estimated* resident size of the cached
    artifacts (plus the reference bytes an artifact keeps alive).  An
    artifact larger than the whole budget is built and returned but not
    retained.  All methods are safe to call from multiple threads: the
    cache is a :class:`repro.lru.LRU`, so an artifact is built at most
    once, under a *per-key* lock — a multi-second index build never
    blocks another thread's unrelated hit or build.
    """

    def __init__(self, max_bytes: int = 128 << 20):
        if max_bytes <= 0:
            raise ValueError("max_bytes must be positive, got %d" % max_bytes)
        self.max_bytes = max_bytes
        self._lru = LRU(max_bytes, evictions="cache.reference.evictions")

    # -- keys ----------------------------------------------------------

    # artifact() and has() accept an optional precomputed ``digest``:
    # the pipeline hashes each job's reference once for both, and the
    # shared-memory executor ships the digest in the buffer descriptor,
    # so lookups key on it instead of re-hashing a multi-megabyte
    # reference.  A caller-supplied digest MUST equal
    # ``content_digest(reference)`` for those bytes — the cache trusts it.

    def _key(self, algorithm: str, reference: Buffer, digest: Optional[str],
             seed_length: int, max_candidates: int,
             table_size: int) -> tuple:
        """The cache key of ``algorithm``'s artifact: ``(kind, digest,
        *params)``.  A greedy request resolves its tier
        (:meth:`greedy_stride`): the sparse tier's key when the full
        index would price over its budget share."""
        kind = ALGORITHM_KINDS[algorithm]
        digest = digest or content_digest(reference)
        if kind == KIND_FULL_INDEX:
            stride = self.greedy_stride(len(reference),
                                        seed_length=seed_length)
            if stride > 1:
                return (KIND_SPARSE_INDEX, digest, seed_length,
                        max_candidates, stride)
            return (kind, digest, seed_length, max_candidates)
        if kind == KIND_SEED_TABLE:
            return (kind, digest, seed_length, table_size)
        return (kind, digest, seed_length)

    def _build(self, key: tuple, reference: Buffer) -> object:
        """The artifact ``key`` names; its parameters follow the digest."""
        kind, digest, params = key[0], key[1], key[2:]
        if kind == KIND_FULL_INDEX:
            return FullSeedIndex(reference, *params)
        if kind == KIND_SPARSE_INDEX:
            seed_length, max_candidates, stride = params
            return SparseSeedIndex(reference, seed_length, max_candidates,
                                   stride=stride)
        if kind == KIND_SEED_TABLE:
            seed_length, table_size = params
            return SeedTable.from_fingerprints(
                self.fingerprints(reference, seed_length=seed_length,
                                  digest=digest), table_size)
        return _seed_fingerprint_array(reference, *params)

    def _get(self, key: tuple, reference: Buffer,
             counter: str = "cache.reference") -> object:
        kind = key[0]
        return self._lru.get_or_build(
            key, lambda: self._build(key, reference),
            lambda artifact: _charge(kind, reference, artifact), counter)

    def greedy_stride(self, reference_len: int, *,
                      seed_length: int = DEFAULT_SEED_LENGTH) -> int:
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

    # -- lookups -------------------------------------------------------

    def artifact(self, algorithm: str, reference: Buffer, *,
                 seed_length: int = DEFAULT_SEED_LENGTH,
                 max_candidates: int = 64, table_size: int = 1 << 16,
                 digest: Optional[str] = None) -> object:
        """Get-or-build the reference artifact ``algorithm`` consumes.

        Returns the greedy index tier that fits the budget (a
        :class:`~repro.delta.rolling.FullSeedIndex`, or on a reference
        whose full index would price over its share an every-k-th-seed
        :class:`~repro.delta.rolling.SparseSeedIndex` with ``k`` from
        :meth:`greedy_stride`, sparse enough to be retained), the
        :class:`~repro.delta.rolling.SeedTable` (built from the
        reference's cached :meth:`fingerprints`), or the fingerprint
        array depending on the algorithm — the object its differ takes
        through the keyword :data:`ARTIFACT_KEYWORDS` names.  Callers
        only read it.  Counts ``cache.reference.hits``/``.misses``.
        Raises ``KeyError`` for algorithms with no cacheable state.
        """
        return self._get(self._key(algorithm, reference, digest,
                                   seed_length, max_candidates,
                                   table_size), reference)

    def fingerprints(self, image: Buffer, *,
                     seed_length: int = DEFAULT_SEED_LENGTH,
                     digest: Optional[str] = None):
        """Get-or-build the seed fingerprints of ``image``.

        One entry per image and seed length, keyed ``("fingerprints",
        content digest, seed_length)``: a uint64 array under the fast
        paths, a list otherwise, exactly what
        :func:`~repro.delta.rolling.seed_fingerprints` computes.  The
        correcting differ takes a version's array as
        ``version_fingerprints=``, and a cold seed table is built from
        its reference's array through this lookup, so an image diffed
        first as a version and then as a reference is fingerprinted
        once.  The one-pass artifact is this same entry.  Counts
        ``cache.fingerprints.hits``/``.misses``; ``digest``, when given,
        must equal ``content_digest(image)``.
        """
        key = (KIND_FINGERPRINTS, digest or content_digest(image),
               seed_length)
        return self._get(key, image, "cache.fingerprints")

    def has(self, algorithm: str, reference: Buffer, *,
            seed_length: int = DEFAULT_SEED_LENGTH,
            max_candidates: int = 64, table_size: int = 1 << 16,
            digest: Optional[str] = None) -> bool:
        """True when the artifact ``algorithm`` needs is already cached.

        Does not count as a lookup and does not touch LRU order; used by
        the pipeline to label per-job cache hits.  Always False for
        algorithms with no cacheable state.
        """
        return algorithm in ALGORITHM_KINDS and self._key(
            algorithm, reference, digest, seed_length, max_candidates,
            table_size) in self._lru

    def warm(self, algorithm: str, reference: Buffer, *,
             seed_length: int = DEFAULT_SEED_LENGTH,
             max_candidates: int = 64, table_size: int = 1 << 16) -> bool:
        """Pre-build the artifact ``algorithm`` will need for ``reference``.

        Returns True when the artifact is now cached (built or already
        present), False for algorithms with no cacheable state.
        """
        if algorithm not in ALGORITHM_KINDS:
            return False
        key = self._key(algorithm, reference, None, seed_length,
                        max_candidates, table_size)
        self._get(key, reference)
        return key in self._lru

    # -- bookkeeping ---------------------------------------------------

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the cache counters (every lookup:
        :meth:`artifact`, :meth:`warm` and :meth:`fingerprints`)."""
        return self._lru.stats

    def clear(self) -> None:
        """Drop every cached artifact (counters are preserved)."""
        self._lru.clear()

    def __len__(self) -> int:
        return len(self._lru)
