"""``PackStore``: the persistent content-addressed version store.

Many versions of many packages live in one generation-numbered pack
file as reference-anchored delta chains (the ROADMAP's "pack layer"):
each published image is stored either *full* or as an ``IPD2``
sequential delta against a similarity-chosen base — normally its
package's previous version, so the storage chain *is* the release
chain and :meth:`PackStore.chain` can hand a client K versions behind
one composed in-place delta (:func:`repro.core.compose.compose_chain`)
instead of K round-trips.

Storage policy, per publish (see :class:`StoreConfig`):

1. **Similarity grouping.**  Candidate bases are the package's most
   recent versions (``similarity_window``) plus the current chain's
   anchor; each is scored by probe containment — evenly-spaced
   substrings of the new image searched in the candidate (shift
   tolerant, C-speed ``bytes.find``) — and the best score of at least
   :data:`SIMILARITY_THRESHOLD` wins.  A probe is searched near where
   the previous one matched before the whole candidate is, and a
   candidate stops being scored once it can no longer win.
2. **Chain-depth limit.**  A candidate whose chain is already
   ``max_chain_depth`` deep is skipped; when every candidate is, the
   object is stored full (a fresh anchor), bounding reconstruction
   cost.
3. **Delta-vs-full fallback.**  The encoded delta is kept only when it
   is at most ``delta_max_ratio`` of the full image; otherwise the
   image is stored full (Snippet-1 style: "use delta only if smaller").

Durability: object/ref records are CRC-framed appends
(:mod:`repro.store.pack`), fsynced before the index is atomically
rewritten — the pack is the journal of record, the index a derived
cache.  A crash at *any* byte leaves either a recoverable stale index
(roll-forward) or a torn tail; both surface as structured
:class:`~repro.exceptions.StoreError` damage that :meth:`fsck` reports
and ``gc(repair=True)`` clears while keeping every intact object.
``gc`` also *repacks*: versions are re-deltified against the best base
the full history offers, unreachable objects (dropped versions, orphan
appends) are not copied, and chain depths reset.
"""

from __future__ import annotations

import fcntl
import os
import re
import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .. import perf
from ..core.apply import apply_delta, verify_reference
from ..core.commands import DeltaScript
from ..core.compose import compose_chain
from ..core.convert import make_in_place
from ..delta import ALGORITHMS
from ..delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    decode_delta,
    encode_delta,
    version_checksum,
)
from ..delta.rolling import (
    DEFAULT_SEED_LENGTH,
    SeedTable,
    _seed_fingerprint_array,
)
from ..exceptions import ReproError, StoreError
from ..lru import LRU
from ..records import Buffer, content_digest, write_atomic
from .pack import (
    INDEX_NAME,
    PACK_MAGIC,
    REC_OBJECT,
    REC_REF,
    ObjectInfo,
    Record,
    STORED_DELTA,
    STORED_FULL,
    StoreIndex,
    check_pack_header,
    decode_object_payload,
    encode_object_payload,
    encode_record,
    scan_records,
)

_PACK_RE = re.compile(r"^pack-(\d{6})\.pack$")

#: Writer lock file in the store directory (:meth:`PackStore._writer_lock`).
LOCK_NAME = "writer.lock"

#: What one cached hop-script command is charged against
#: ``StoreConfig.cache_bytes`` beyond its literal bytes: about the size
#: of a command object with its fields and its list slot in CPython.
_HOP_COMMAND_BYTES = 192


def _script_bytes(script: DeltaScript) -> int:
    """What a cached hop script or span is charged against
    ``StoreConfig.cache_bytes``."""
    return script.added_bytes + _HOP_COMMAND_BYTES * len(script)


#: Base choice: a candidate qualifies when at least this share of
#: :data:`SIMILARITY_PROBES` probes of :data:`SIMILARITY_PROBE_LEN`
#: bytes, evenly spaced over the new image, occur in it.
SIMILARITY_THRESHOLD = 0.6
SIMILARITY_PROBES = 32
SIMILARITY_PROBE_LEN = 24


def _pack_name(generation: int) -> str:
    return "pack-%06d.pack" % generation


@dataclass(frozen=True)
class StoreConfig:
    """Tuning knobs of one :class:`PackStore` (frozen, shareable).

    Mirrors :class:`~repro.pipeline.PipelineConfig`: a single frozen
    value object, ``dataclasses.replace`` for variants, ``validate()``
    raising ``ValueError`` on nonsense.
    """

    #: Differencing algorithm for stored deltas and chain hop re-diffs.
    algorithm: str = "correcting"
    #: Cycle-breaking policy used when :meth:`PackStore.chain` converts
    #: a composed delta for in-place application.
    policy: str = "local-min"
    #: Longest allowed base chain under any object.  A publish that
    #: would exceed it stores full instead — a fresh anchor.
    max_chain_depth: int = 8
    #: A delta is kept only when ``len(delta) <= ratio * len(image)``.
    delta_max_ratio: float = 0.8
    #: Images smaller than this are always stored full (framing and
    #: chain bookkeeping would outweigh the delta).
    min_delta_size: int = 256
    #: How many recent versions of the package are considered as bases.
    similarity_window: int = 4
    #: Byte budget of the store's LRU, shared by reconstructed objects,
    #: :meth:`PackStore.chain`'s hop scripts and composed spans, and the
    #: per-package seed tables publish carries forward (0 disables all
    #: four).
    cache_bytes: int = 32 << 20
    #: fsync pack appends and index renames (tests may disable for
    #: speed; real deployments should not).
    fsync: bool = True

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                "unknown algorithm %r; choose from %s"
                % (self.algorithm, ", ".join(sorted(ALGORITHMS))))
        if self.max_chain_depth < 1:
            raise ValueError("max_chain_depth must be >= 1")
        if not (0.0 < self.delta_max_ratio <= 1.0):
            raise ValueError("delta_max_ratio must be in (0, 1]")
        if self.min_delta_size < 0:
            raise ValueError("min_delta_size must be non-negative")
        if self.similarity_window < 1:
            raise ValueError("similarity_window must be >= 1")
        if self.cache_bytes < 0:
            raise ValueError("cache_bytes must be non-negative")


@dataclass
class FsckProblem:
    """One structured finding of :meth:`PackStore.fsck`."""

    #: ``torn`` / ``index`` / ``pack`` / ``object`` / ``chain`` /
    #: ``depth`` — aligned with :class:`~repro.exceptions.StoreError`
    #: kinds.
    kind: str
    detail: str
    digest: str = ""
    offset: int = -1

    def to_json(self) -> Dict[str, object]:
        return asdict(self)


@dataclass
class FsckReport:
    """Outcome of one full store verification."""

    packages: int = 0
    versions: int = 0
    objects: int = 0
    #: Versions whose full reconstruction was verified digest-exact.
    verified: int = 0
    pack_bytes: int = 0
    problems: List[FsckProblem] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def to_json(self) -> Dict[str, object]:
        return {"schema": "repro.store.fsck/1", "ok": self.ok,
                **asdict(self)}


@dataclass
class GcReport:
    """Outcome of one :meth:`PackStore.gc` repack."""

    objects_before: int = 0
    objects_after: int = 0
    pack_bytes_before: int = 0
    pack_bytes_after: int = 0
    #: Objects whose storage changed (full<->delta or a new base).
    redeltified: int = 0
    #: Unreachable objects (orphan appends, dropped versions) left out.
    dropped_objects: int = 0
    #: Versions trimmed by ``keep_last``.
    dropped_versions: int = 0
    #: Torn/unindexed tail bytes discarded by a repair.
    repaired_bytes: int = 0
    #: Structured damage cleared by this gc (empty when none existed).
    repaired: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {"schema": "repro.store.gc/1", **asdict(self)}


def _probes(data: bytes, count: int, length: int) -> Tuple[List[bytes], int]:
    """Evenly-spaced substrings of ``data`` for containment scoring, and
    the spacing between their starts (0 for a single probe)."""
    n = len(data)
    if n == 0:
        return [], 0
    if n <= length:
        return [data], 0
    count = max(1, min(count, n // length))
    if count == 1:
        return [data[:length]], 0
    step = (n - length) // (count - 1)
    return [data[i * step:i * step + length] for i in range(count)], step


def _probe_hits(probes: List[bytes], spacing: int, candidate: bytes,
                need: int) -> Optional[int]:
    """How many ``probes`` occur anywhere in ``candidate``, or ``None``
    as soon as the probes left cannot bring the count to ``need``.

    Shift tolerant (each probe is searched, not compared aligned), so
    insert/delete edits between versions degrade the count gradually
    instead of zeroing it the way aligned chunk hashing would.  Probes
    follow each other ``spacing`` bytes apart, so each is first searched
    within one spacing of where it is expected: one spacing past the
    previous probe's match.  Only a miss there scans the whole
    candidate, so a probe counts exactly when ``candidate.find(probe)
    >= 0``.
    """
    reach = len(probes)
    if reach < need:
        return None
    expect = 0
    for probe in probes:
        at = candidate.find(probe, max(0, expect - spacing),
                            expect + spacing + len(probe))
        if at < 0:
            at = candidate.find(probe)
        if at >= 0:
            expect = at + spacing
            continue
        reach -= 1
        if reach < need:
            return None
        expect += spacing
    return reach


class PackStore:
    """Persistent content-addressed pack store (see module docs).

    Satisfies the :class:`~repro.store.VersionStore` protocol, so a
    :class:`~repro.serve.daemon.DeltaServer` (or the campaign driver) serves
    from it directly.  All public methods are thread-safe under one
    re-entrant lock — the serve daemon calls :meth:`get` and
    :meth:`chain` from its encode thread pool.  :meth:`chain` holds the
    lock only for index and pack access, so its decode, diff, compose,
    convert and encode run while other callers proceed.

    Opening requires an initialized directory (:meth:`init`, or
    ``ipdelta store init``); a damaged store still *opens* — reads work
    on the intact state and :meth:`fsck` reports the damage — but
    refuses mutation until ``gc(repair=True)``.
    """

    def __init__(self, root: Union[str, Path],
                 config: Optional[StoreConfig] = None) -> None:
        self.config = config or StoreConfig()
        self.config.validate()
        self.root = Path(root)
        self._lock = threading.RLock()
        #: The store's one cache, under ``config.cache_bytes``: objects
        #: keyed by digest, hop scripts by ``(cur, nxt)`` digests
        #: (:meth:`_hop_script`), composed spans by ``("span", path)``
        #: (:meth:`_span`), each package's newest seed table by
        #: ``("seed-table", package)`` (:meth:`_diff`).
        self._cache = LRU(self.config.cache_bytes,
                          evictions="store.cache.evictions")
        #: Structured damage found while opening; non-empty blocks
        #: mutation (``publish``/plain ``gc``) until ``gc(repair=True)``.
        self.damage: List[StoreError] = []
        self._index = StoreIndex()
        with self._writer_lock(required=False):
            self._load()

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def init(cls, root: Union[str, Path],
             config: Optional[StoreConfig] = None) -> "PackStore":
        """Create an empty store at ``root`` (directory may exist)."""
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        if (root / INDEX_NAME).exists():
            raise StoreError("store already initialized at %s" % root,
                             kind="pack")
        cfg = config or StoreConfig()
        cfg.validate()
        name = _pack_name(1)
        write_atomic(str(root / name), bytes(PACK_MAGIC), fsync=cfg.fsync)
        index = StoreIndex(pack_name=name, pack_bytes=len(PACK_MAGIC))
        write_atomic(str(root / INDEX_NAME), index.to_bytes(),
                     fsync=cfg.fsync)
        return cls(root, cfg)

    def close(self) -> None:
        """Drop the cached reconstructions, hop scripts, spans and seed
        tables (no file handles stay open)."""
        self._cache.clear()

    def __enter__(self) -> "PackStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    @property
    def pack_path(self) -> Path:
        return self.root / self._index.pack_name

    @property
    def generation(self) -> int:
        match = _PACK_RE.match(self._index.pack_name)
        return int(match.group(1)) if match else 0

    # -- loading and recovery -------------------------------------------

    def _pack_files(self) -> List[str]:
        return sorted(name.name for name in self.root.glob("pack-*.pack")
                      if _PACK_RE.match(name.name))

    def _load(self) -> None:
        """Settle ``self._index`` from disk; damage degrades, never raises.

        Trust order: a CRC-valid index whose pack matches byte-for-byte
        is authoritative.  A pack *longer* than the index (crash between
        append and index rewrite) is rolled forward by scanning the
        tail.  Anything else — missing/corrupt index, shorter pack,
        torn records — falls back to scanning the newest readable pack
        and records structured damage for :meth:`fsck` /
        ``gc(repair=True)``.
        """
        self.damage = []
        index: Optional[StoreIndex] = None
        index_path = self.root / INDEX_NAME
        try:
            index = StoreIndex.from_bytes(index_path.read_bytes())
        except FileNotFoundError:
            self.damage.append(StoreError(
                "index file missing", kind="index"))
        except StoreError as exc:
            self.damage.append(exc)
        if index is not None and not (self.root / index.pack_name).is_file():
            self.damage.append(StoreError(
                "index names missing pack %r" % index.pack_name,
                kind="index"))
            index = None

        if index is None:
            packs = self._pack_files()
            if not packs:
                raise StoreError(
                    "%s is not a pack store (no index, no pack files); "
                    "run `ipdelta store init`" % self.root, kind="pack")
            # Newest generation first: a gc that crashed after writing
            # its new pack but before the index rename left equivalent
            # state in the higher generation.
            self._index = self._scan_state(packs[-1])
            return

        pack_path = self.root / index.pack_name
        pack_size = pack_path.stat().st_size
        if pack_size < index.pack_bytes:
            self.damage.append(StoreError(
                "index covers %d bytes but pack %s holds only %d (torn "
                "pack write)" % (index.pack_bytes, index.pack_name,
                                 pack_size),
                kind="index", offset=pack_size))
            self._index = self._scan_state(index.pack_name)
            return
        if pack_size > index.pack_bytes:
            # Crash between a fsynced append and the index rewrite: the
            # pack is ahead.  Roll the tail forward; intact records are
            # recovered, a torn final record is structural damage.
            data = pack_path.read_bytes()
            records, torn = scan_records(data, start=index.pack_bytes)
            self._replay(records, index)
            index.pack_bytes = (records[-1].end if records
                                else index.pack_bytes)
            self.damage.append(StoreError(
                "index stale: rolled forward %d record(s) past its "
                "coverage%s" % (len(records),
                                "; torn tail remains" if torn else ""),
                kind="index", offset=index.pack_bytes))
            if torn is not None:
                self.damage.append(torn)
        self._index = index
        if not self.damage:
            self._sweep_stale_packs()

    def _scan_state(self, pack_name: str) -> StoreIndex:
        """State rebuilt from scanning ``pack_name``; damage recorded."""
        path = self.root / pack_name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise StoreError("cannot read pack %s: %s" % (path, exc),
                             kind="pack")
        header_err = check_pack_header(data)
        if header_err is not None:
            self.damage.append(header_err)
            return StoreIndex(pack_name=pack_name, pack_bytes=len(data))
        records, torn = scan_records(data, start=len(PACK_MAGIC))
        if torn is not None:
            self.damage.append(torn)
        index = StoreIndex(pack_name=pack_name,
                           pack_bytes=(records[-1].end if records
                                       else len(PACK_MAGIC)))
        notes = self._replay(records, index)
        for note in notes:
            self.damage.append(note)
        return index

    def _replay(self, records: List[Record],
                index: StoreIndex) -> List[StoreError]:
        """Fold scanned ``records`` into ``index``; returns anomalies."""
        notes: List[StoreError] = []
        for rec in records:
            if rec.kind == REC_OBJECT:
                try:
                    header, data = decode_object_payload(rec.payload)
                    digest = str(header["digest"])
                    base = str(header.get("base", ""))
                    size = int(header["size"])
                except (StoreError, KeyError, TypeError, ValueError) as exc:
                    notes.append(StoreError(
                        "undecodable object record at offset %d: %s"
                        % (rec.offset, exc), kind="pack",
                        offset=rec.offset))
                    continue
                if base and base not in index.objects:
                    notes.append(StoreError(
                        "object %s references missing base %s"
                        % (digest[:12], base[:12]), kind="chain",
                        offset=rec.offset))
                    continue
                depth = index.objects[base].depth + 1 if base else 0
                index.objects[digest] = ObjectInfo(
                    digest=digest, offset=rec.offset,
                    framed_length=rec.framed_length,
                    stored=STORED_DELTA if base else STORED_FULL,
                    base=base, size=size, stored_size=len(data),
                    depth=depth)
            elif rec.kind == REC_REF:
                try:
                    header, _ = decode_object_payload(rec.payload)
                    package = str(header["package"])
                    digest = str(header["digest"])
                except (StoreError, KeyError, TypeError) as exc:
                    notes.append(StoreError(
                        "undecodable ref record at offset %d: %s"
                        % (rec.offset, exc), kind="pack",
                        offset=rec.offset))
                    continue
                if digest not in index.objects:
                    notes.append(StoreError(
                        "ref %s/%s names a missing object"
                        % (package, digest[:12]), kind="chain",
                        offset=rec.offset))
                    continue
                log = index.logs.setdefault(package, [])
                # Re-publish moves the version to the head (the
                # documented latest-ordering contract).
                if digest in log:
                    log.remove(digest)
                log.append(digest)
        return notes

    def _sweep_stale_packs(self) -> None:
        """Unlink pack generations the index no longer references
        (leftovers of a completed or abandoned gc) and stray tmp files."""
        for name in self._pack_files():
            if name != self._index.pack_name:
                try:
                    (self.root / name).unlink()
                except OSError:  # pragma: no cover - concurrent cleanup
                    pass
        for tmp in self.root.glob("*.tmp"):
            try:
                tmp.unlink()
            except OSError:  # pragma: no cover - concurrent cleanup
                pass

    @contextmanager
    def _writer_lock(self, *, required: bool = True):
        """Hold the exclusive ``fcntl.flock`` on :data:`LOCK_NAME`.

        ``publish``, ``gc`` and the load at open take it once per call:
        no two writers interleave appends, index rewrites or tmp-file
        sweeps, and no open sees half a publish.  A ``flock`` belongs to
        the open file, so two handles in one process exclude each other
        too.  ``required=False``: a directory that refuses the lock file
        (read-only media) still opens for reads.
        """
        path = self.root / LOCK_NAME
        try:
            fd: Optional[int] = os.open(path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError as exc:
            if required:
                raise StoreError("cannot take the writer lock %s: %s"
                                 % (path, exc), kind="pack") from exc
            fd = None
        try:
            if fd is not None:
                fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            if fd is not None:
                os.close(fd)

    def _follow(self) -> None:
        """Under the writer lock: reload if another writer gc'd (the
        pack is gone) or published (its length differs), or if this
        handle carries damage that another writer may have repaired."""
        try:
            moved = self.pack_path.stat().st_size != self._index.pack_bytes
        except OSError:
            moved = True
        if moved or self.damage:
            self._load()

    def _ensure_writable(self) -> None:
        if self.damage:
            raise StoreError(
                "store has %d unrepaired problem(s) (%s); run "
                "gc(repair=True) or `ipdelta store gc --repair`"
                % (len(self.damage),
                   "; ".join(sorted({d.kind for d in self.damage}))),
                kind="damaged")

    # -- the VersionStore surface ---------------------------------------

    def packages(self) -> List[str]:
        with self._lock:
            return sorted(p for p, log in self._index.logs.items() if log)

    def __contains__(self, package: str) -> bool:
        with self._lock:
            return bool(self._index.logs.get(package))

    def versions(self, package: str) -> List[str]:
        """Digests of ``package``'s versions, oldest publish first."""
        with self._lock:
            return list(self._index.logs[package])

    def latest(self, package: str) -> Tuple[str, bytes]:
        """(digest, bytes) of the most recently published version."""
        with self._lock:
            log = self._index.logs[package]
            if not log:
                raise KeyError(package)
            digest = log[-1]
            return digest, self._materialize(digest)

    def get(self, package: str, digest: str) -> bytes:
        """Exact bytes of one published version of ``package``.

        ``KeyError`` (matching :class:`~repro.store.MemoryStore`) when
        the package or digest is unknown;
        :class:`~repro.exceptions.StoreError` when the object exists
        but cannot be reconstructed intact.
        """
        with self._lock:
            if digest not in self._index.logs[package]:
                raise KeyError(digest)
            return self._materialize(digest)

    def publish(self, package: str, image: Buffer) -> str:
        """Register ``image`` as the newest version; returns its digest.

        Appends the CRC-framed object record (full or similarity-chosen
        delta, see the module docs) and a ref record, fsyncs, then
        atomically rewrites the index — the pack is the journal of
        record, so a crash anywhere loses at most the publish in
        flight, never an earlier object.  It first catches up with any
        other writer, so it appends after their records and picks bases
        among their versions too.
        """
        with self._lock, self._writer_lock():
            self._follow()
            self._ensure_writable()
            data = bytes(image)
            digest = content_digest(data)
            log = self._index.logs.get(package, [])
            chunks: List[bytes] = []
            new_info: Optional[ObjectInfo] = None
            if digest not in self._index.objects:
                stored, base, payload = self._encode_stored(
                    package, digest, data, log,
                    lambda d: self._materialize(d),
                    self._index.objects)
                depth = (self._index.objects[base].depth + 1 if base
                         else 0)
                record = encode_record(REC_OBJECT, encode_object_payload(
                    {"digest": digest, "base": base, "size": len(data)},
                    payload))
                new_info = ObjectInfo(
                    digest=digest, offset=0, framed_length=len(record),
                    stored=stored, base=base, size=len(data),
                    stored_size=len(payload), depth=depth)
                chunks.append(record)
            else:
                perf.add("store.publish.dedupe")
            chunks.append(encode_record(REC_REF, encode_object_payload(
                {"package": package, "digest": digest}, b"")))
            offsets = self._append(chunks)
            if new_info is not None:
                new_info.offset = offsets[0]
                self._index.objects[digest] = new_info
            log = self._index.logs.setdefault(package, [])
            if digest in log:
                log.remove(digest)
            log.append(digest)
            self._write_index()
            self._cache.put(digest, data, len(data))
            perf.add("store.publish")
            return digest

    def chain(self, package: str, have: str, want: str) -> Optional[bytes]:
        """One composed in-place payload from ``have`` to ``want``.

        Walks the package's publish log between the two digests,
        collecting one *plain* delta script per hop — the stored pack
        delta when the hop is storage-aligned (base == previous
        version), a fresh diff otherwise — folds them with
        :func:`~repro.core.compose.compose_chain`, converts the result
        for in-place application and encodes one ``IPD2`` payload: a
        client K versions behind costs one composition, not K
        round-trips and not a full re-diff.

        Each hop's script is computed once per store lifetime (see
        :meth:`_hop_script`), and so is each multi-hop fold, which
        extends the fold of its path minus the last hop (see
        :meth:`_span`).  The store lock covers only the log read, pack
        reads and reconstructions; decode, diff, compose, convert and
        encode run unlocked on in-memory bytes.  A version a concurrent
        ``gc(keep_last=...)`` drops mid-chain raises
        :class:`~repro.exceptions.StoreError` (``kind="chain"``).

        Returns ``None`` when the store cannot do better than a fresh
        encode (unknown digests, ``want`` not newer than ``have``), so
        callers fall back to their pipeline.  Perf counters:
        ``store.chain.collapsed`` (payloads built), ``store.chain.hops``
        (hops folded), ``store.chain.stored_hops`` vs
        ``store.chain.hop_diffs`` (storage-aligned vs other hops),
        ``store.chain.hop_cache.hits``/``.misses`` (hops served from
        the cache vs computed), ``store.chain.span_cache.hits``/
        ``.misses`` (folds served from the cache vs composed).
        """
        with self._lock:
            log = self._index.logs.get(package)
            if not log or have not in log or want not in log:
                return None
            start, stop = log.index(have), log.index(want)
            if stop <= start:
                return None
            path = log[start:stop + 1]
        hops = [self._hop_script(cur, nxt)
                for cur, nxt in zip(path, path[1:])]
        composed = self._span(path, hops)
        with self._lock:
            reference = self._materialize(have)
            target = self._materialize(want)
        converted = make_in_place(composed, reference,
                                  policy=self.config.policy)
        payload = encode_delta(
            converted.script, FORMAT_INPLACE,
            version_crc32=version_checksum(target),
            reference=reference)
        perf.add("store.chain.collapsed")
        perf.add("store.chain.hops", len(hops))
        return payload

    def _hop_script(self, cur: str, nxt: str) -> DeltaScript:
        """The plain script of one publish-log hop ``cur -> nxt``.

        Cached under the content-addressed key ``(cur, nxt)``: a script
        rebuilds ``nxt`` from ``cur`` however it was obtained, so no
        ``publish`` or ``gc`` ever invalidates it.  (A stored delta is
        this store's differ run on the same two versions, so either
        source leads to the same payload bytes.)  A miss reads the
        stored record (storage-aligned hop) or reconstructs both
        versions (any other hop) under the store lock, then decodes or
        re-diffs outside it.  The cache builds each hop once: concurrent
        misses wait on the hop's build lock, never while holding the
        store lock.
        """
        with self._lock:
            info = self._object_info(nxt)
            perf.add("store.chain.stored_hops"
                     if info.stored == STORED_DELTA and info.base == cur
                     else "store.chain.hop_diffs")

        def build() -> DeltaScript:
            with self._lock:
                info = self._object_info(nxt)
                stored = info.stored == STORED_DELTA and info.base == cur
                if stored:
                    _header, payload = self._read_object_record(info)
                else:
                    inputs = self._materialize(cur), self._materialize(nxt)
            if stored:
                return decode_delta(payload)[0]
            return ALGORITHMS[self.config.algorithm](*inputs)

        return self._cache.get_or_build((cur, nxt), build, _script_bytes,
                                        "store.chain.hop_cache")

    def _span(self, path: List[str], hops: List[DeltaScript]) -> DeltaScript:
        """The fold of ``hops``, the scripts of the publish-log ``path``.

        Cached under ``("span", tuple(path))``, the exact path and not
        only its two ends: a re-publish or a ``gc`` that changes the
        versions between two digests changes the key, so no stale fold
        is ever served.  The fold of ``path[:i + 1]`` is the fold of
        ``path[:i]`` composed with hop ``i - 1``, the same left fold
        :func:`~repro.core.compose.compose_chain` runs, so the longest
        cached prefix is extended one hop at a time, in a loop.  Each
        extension is built once through the cache's build locks and
        charged like a hop script.
        """
        if len(hops) == 1:
            return hops[0]
        span, done = hops[0], 1
        for end in range(len(path), 2, -1):
            cached = self._cache.get(("span", tuple(path[:end])))
            if cached is not None:
                perf.add("store.chain.span_cache.hits")
                span, done = cached, end - 1
                break
        for i in range(done, len(hops)):
            span = self._cache.get_or_build(
                ("span", tuple(path[:i + 2])),
                lambda prefix=span, hop=hops[i]: compose_chain([prefix, hop]),
                _script_bytes, "store.chain.span_cache")
        return span

    # -- introspection --------------------------------------------------

    def log(self, package: str) -> List[Dict[str, object]]:
        """Per-version storage facts of ``package``, oldest first."""
        with self._lock:
            entries = []
            for digest in self._index.logs[package]:
                info = self._index.objects[digest]
                entries.append({
                    "digest": digest,
                    "stored": info.stored,
                    "base": info.base,
                    "depth": info.depth,
                    "size": info.size,
                    "stored_size": info.stored_size,
                })
            return entries

    def stats(self) -> Dict[str, object]:
        """Whole-store facts for CLIs and tests."""
        with self._lock:
            objects = self._index.objects
            full = sum(1 for o in objects.values()
                       if o.stored == STORED_FULL)
            return {
                "root": str(self.root),
                "pack": self._index.pack_name,
                "pack_bytes": self._index.pack_bytes,
                "packages": len([p for p, log in self._index.logs.items()
                                 if log]),
                "versions": sum(len(v) for v in self._index.logs.values()),
                "objects": len(objects),
                "full_objects": full,
                "delta_objects": len(objects) - full,
                "object_bytes": sum(o.size for o in objects.values()),
                "stored_bytes": sum(o.stored_size
                                    for o in objects.values()),
                "max_depth": max((o.depth for o in objects.values()),
                                 default=0),
                "damage": [str(d) for d in self.damage],
            }

    # -- fsck -----------------------------------------------------------

    def fsck(self, *, verify_objects: bool = True) -> FsckReport:
        """Verify the whole store; never raises, always reports.

        Re-scans the pack from byte zero (the index is *checked
        against* the scan, not trusted), then — with ``verify_objects``
        — reconstructs every version through its full chain and demands
        the content digest match.  Every finding is a structured
        :class:`FsckProblem`; ``report.ok`` is the no-silent-loss bar
        the crash tests hold the store to.
        """
        with self._lock:
            report = FsckReport()
            for err in self.damage:
                report.problems.append(FsckProblem(
                    kind=err.kind or "pack", detail=str(err),
                    offset=err.offset))
            try:
                data = self.pack_path.read_bytes()
            except OSError as exc:
                report.problems.append(FsckProblem(
                    kind="pack", detail="cannot read pack: %s" % exc))
                return report
            report.pack_bytes = len(data)
            header_err = check_pack_header(data)
            if header_err is not None:
                report.problems.append(FsckProblem(
                    kind="pack", detail=str(header_err), offset=0))
                return report
            records, torn = scan_records(data, start=len(PACK_MAGIC))
            if torn is not None and not any(
                    p.kind == "torn" and p.offset == torn.offset
                    for p in report.problems):
                report.problems.append(FsckProblem(
                    kind="torn", detail=str(torn), offset=torn.offset))
            scanned = StoreIndex(pack_name=self._index.pack_name,
                                 pack_bytes=len(data))
            for note in self._replay(records, scanned):
                report.problems.append(FsckProblem(
                    kind=note.kind, detail=str(note), offset=note.offset))
            # The live state (index + roll-forward) must agree with the
            # scan — a divergence means the index cache lies about the
            # pack.
            if scanned.objects.keys() != self._index.objects.keys() \
                    or scanned.logs != self._index.logs:
                report.problems.append(FsckProblem(
                    kind="index",
                    detail="index state diverges from a full pack scan "
                           "(%d vs %d objects)"
                           % (len(self._index.objects),
                              len(scanned.objects))))
            report.objects = len(scanned.objects)
            report.packages = len([p for p, log in scanned.logs.items()
                                   if log])
            report.versions = sum(len(v) for v in scanned.logs.values())
            for info in scanned.objects.values():
                if info.depth > self.config.max_chain_depth:
                    report.problems.append(FsckProblem(
                        kind="depth",
                        detail="chain depth %d exceeds configured "
                               "maximum %d" % (info.depth,
                                               self.config.max_chain_depth),
                        digest=info.digest))
            if verify_objects:
                for package, log in sorted(scanned.logs.items()):
                    for digest in log:
                        try:
                            self._materialize(digest)
                        except ReproError as exc:
                            report.problems.append(FsckProblem(
                                kind="object",
                                detail="%s/%s does not reconstruct: %s"
                                % (package, digest[:12], exc),
                                digest=digest))
                        else:
                            report.verified += 1
            return report

    # -- gc / repack ----------------------------------------------------

    def gc(self, *, repair: bool = False,
           keep_last: Optional[int] = None) -> GcReport:
        """Repack into a fresh generation; optionally repair damage.

        Rewrites every reachable version — re-running base selection
        with full history, so objects re-deltify against better bases
        and chain depths reset — into ``pack-<gen+1>.pack``, then
        atomically switches the index and unlinks the old pack.  The
        index rename is the commit point: a crash anywhere during gc
        leaves the previous generation untouched.

        ``keep_last`` trims every package log to its newest N versions
        first (their objects become unreachable and are dropped).
        ``repair=True`` additionally accepts a damaged store: the
        intact state :meth:`_load` recovered is rewritten clean and the
        damage list cleared — the "recover all intact objects"
        guarantee the crash tests enumerate.
        """
        with self._lock, self._writer_lock():
            self._follow()
            if self.damage and not repair:
                raise StoreError(
                    "store is damaged; gc(repair=True) to rebuild from "
                    "the intact records", kind="damaged")
            if keep_last is not None and keep_last < 1:
                raise ValueError("keep_last must be >= 1")
            report = GcReport(
                objects_before=len(self._index.objects),
                pack_bytes_before=self.pack_path.stat().st_size
                if self.pack_path.is_file() else 0,
                repaired=[str(d) for d in self.damage],
            )
            report.repaired_bytes = max(
                0, report.pack_bytes_before - self._index.pack_bytes)
            logs: Dict[str, List[str]] = {}
            for package, log in sorted(self._index.logs.items()):
                kept = list(log)
                if keep_last is not None and len(kept) > keep_last:
                    report.dropped_versions += len(kept) - keep_last
                    kept = kept[-keep_last:]
                if kept:
                    logs[package] = kept

            new_name = _pack_name(self.generation + 1)
            blob = bytearray(PACK_MAGIC)
            new_index = StoreIndex(pack_name=new_name)
            for package, log in sorted(logs.items()):
                new_log = new_index.logs.setdefault(package, [])
                for digest in log:
                    if digest not in new_index.objects:
                        data = self._materialize(digest)
                        stored, base, payload = self._encode_stored(
                            package, digest, data, new_log,
                            lambda d: self._materialize(d),
                            new_index.objects)
                        record = encode_record(
                            REC_OBJECT, encode_object_payload(
                                {"digest": digest, "base": base,
                                 "size": len(data)}, payload))
                        new_index.objects[digest] = ObjectInfo(
                            digest=digest, offset=len(blob),
                            framed_length=len(record), stored=stored,
                            base=base, size=len(data),
                            stored_size=len(payload),
                            depth=(new_index.objects[base].depth + 1
                                   if base else 0))
                        blob += record
                        old = self._index.objects[digest]
                        if (old.stored, old.base) != (stored, base):
                            report.redeltified += 1
                            perf.add("store.gc.redeltified")
                    blob += encode_record(REC_REF, encode_object_payload(
                        {"package": package, "digest": digest}, b""))
                    new_log.append(digest)
            new_index.pack_bytes = len(blob)

            # New pack first (its name is the commit token), fsynced;
            # then the atomic index switch; then old generations die.
            write_atomic(str(self.root / new_name), bytes(blob),
                         fsync=self.config.fsync)
            write_atomic(str(self.root / INDEX_NAME),
                         new_index.to_bytes(), fsync=self.config.fsync)
            report.dropped_objects = (len(self._index.objects)
                                      - len(new_index.objects))
            self._index = new_index
            self.damage = []
            self._sweep_stale_packs()
            report.objects_after = len(new_index.objects)
            report.pack_bytes_after = new_index.pack_bytes
            perf.add("store.gc")
            return report

    # -- storage internals ----------------------------------------------

    def _encode_stored(
        self,
        package: str,
        digest: str,
        data: bytes,
        log: List[str],
        get_bytes: Callable[[str], bytes],
        objects: Dict[str, ObjectInfo],
    ) -> Tuple[str, str, bytes]:
        """Pick full-vs-delta storage for ``data``: ``(kind, base, payload)``.

        ``package``'s version ``digest`` lands in the state ``log`` /
        ``objects`` describe (the live index during publish, the
        under-construction one during gc), so both paths share one
        policy.
        """
        cfg = self.config
        if len(data) < cfg.min_delta_size or not log:
            perf.add("store.publish.full")
            return STORED_FULL, "", data
        candidates: List[ObjectInfo] = []
        seen = set()
        for recent in reversed(log[-cfg.similarity_window:]):
            info = objects.get(recent)
            if info is not None and recent not in seen:
                seen.add(recent)
                candidates.append(info)
        # The newest chain's anchor: the re-anchor target that keeps a
        # long-lived package from alternating full/delta at the depth
        # boundary.
        anchor = objects.get(log[-1])
        while anchor is not None and anchor.base:
            anchor = objects.get(anchor.base)
        if anchor is not None and anchor.digest not in seen:
            candidates.append(anchor)
        probes, spacing = _probes(data, SIMILARITY_PROBES,
                                  SIMILARITY_PROBE_LEN)
        # A candidate wins with a score (hits / probes) of at least the
        # threshold that beats every earlier one: at least ``need`` hits.
        n = len(probes)
        need = next((h for h in range(1, n + 1)
                     if h / n >= SIMILARITY_THRESHOLD), n + 1)
        best: Optional[ObjectInfo] = None
        best_bytes = b""
        for info in candidates:
            if info.depth + 1 > cfg.max_chain_depth:
                perf.add("store.publish.depth_limited")
                continue
            base_bytes = get_bytes(info.digest)
            hits = _probe_hits(probes, spacing, base_bytes, need)
            if hits is not None:
                best, best_bytes, need = info, base_bytes, hits + 1
        if best is None:
            perf.add("store.publish.full")
            return STORED_FULL, "", data
        script = self._diff(package, digest, data, best.digest, best_bytes,
                            best.depth + 1)
        payload = encode_delta(script, FORMAT_SEQUENTIAL,
                               version_crc32=version_checksum(data),
                               reference=best_bytes)
        if len(payload) > cfg.delta_max_ratio * len(data):
            # Delta-vs-full fallback: similar-looking but a poor delta.
            perf.add("store.publish.fallback")
            perf.add("store.publish.full")
            return STORED_FULL, "", data
        perf.add("store.publish.delta")
        return STORED_DELTA, best.digest, payload

    def _diff(self, package: str, digest: str, data: bytes,
              base: str, base_bytes: bytes, depth: int) -> DeltaScript:
        """Diff version ``digest`` of ``package``, to be stored at chain
        ``depth``, against ``base``.

        Under the correcting differ a package's publishes form a train:
        each version is usually the next one's base.  The store keeps
        the half-pass seed table of the package's newest version that
        can still be a base in its LRU (key ``("seed-table", package)``,
        at most one per package, charged
        :attr:`~repro.delta.SeedTable.nbytes`):

        - the version's own table when ``depth`` is below
          ``max_chain_depth``, built by the differ from the version
          fingerprints its full pass computes anyway;
        - otherwise the base's table this diff read, because the
          depth-limited re-bases that follow pick that base again.

        When the next diff's base is the kept version, the table is
        passed in as ``table=`` and the base is not fingerprinted again
        (``store.publish.table_reused``); any other base's table is
        built here.  A table is a pure function of its version's bytes,
        so scripts are identical either way.
        """
        differ = ALGORITHMS[self.config.algorithm]
        if self.config.algorithm != "correcting" or \
                self.config.cache_bytes <= 0:
            return differ(base_bytes, data)
        key = ("seed-table", package)
        kept = self._cache.pop(key)
        if kept is not None and kept[0] == base:
            table = kept[1]
            perf.add("store.publish.table_reused")
        else:
            table = SeedTable.from_fingerprints(
                _seed_fingerprint_array(base_bytes, DEFAULT_SEED_LENGTH))
        if depth < self.config.max_chain_depth:
            script, version_table = differ(base_bytes, data, table=table,
                                           return_version_table=True)
            kept = digest, version_table
        else:
            script = differ(base_bytes, data, table=table)
            kept = base, table
        self._cache.put(key, kept, kept[1].nbytes)
        return script

    def _append(self, chunks: List[bytes]) -> List[int]:
        """Append framed records to the pack; returns their offsets."""
        offsets = []
        pos = self._index.pack_bytes
        blob = bytearray()
        for chunk in chunks:
            offsets.append(pos + len(blob))
            blob += chunk
        with open(self.pack_path, "r+b") as handle:
            handle.seek(self._index.pack_bytes)
            handle.write(blob)
            handle.truncate()
            handle.flush()
            if self.config.fsync:
                os.fsync(handle.fileno())
        self._index.pack_bytes += len(blob)
        return offsets

    def _write_index(self) -> None:
        write_atomic(str(self.root / INDEX_NAME), self._index.to_bytes(),
                     fsync=self.config.fsync)

    def _object_info(self, digest: str) -> ObjectInfo:
        info = self._index.objects.get(digest)
        if info is None:
            raise StoreError("no object %s in the store" % digest[:12],
                             kind="chain")
        return info

    def _read_object_record(self, info: ObjectInfo
                            ) -> Tuple[Dict[str, object], bytes]:
        """Re-verify and decode one object record from the pack."""
        with open(self.pack_path, "rb") as handle:
            handle.seek(info.offset)
            framed = handle.read(info.framed_length)
        records, torn = scan_records(framed)
        if torn is not None or not records:
            raise StoreError(
                "object record for %s unreadable at offset %d"
                % (info.digest[:12], info.offset), kind="object",
                offset=info.offset)
        return decode_object_payload(records[0].payload)

    def _materialize(self, digest: str) -> bytes:
        """Reconstruct one object through its chain, digest-verified."""
        cached = self._cache.get(digest)
        if cached is not None:
            perf.add("store.cache.hits")
            return cached
        info = self._object_info(digest)
        header, payload = self._read_object_record(info)
        if str(header.get("digest")) != digest:
            raise StoreError(
                "object record at offset %d claims digest %s, index "
                "says %s" % (info.offset,
                             str(header.get("digest"))[:12], digest[:12]),
                kind="object", offset=info.offset)
        if info.base:
            base = self._materialize(info.base)
            script, delta_header = decode_delta(payload)
            verify_reference(delta_header, base)
            data = bytes(apply_delta(script, base))
        else:
            data = payload
        if content_digest(data) != digest:
            raise StoreError(
                "object %s reconstructs to the wrong bytes"
                % digest[:12], kind="object", offset=info.offset)
        self._cache.put(digest, data, len(data))
        perf.add("store.cache.misses")
        return data


__all__ = [
    "FsckProblem",
    "FsckReport",
    "GcReport",
    "PackStore",
    "StoreConfig",
]
