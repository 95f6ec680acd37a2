"""Zero-copy shared-memory transport for the batch pipeline.

The ``"process"`` executor pickles every reference and version across
the process boundary, so a batch of N multi-megabyte versions against
one reference ships the reference N times through a pipe — exactly the
large-buffer jobs where true parallelism should win are the ones where
serialization dominates.  This module is the zero-copy alternative the
``"process-shm"`` executor uses:

* the parent *publishes* each buffer once into a POSIX shared-memory
  segment (:class:`SharedBufferArena`, a small ref-counted registry
  with deterministic unlink-on-close);
* workers receive a tiny :class:`SharedBufferDescriptor` — ``(segment
  name, offset, length, digest)`` — and map the bytes zero-copy with
  :class:`SegmentMapping` (a read-only ``memoryview``, no pickling, no
  pipe transfer);
* the content ``digest`` travels with the descriptor, so the per-worker
  :class:`~repro.pipeline.cache.ReferenceIndexCache` keys on segment
  identity instead of re-hashing a multi-megabyte reference per job.

**Cleanup guarantees.**  Publishing is always paired with release
inside a ``try/finally`` in the executor, the arena is a context
manager whose ``close()`` unlinks every live segment, and a module
``atexit`` sweep closes any arena that was never closed — so no
``/dev/shm`` segment outlives the process even under fault injection
(``diff.worker`` faults, stage timeouts, or an injected ``device.power``
cut mid-batch).  On Linux, unlinking while a worker still holds a
mapping is safe: the name disappears immediately and the memory is
reclaimed when the last mapping closes.

Worker-side attach avoids :mod:`multiprocessing.resource_tracker`
churn by mapping ``/dev/shm/<name>`` directly (read-only) where the
platform exposes it, falling back to a plain
:class:`~multiprocessing.shared_memory.SharedMemory` attach elsewhere.
"""

from __future__ import annotations

import atexit
import mmap
import os
import threading
import uuid
import weakref
from dataclasses import dataclass
from typing import Dict, Tuple, Union

from multiprocessing import shared_memory

from ..records import content_digest as _content_digest

Buffer = Union[bytes, bytearray, memoryview]

#: Directory where Linux exposes POSIX shared-memory segments.  When it
#: exists, workers map segments from it directly (read-only, no
#: resource-tracker registration); otherwise they attach through
#: :class:`~multiprocessing.shared_memory.SharedMemory`.
SHM_DIR = "/dev/shm"


@dataclass(frozen=True)
class SharedBufferDescriptor:
    """A pickle-cheap handle to one published buffer.

    ``segment`` is the POSIX shared-memory name (empty for a zero-length
    buffer, which needs no segment), ``offset``/``length`` locate the
    bytes inside it, and ``digest`` is the content digest when the
    buffer was published with deduplication (empty otherwise — transient
    buffers such as per-job versions skip the hash).
    """

    segment: str
    offset: int
    length: int
    digest: str = ""


class _Segment:
    """One live shared-memory segment plus its reference count."""

    __slots__ = ("shm", "refcount", "digest")

    def __init__(self, shm: shared_memory.SharedMemory, digest: str):
        self.shm = shm
        self.refcount = 1
        self.digest = digest


#: Arenas that have not been closed yet; the atexit sweep closes them so
#: an abandoned arena (a crashed bench, an unhandled exception path that
#: skipped ``close()``) cannot orphan ``/dev/shm`` segments.
_LIVE_ARENAS: "weakref.WeakSet[SharedBufferArena]" = weakref.WeakSet()


def _sweep_arenas() -> None:
    for arena in list(_LIVE_ARENAS):
        arena.close()


atexit.register(_sweep_arenas)


class SharedBufferArena:
    """Ref-counted registry of buffers published into shared memory.

    ``publish`` copies a buffer into a fresh segment (or, with
    deduplication, bumps the refcount of the segment already holding
    identical bytes) and returns a :class:`SharedBufferDescriptor`;
    ``release`` drops one reference and unlinks the segment when the
    last one goes.  ``close`` — also run by the context-manager exit and
    by the module's ``atexit`` sweep — unlinks everything still live,
    making cleanup deterministic even when callers bail out mid-batch.

    Thread-safe: the executor publishes from the submission loop while
    drive tasks release from pool threads.
    """

    def __init__(self, prefix: str = "ipd"):
        # PID + random suffix: unique across concurrent pipelines and
        # across runs, and recognizably ours in /dev/shm listings.
        self._prefix = "%s-%d-%s" % (prefix, os.getpid(), uuid.uuid4().hex[:8])
        self._lock = threading.Lock()
        self._segments: Dict[str, _Segment] = {}
        self._by_digest: Dict[str, str] = {}
        # id(buffer) -> (pinned buffer, segment name).  Pinning the
        # buffer object keeps the id stable for the memo's lifetime, so
        # re-publishing the same object (the common one-reference batch)
        # skips even the digest.
        self._by_id: Dict[int, Tuple[object, str]] = {}
        self._serial = 0
        self._closed = False
        _LIVE_ARENAS.add(self)

    # -- publishing ----------------------------------------------------

    def publish(self, data: Buffer, *, dedupe: bool = True) -> SharedBufferDescriptor:
        """Copy ``data`` into shared memory; returns its descriptor.

        With ``dedupe`` (the default, meant for reference buffers) the
        buffer is content-hashed and publishing identical bytes twice
        returns the same segment with its refcount bumped — a batch of N
        jobs against one reference publishes it once.  ``dedupe=False``
        (per-job version buffers) skips the hash and always creates a
        fresh segment; its descriptor carries no digest.
        """
        length = len(data)
        if length == 0:
            # No segment needed; release() treats "" as a no-op.
            return SharedBufferDescriptor("", 0, 0,
                                          _content_digest(b"") if dedupe else "")
        with self._lock:
            if self._closed:
                raise ValueError("arena is closed")
            if dedupe:
                memo = self._by_id.get(id(data))
                if memo is not None and memo[0] is data:
                    name = memo[1]
                    segment = self._segments[name]
                    segment.refcount += 1
                    return SharedBufferDescriptor(name, 0, length,
                                                  segment.digest)
                digest = _content_digest(data)
                name = self._by_digest.get(digest)
                if name is not None:
                    segment = self._segments[name]
                    segment.refcount += 1
                    self._by_id[id(data)] = (data, name)
                    return SharedBufferDescriptor(name, 0, length, digest)
            else:
                digest = ""
            self._serial += 1
            name = "%s-%d" % (self._prefix, self._serial)
            shm = shared_memory.SharedMemory(name=name, create=True,
                                             size=length)
            shm.buf[:length] = bytes(data) if isinstance(data, memoryview) \
                else data
            self._segments[name] = _Segment(shm, digest)
            if dedupe:
                self._by_digest[digest] = name
                self._by_id[id(data)] = (data, name)
            return SharedBufferDescriptor(name, 0, length, digest)

    def release(self, descriptor: SharedBufferDescriptor) -> None:
        """Drop one reference; the last release unlinks the segment."""
        if not descriptor.segment:
            return
        with self._lock:
            segment = self._segments.get(descriptor.segment)
            if segment is None:
                return  # already unlinked (close() won the race)
            segment.refcount -= 1
            if segment.refcount > 0:
                return
            self._unlink_locked(descriptor.segment, segment)

    def _unlink_locked(self, name: str, segment: _Segment) -> None:
        del self._segments[name]
        if segment.digest:
            self._by_digest.pop(segment.digest, None)
            for key in [k for k, (_, n) in self._by_id.items() if n == name]:
                del self._by_id[key]
        try:
            segment.shm.close()
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - external unlink
            pass

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Unlink every live segment (idempotent, refcounts ignored)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for name, segment in list(self._segments.items()):
                self._unlink_locked(name, segment)
            self._by_id.clear()
        _LIVE_ARENAS.discard(self)

    def __enter__(self) -> "SharedBufferArena":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- introspection -------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def refcount(self, descriptor: SharedBufferDescriptor) -> int:
        """Current reference count of the descriptor's segment (0 = gone)."""
        with self._lock:
            segment = self._segments.get(descriptor.segment)
            return segment.refcount if segment is not None else 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)


class SegmentMapping:
    """A worker-side zero-copy view of one published buffer.

    ``buf`` is a :class:`memoryview` of the published bytes.  On Linux
    the segment file is mapped read-only straight out of ``/dev/shm``
    (no resource-tracker registration, so the tracker never tries to
    clean up a segment the parent owns); elsewhere it attaches through
    :class:`~multiprocessing.shared_memory.SharedMemory`.

    ``close()`` releases the view and the mapping; a mapping whose view
    is still referenced elsewhere (an exception traceback holding a
    frame, say) degrades to staying mapped until process exit rather
    than raising — the segment *name* is owned and unlinked by the
    publishing side either way, so this can never leak ``/dev/shm``
    entries.
    """

    __slots__ = ("buf", "_mmap", "_shm")

    def __init__(self, descriptor: SharedBufferDescriptor):
        self._mmap = None
        self._shm = None
        if descriptor.length == 0 or not descriptor.segment:
            self.buf = memoryview(b"")
            return
        end = descriptor.offset + descriptor.length
        path = os.path.join(SHM_DIR, descriptor.segment)
        if hasattr(mmap, "PROT_READ") and os.path.exists(path):
            fd = os.open(path, os.O_RDONLY)
            try:
                self._mmap = mmap.mmap(fd, end, prot=mmap.PROT_READ)
            finally:
                os.close(fd)
            self.buf = memoryview(self._mmap)[descriptor.offset:end]
        else:  # pragma: no cover - non-Linux fallback
            self._shm = shared_memory.SharedMemory(name=descriptor.segment)
            self.buf = self._shm.buf[descriptor.offset:end]

    def close(self) -> None:
        """Release the view and unmap (best-effort, never raises)."""
        try:
            self.buf.release()
        except (AttributeError, BufferError):  # pragma: no cover
            pass
        try:
            if self._mmap is not None:
                self._mmap.close()
            if self._shm is not None:  # pragma: no cover - non-Linux
                self._shm.close()
        except BufferError:
            # A view escaped (e.g. an exception traceback pinning a
            # frame).  Keep the mapping; process exit reclaims it.
            pass
        self._mmap = None
        self._shm = None
