"""What the pack store, the device journal and the pull client share.

A pack file (:mod:`repro.store.pack`) and a device journal
(:mod:`repro.device.journal`) are both log-structured streams of
self-checking records::

    record:  kind u8 | length varint | payload[length] | crc32 u32le

The CRC covers the kind byte, the length varint and the payload, so a
bit flip anywhere in a record is caught.  :func:`scan_records` walks a
stream up to the first record it cannot read and says whether a torn
final write explains that record; what damage *means* stays with the
caller — the pack reports it as ``StoreError(kind="torn")``, the
journal drops a torn tail and refuses anything else.
:func:`content_digest` and :func:`write_atomic` live here too, so the
pull client and the pipeline need not load the store for them.
"""

from __future__ import annotations

import hashlib
import os
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .delta.varint import decode_varint, encode_varint
from .exceptions import DeltaFormatError

Buffer = Union[bytes, bytearray, memoryview]

#: A length varint longer than this is corrupt (see :mod:`repro.delta.varint`).
_MAX_VARINT_BYTES = 10


def crc32(data: Buffer) -> int:
    return zlib.crc32(data) & 0xFFFFFFFF


def encode_record(kind: int, payload: Buffer) -> bytes:
    """One framed record: ``kind | varint len | payload | crc32``."""
    out = bytearray()
    out.append(kind)
    out.extend(encode_varint(len(payload)))
    out.extend(payload)
    out.extend(crc32(out).to_bytes(4, "little"))
    return bytes(out)


@dataclass(frozen=True)
class Record:
    """One intact record and where it lives in the scanned data."""

    kind: int
    #: Offset of the record's first byte (the kind byte).
    offset: int
    #: Total framed length, including the kind byte and trailing CRC.
    framed_length: int
    payload: bytes

    @property
    def end(self) -> int:
        return self.offset + self.framed_length


@dataclass(frozen=True)
class BadRecord:
    """The first record a scan could not read."""

    #: Offset of the bad record's kind byte.
    offset: int
    #: What is wrong with it, for error messages.
    reason: str
    #: The record runs to the end of the data, so a write cut short by
    #: a crash explains it; otherwise the data is corrupt.
    torn: bool
    #: End of the framed record when its length parsed, else ``None``.
    end: Optional[int] = None
    #: Stored and computed CRC32 when the CRC check failed.
    expected: Optional[int] = None
    actual: Optional[int] = None


def scan_records(data: Buffer, *, start: int = 0
                 ) -> Tuple[List[Record], Optional[BadRecord]]:
    """Walk records from ``start``; returns ``(intact, bad)``.

    ``bad`` is ``None`` when every byte parsed; otherwise it describes
    the first unreadable record, and every record before it is intact
    and returned.  Kinds are not checked here: which kinds exist is the
    caller's format.
    """
    view = memoryview(data)
    records: List[Record] = []
    pos = start
    total = len(view)
    while pos < total:
        try:
            length, body = decode_varint(view, pos + 1)
        except DeltaFormatError as exc:
            # A varint cut off by the end of the data is a torn write;
            # ten bytes with no terminator is corruption.
            return records, BadRecord(
                pos, str(exc), torn=total - (pos + 1) < _MAX_VARINT_BYTES)
        end = body + length + 4
        if end > total:
            return records, BadRecord(
                pos, "record extends past end of data", torn=True, end=end)
        stored = int.from_bytes(view[body + length:end], "little")
        computed = crc32(view[pos:body + length])
        if computed != stored:
            return records, BadRecord(
                pos, "record CRC mismatch", torn=end == total, end=end,
                expected=stored, actual=computed)
        records.append(Record(view[pos], pos, end - pos,
                              bytes(view[body:body + length])))
        pos = end
    return records, None


def content_digest(data: Buffer) -> str:
    """Content digest (sha1 hex) identifying a buffer's exact bytes.

    The one digest of every content-addressed surface (pack store keys,
    reference cache keys, shared-memory descriptors, the pull client's
    ``have``), so a digest computed once keys every layer.  Hashed
    zero-copy through a ``memoryview``; a non-contiguous view is copied
    once (sha1 needs a contiguous buffer).
    """
    view = memoryview(data)
    if not view.c_contiguous:
        view = memoryview(bytes(view))
    return hashlib.sha1(view).hexdigest()


def write_atomic(path: str, data: bytes, *, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` via tmp + fsync + rename.

    The rename is the commit point: a crash at any earlier byte leaves
    the previous file untouched.  The store's index and the pull
    client's :class:`~repro.serve.PullState` files are written here.
    """
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, path)
    if fsync:
        try:
            dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


__all__ = ["BadRecord", "Record", "content_digest", "crc32", "encode_record",
           "scan_records", "write_atomic"]
