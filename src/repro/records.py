"""Framed records: the one codec the pack store and the device journal share.

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
"""

from __future__ import annotations

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


__all__ = ["BadRecord", "Record", "crc32", "encode_record", "scan_records"]
