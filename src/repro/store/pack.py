"""The pack container: CRC-framed records and the derived index.

One pack file holds every object of a :class:`~repro.store.PackStore`
generation as a flat sequence of self-describing records, framed by
the codec the device journal uses too (:mod:`repro.records`): every
record carries its own CRC32, so a crash mid-append leaves a *torn
tail* that scanning detects structurally instead of misparsing::

    pack:    magic "IPK1" | record*
    record:  kind u8 | length varint | payload[length] | crc32 u32le

The CRC covers the kind byte, the length varint and the payload, so a
bit flip anywhere in a record (not just its payload) is caught.  Three
record kinds exist:

* ``REC_OBJECT`` — one content-addressed object.  The payload is a
  small JSON header (``digest``, and ``base`` when the object is
  stored as a delta) followed by the data: the raw bytes for a full
  object, an ``IPD2`` *sequential* delta (reference digest + trailer
  CRC included, see :mod:`repro.delta.encode`) for a deltified one.
* ``REC_REF`` — one publish event: ``{package, digest}``.  Version
  membership and order are derived *only* from these records, so a
  pack prefix always reproduces the exact history up to the tear, and
  an object record whose ref record was lost is mere garbage, never
  silent corruption.
* ``REC_NOTE`` — free-form metadata (reserved; scanned and ignored).

**Invariant:** a delta object's base record always precedes it in the
pack (publish appends in dependency order and ``gc`` rewrites in log
order), so any intact prefix is closed under base references.

The index file (``index.json``) is a *derived cache* of a full scan —
objects with offsets, per-package logs, chain depths — plus the pack
generation it describes and a CRC of its own body.  It is written
atomically (tmp + fsync + rename) and trusted only while it matches
the pack; any disagreement degrades the store to a scan (see
:meth:`~repro.store.PackStore._load`), never a misread.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..delta.varint import decode_varint, encode_varint
from ..exceptions import StoreError
from ..records import Buffer, BadRecord, Record, crc32, encode_record
from ..records import scan_records as scan_framed

#: Pack container magic ("In-place Pack, v1").
PACK_MAGIC = b"IPK1"

REC_OBJECT = 0x01
REC_REF = 0x02
REC_NOTE = 0x03
_KNOWN_KINDS = (REC_OBJECT, REC_REF, REC_NOTE)

#: Object storage kinds, as recorded in the index.
STORED_FULL = "full"
STORED_DELTA = "delta"

INDEX_SCHEMA = "repro.store.index/1"
INDEX_NAME = "index.json"


def encode_object_payload(header: Dict[str, object], data: Buffer) -> bytes:
    """An object/ref record payload: ``varint len(header) | header | data``.

    The header is canonical JSON (sorted keys, no whitespace) so the
    same logical record is byte-identical across writes.
    """
    head = json.dumps(header, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
    return b"".join((encode_varint(len(head)), head, bytes(data)))


def decode_object_payload(payload: Buffer
                          ) -> Tuple[Dict[str, object], bytes]:
    """Inverse of :func:`encode_object_payload`."""
    view = memoryview(payload)
    try:
        head_len, pos = decode_varint(view, 0)
        head = json.loads(bytes(view[pos:pos + head_len]).decode("utf-8"))
    except Exception as exc:
        raise StoreError("unparseable record header: %s" % exc,
                         kind="pack") from None
    if not isinstance(head, dict):
        raise StoreError("record header is not an object", kind="pack")
    return head, bytes(view[pos + head_len:])


def scan_records(data: Buffer, *, start: int = 0
                 ) -> Tuple[List[Record], Optional[StoreError]]:
    """Walk pack records from ``start``; returns ``(intact, damage)``.

    ``damage`` is ``None`` for a clean scan, otherwise a structured
    :class:`~repro.exceptions.StoreError` (``kind="torn"``) describing
    the first unreadable record or unknown kind — every record *before*
    it is intact and returned.  A torn or bit-flipped tail therefore
    never hides the intact prefix.
    """
    records, bad = scan_framed(data, start=start)
    for i, record in enumerate(records):
        if record.kind not in _KNOWN_KINDS:
            bad = BadRecord(
                record.offset, "unknown record kind 0x%02x" % record.kind,
                torn=False)
            records = records[:i]
            break
    if bad is None:
        return records, None
    return records, StoreError(
        "torn or corrupt pack record at offset %d: %s"
        % (bad.offset, bad.reason), kind="torn", offset=bad.offset)


def check_pack_header(data: Buffer) -> Optional[StoreError]:
    """``None`` when ``data`` starts with the pack magic."""
    if len(data) < len(PACK_MAGIC):
        return StoreError("pack file shorter than its magic", kind="pack",
                          offset=0)
    if bytes(data[:len(PACK_MAGIC)]) != PACK_MAGIC:
        return StoreError("bad pack magic %r" % bytes(data[:4]), kind="pack",
                          offset=0)
    return None


# -- the index codec ----------------------------------------------------


@dataclass
class ObjectInfo:
    """Where one object lives and how it is stored."""

    digest: str
    #: Pack offset of the framed record holding it.
    offset: int
    #: Framed record length (kind byte through CRC).
    framed_length: int
    #: ``"full"`` or ``"delta"``.
    stored: str
    #: Base object digest when ``stored == "delta"``, else ``""``.
    base: str = ""
    #: Length of the object's reconstructed bytes.
    size: int = 0
    #: Length of the stored data (raw or encoded delta).
    stored_size: int = 0
    #: Delta-chain depth: 0 for full objects, base depth + 1 otherwise.
    depth: int = 0

    def to_json(self) -> Dict[str, object]:
        return {
            "offset": self.offset, "framed_length": self.framed_length,
            "stored": self.stored, "base": self.base, "size": self.size,
            "stored_size": self.stored_size, "depth": self.depth,
        }

    @classmethod
    def from_json(cls, digest: str, data: Dict[str, object]) -> "ObjectInfo":
        return cls(digest=digest, offset=int(data["offset"]),
                   framed_length=int(data["framed_length"]),
                   stored=str(data["stored"]), base=str(data["base"]),
                   size=int(data["size"]),
                   stored_size=int(data["stored_size"]),
                   depth=int(data["depth"]))


@dataclass
class StoreIndex:
    """The derived state one index file (or one full scan) describes."""

    #: Pack file name this index covers (generation-numbered).
    pack_name: str = ""
    #: Pack length in bytes the index is valid for.
    pack_bytes: int = 0
    objects: Dict[str, ObjectInfo] = field(default_factory=dict)
    #: Per-package version digests, publish order (oldest first).
    logs: Dict[str, List[str]] = field(default_factory=dict)

    def to_bytes(self) -> bytes:
        body = {
            "schema": INDEX_SCHEMA,
            "pack_name": self.pack_name,
            "pack_bytes": self.pack_bytes,
            "objects": {d: o.to_json() for d, o in sorted(self.objects.items())},
            "packages": {p: list(v) for p, v in sorted(self.logs.items())},
        }
        encoded = json.dumps(body, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        wrapper = {"body": body, "crc32": crc32(encoded)}
        return json.dumps(wrapper, sort_keys=True, indent=None,
                          separators=(",", ":")).encode("utf-8")

    @classmethod
    def from_bytes(cls, data: Buffer) -> "StoreIndex":
        """Parse and CRC-check an index file; ``StoreError`` on damage."""
        try:
            wrapper = json.loads(bytes(data).decode("utf-8"))
            body = wrapper["body"]
            stored = int(wrapper["crc32"])
        except Exception as exc:
            raise StoreError("unreadable index file: %s" % exc,
                             kind="index") from None
        encoded = json.dumps(body, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        if crc32(encoded) != stored:
            raise StoreError("index body CRC mismatch", kind="index")
        if body.get("schema") != INDEX_SCHEMA:
            raise StoreError("unknown index schema %r" % body.get("schema"),
                             kind="index")
        index = cls(pack_name=str(body["pack_name"]),
                    pack_bytes=int(body["pack_bytes"]))
        for digest, obj in body["objects"].items():
            index.objects[digest] = ObjectInfo.from_json(digest, obj)
        for package, versions in body["packages"].items():
            index.logs[package] = [str(v) for v in versions]
        return index


__all__ = [
    "INDEX_NAME",
    "INDEX_SCHEMA",
    "ObjectInfo",
    "PACK_MAGIC",
    "REC_NOTE",
    "REC_OBJECT",
    "REC_REF",
    "Record",
    "STORED_DELTA",
    "STORED_FULL",
    "StoreIndex",
    "check_pack_header",
    "decode_object_payload",
    "encode_object_payload",
    "encode_record",
    "scan_records",
]
