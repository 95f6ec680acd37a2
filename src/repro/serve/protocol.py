"""Length-prefixed, CRC-framed wire protocol for the delta daemon.

The serving loop moves IPD2 payloads over lossy links, so the transport
gets the same treatment the container format got in the integrity plane:
every frame is self-verifying, and every way a frame can be damaged —
truncated mid-header, truncated mid-payload, any single bit flipped
anywhere — must surface as a structured
:class:`~repro.exceptions.IntegrityError` with ``kind="frame"``, never
as an ``IndexError``, a hang, or a silently short read.

Frame layout (all integers little-endian)::

    MAGIC(1) | TYPE(1) | LENGTH(u32) | PAYLOAD(LENGTH) | CRC32(u32)

The CRC covers the header *and* the payload, so a flip in the length
field either changes where the CRC is read from (caught as a CRC
mismatch or a truncation) or, in the strict parser, leaves trailing
bytes (caught explicitly).  Control payloads are compact JSON with
sorted keys — byte-deterministic, so coalesced responses compare equal
— and ``DATA`` payloads are raw delta bytes.
"""

from __future__ import annotations

import asyncio
import json
import struct
import zlib
from typing import Dict, Tuple

from ..exceptions import IntegrityError

#: First byte of every frame; rejects cross-protocol traffic cheaply.
FRAME_MAGIC = 0xD5

#: Frame types.  Requests: a client asks to be brought up to date.
#: Responses: metadata, payload chunks, a terminal END/ERROR/RETRY.
T_PULL = 0x01
T_META = 0x02
T_DATA = 0x03
T_END = 0x04
T_ERROR = 0x05
T_RETRY = 0x06

FRAME_TYPES = (T_PULL, T_META, T_DATA, T_END, T_ERROR, T_RETRY)

#: MAGIC + TYPE + LENGTH.
HEADER_SIZE = 6
#: Trailing CRC32.
CRC_SIZE = 4

#: Ceiling on a frame's payload.  Oversize lengths are rejected *before*
#: allocation, so a bit flip in the length field can never make the
#: reader try to buffer gigabytes.
MAX_PAYLOAD = 1 << 24

_HEADER = struct.Struct("<BBI")
_CRC = struct.Struct("<I")

#: Structured error codes an ERROR frame may carry (``code`` field).
ERR_BAD_REQUEST = "bad-request"
ERR_UNKNOWN_PACKAGE = "unknown-package"
ERR_UNKNOWN_VERSION = "unknown-version"
ERR_UP_TO_DATE = "up-to-date"
ERR_ENCODE_FAILED = "encode-failed"
ERR_DEADLINE = "deadline"
ERR_DRAINING = "draining"

ERROR_CODES = (
    ERR_BAD_REQUEST,
    ERR_UNKNOWN_PACKAGE,
    ERR_UNKNOWN_VERSION,
    ERR_UP_TO_DATE,
    ERR_ENCODE_FAILED,
    ERR_DEADLINE,
    ERR_DRAINING,
)


def _frame_error(message: str, *, offset: int = -1,
                 expected: object = None, actual: object = None
                 ) -> IntegrityError:
    return IntegrityError(message, kind="frame", offset=offset,
                          expected=expected, actual=actual)


def encode_frame(ftype: int, payload: bytes = b"") -> bytes:
    """Serialize one frame: header, payload, trailing CRC32."""
    if ftype not in FRAME_TYPES:
        raise ValueError("unknown frame type 0x%02x" % ftype)
    if len(payload) > MAX_PAYLOAD:
        raise ValueError(
            "frame payload of %d bytes exceeds the %d-byte ceiling"
            % (len(payload), MAX_PAYLOAD)
        )
    body = _HEADER.pack(FRAME_MAGIC, ftype, len(payload)) + payload
    return body + _CRC.pack(zlib.crc32(body) & 0xFFFFFFFF)


def parse_frame(data: bytes) -> Tuple[int, bytes]:
    """Strict one-frame parser: ``(type, payload)`` or ``IntegrityError``.

    Consumes exactly the whole buffer — trailing bytes are an error, so
    a bit flip that *shrinks* the length field cannot silently drop the
    payload tail.  Every failure mode raises ``kind="frame"`` with the
    offending offset where one exists.
    """
    if len(data) < HEADER_SIZE:
        raise _frame_error(
            "frame truncated in header: %d of %d bytes"
            % (len(data), HEADER_SIZE), offset=len(data))
    magic, ftype, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise _frame_error("bad frame magic 0x%02x" % magic, offset=0,
                           expected=FRAME_MAGIC, actual=magic)
    if length > MAX_PAYLOAD:
        raise _frame_error(
            "frame declares %d payload bytes, over the %d-byte ceiling"
            % (length, MAX_PAYLOAD), offset=2,
            expected=MAX_PAYLOAD, actual=length)
    total = HEADER_SIZE + length + CRC_SIZE
    if len(data) < total:
        raise _frame_error(
            "frame truncated: %d of %d bytes" % (len(data), total),
            offset=len(data))
    if len(data) > total:
        raise _frame_error(
            "%d trailing bytes after frame" % (len(data) - total),
            offset=total)
    body = data[:HEADER_SIZE + length]
    (crc,) = _CRC.unpack_from(data, HEADER_SIZE + length)
    actual = zlib.crc32(body) & 0xFFFFFFFF
    if crc != actual:
        raise _frame_error(
            "frame CRC mismatch: stored 0x%08x != computed 0x%08x"
            % (crc, actual), offset=HEADER_SIZE + length,
            expected=crc, actual=actual)
    if ftype not in FRAME_TYPES:
        raise _frame_error("unknown frame type 0x%02x" % ftype, offset=1,
                           actual=ftype)
    return ftype, data[HEADER_SIZE:HEADER_SIZE + length]


async def read_frame(reader: "asyncio.StreamReader") -> Tuple[int, bytes]:
    """Read exactly one frame off a stream, or raise ``kind="frame"``.

    EOF mid-frame (the peer vanished, or a fault site cut the
    connection) is a truncation, reported structurally instead of
    surfacing :class:`asyncio.IncompleteReadError` — the read loop never
    waits on bytes that already cannot form a valid frame, so a
    truncated stream cannot deadlock the caller.
    """
    try:
        header = await reader.readexactly(HEADER_SIZE)
        magic, ftype, length = _HEADER.unpack_from(header)
        if magic != FRAME_MAGIC:
            raise _frame_error("bad frame magic 0x%02x" % magic, offset=0,
                               expected=FRAME_MAGIC, actual=magic)
        if length > MAX_PAYLOAD:
            raise _frame_error(
                "frame declares %d payload bytes, over the %d-byte ceiling"
                % (length, MAX_PAYLOAD), offset=2,
                expected=MAX_PAYLOAD, actual=length)
        rest = await reader.readexactly(length + CRC_SIZE)
    except asyncio.IncompleteReadError as exc:
        raise _frame_error(
            "stream truncated mid-frame: got %d of %d expected bytes"
            % (len(exc.partial), exc.expected or 0),
            offset=len(exc.partial)) from None
    except ConnectionError as exc:
        raise _frame_error("connection lost mid-frame: %s" % exc) from None
    return parse_frame(header + rest)


async def write_frame(writer: "asyncio.StreamWriter", ftype: int,
                      payload: bytes = b"") -> None:
    """Serialize and flush one frame."""
    writer.write(encode_frame(ftype, payload))
    await writer.drain()


# -- control-message payloads (compact, key-sorted JSON) ----------------

def encode_msg(msg: Dict[str, object]) -> bytes:
    """Byte-deterministic JSON encoding for control payloads."""
    return json.dumps(msg, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def decode_msg(payload: bytes) -> Dict[str, object]:
    """Parse a control payload; malformed JSON is a frame-level error.

    The CRC already caught random damage, so reaching here with bad
    JSON means a peer speaking a different dialect — still reported as
    a structured ``kind="frame"`` error, never a raw ``ValueError``.
    """
    try:
        msg = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise _frame_error("malformed control payload: %s" % exc) from None
    if not isinstance(msg, dict):
        raise _frame_error(
            "control payload is %s, not an object" % type(msg).__name__)
    return msg


__all__ = [
    "CRC_SIZE",
    "ERROR_CODES",
    "ERR_BAD_REQUEST",
    "ERR_DEADLINE",
    "ERR_DRAINING",
    "ERR_ENCODE_FAILED",
    "ERR_UNKNOWN_PACKAGE",
    "ERR_UNKNOWN_VERSION",
    "ERR_UP_TO_DATE",
    "FRAME_MAGIC",
    "FRAME_TYPES",
    "HEADER_SIZE",
    "MAX_PAYLOAD",
    "T_DATA",
    "T_END",
    "T_ERROR",
    "T_META",
    "T_PULL",
    "T_RETRY",
    "decode_msg",
    "encode_frame",
    "encode_msg",
    "parse_frame",
    "read_frame",
    "write_frame",
]
