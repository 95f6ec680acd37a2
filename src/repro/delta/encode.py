"""Binary delta file formats: sequential (no write offsets) and in-place.

Section 7 of the paper decomposes the compression cost of in-place
reconstruction into two parts, and this module is where the first part
lives.  A conventional delta file applies commands *in write order*, so
the write offset ``t`` is implicit — an add is just ``<l>`` and a copy
``<f, l>``.  An in-place delta applies commands *out of order*, so every
command must spell out ``t``.  The paper measured that switching
codewords alone (same commands, same matches) costs 1.9% compression.

Two wire formats are provided:

* ``FORMAT_SEQUENTIAL`` — commands serialized in write order with no
  ``t`` fields.  Only scripts whose write intervals tile the version
  contiguously from offset 0 can be encoded (every differencing
  algorithm here produces such scripts).
* ``FORMAT_INPLACE`` — commands serialized in *application* order with
  explicit ``t`` fields, preserving the converter's permutation.

Both formats deliberately keep the paper's add-length inefficiency: the
add codeword's length field is a single byte, so long literal runs are
split into 255-byte commands ("the encoding scheme uses only a single
byte to encode the length of add commands and therefore generates many
short add commands").  The converter's cost model and Table 1's shape
depend on this.  Offsets and copy lengths are LEB128 varints.

Two *container* versions wrap those codewords.  ``IPD1`` is the legacy
layout; ``IPD2`` is the self-verifying layout in-place reconstruction
actually needs — the first copy command destroys the reference, so a
delta applied against the wrong (or corrupted) reference bricks the
image unless the applier can verify *before* mutating::

    IPD1: magic "IPD1" | format u8 | version_length varint
          | scratch_length varint | version_crc32 u32le
          | codeword* | OP_END

    IPD2: magic "IPD2" | format u8 | flags u8 | version_length varint
          | scratch_length varint | version_crc32 u32le
          | reference_length varint | reference_crc32 u32le
          | (codeword* OP_CRC crc u32le)* | OP_END | trailer_crc u32le

    sequential:  OP_ADD l u8, data | OP_COPY f varint, l varint
    in-place:    OP_ADD t varint, l u8, data | OP_COPY f varint, t varint, l varint

``IPD2`` flags: bit 0 — a version checksum was recorded (resolving the
``IPD1`` ambiguity where CRC 0 could mean "no checksum" or a real zero
CRC); bit 1 — the reference digest fields are meaningful (a composed or
reference-less delta carries zeros); bit 2 — segment checkpoints are
interleaved with the codewords.  Unknown flag bits are rejected.  Each
``OP_CRC`` checkpoint carries the CRC32 of the raw wire bytes of every
codeword since the previous checkpoint (a checkpoint lands once a
segment reaches :data:`SEGMENT_TARGET_BYTES`, and a final one covers
any tail), so a streaming applier detects a bit-flip within one bounded
segment of where it happened.  The trailer CRC covers every preceding
byte of the file and is verified before parsing begins.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from ..core.commands import (
    AddCommand,
    Command,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from ..exceptions import DeltaFormatError, IntegrityError
from .varint import decode_varint, encode_varint, varint_size

Buffer = Union[bytes, bytearray, memoryview]

MAGIC = b"IPD1"
MAGIC_V2 = b"IPD2"
FORMAT_SEQUENTIAL = 1
FORMAT_INPLACE = 2
#: Paper-faithful variants with fixed 4-byte offset/length fields, the
#: codeword style of the 1998 compressors ([11], [1]).  The varint
#: formats above are the "redesign of the delta compression codewords"
#: the paper's section 7 anticipates; benches report both so the
#: encoding-loss row of Table 1 can be compared like for like.
FORMAT_SEQUENTIAL_FIXED = 3
FORMAT_INPLACE_FIXED = 4

_SEQUENTIAL_FORMATS = (FORMAT_SEQUENTIAL, FORMAT_SEQUENTIAL_FIXED)
_INPLACE_FORMATS = (FORMAT_INPLACE, FORMAT_INPLACE_FIXED)
_FIXED_FORMATS = (FORMAT_SEQUENTIAL_FIXED, FORMAT_INPLACE_FIXED)
ALL_FORMATS = _SEQUENTIAL_FORMATS + _INPLACE_FORMATS

#: Container versions: 1 = legacy ``IPD1``, 2 = self-verifying ``IPD2``.
WIRE_V1 = 1
WIRE_V2 = 2

OP_END = 0x00
OP_ADD = 0x01
OP_COPY = 0x02
#: Bounded-scratch extension: save reference bytes to scratch / restore.
OP_SPILL = 0x03
OP_FILL = 0x04
#: ``IPD2`` segment checkpoint: CRC32 of the codeword bytes since the
#: previous checkpoint (or the first codeword).
OP_CRC = 0x05

#: ``IPD2`` header flag bits.  Unknown bits are rejected at decode time
#: so a future revision cannot be silently misread.
FLAG_HAS_VERSION_CRC = 0x01
FLAG_HAS_REFERENCE = 0x02
FLAG_SEGMENT_CRCS = 0x04
_KNOWN_FLAGS = FLAG_HAS_VERSION_CRC | FLAG_HAS_REFERENCE | FLAG_SEGMENT_CRCS

#: Maximum literal bytes one add codeword can carry (1-byte length field).
MAX_ADD_CHUNK = 255

#: Upper bound on one codeword's wire size: an opcode, three 10-byte
#: varint fields, an add's length byte and its literals.
MAX_CODEWORD_BYTES = 1 + 3 * 10 + 1 + MAX_ADD_CHUNK

#: A segment checkpoint is emitted once the codewords since the last one
#: reach this many wire bytes (plus a final checkpoint over any tail).
SEGMENT_TARGET_BYTES = 1024
#: Upper bound on bytes between checkpoints a decoder will tolerate: the
#: target plus one maximal codeword (a checkpoint lands immediately
#: after the codeword that crosses the target).
SEGMENT_LIMIT_BYTES = SEGMENT_TARGET_BYTES + MAX_CODEWORD_BYTES

_HEADER_FIXED = len(MAGIC) + 1  # magic + format byte
_V2_FIXED = len(MAGIC_V2) + 2  # magic + format byte + flags byte
#: Smallest possible IPD2 file: fixed header, two 1-byte varint lengths,
#: version CRC, 1-byte reference length varint, reference CRC, OP_END,
#: trailer.
_V2_MIN_SIZE = _V2_FIXED + 1 + 1 + 4 + 1 + 4 + 1 + 4
#: Header size bounds: every varint one byte (the smallest IPD1 header)
#: and every varint ten bytes (the largest IPD2 header).
_MIN_HEADER_BYTES = _HEADER_FIXED + 1 + 1 + 4
_MAX_HEADER_BYTES = _V2_FIXED + 3 * 10 + 2 * 4
#: A checkpoint position no buffer reaches: the ``IPD1`` encoder's.
_NEVER = 1 << 62


@dataclass(frozen=True)
class DeltaHeader:
    """Parsed header of a serialized delta file.

    ``IPD1`` headers leave the integrity fields at their defaults:
    ``has_checksum`` falls back to the legacy heuristic (a zero CRC
    means "none recorded"), and the reference digest is unknown.
    """

    format: int
    version_length: int
    #: Scratch bytes the applier must provide (0 for scratch-free deltas).
    scratch_length: int
    #: CRC32 of the version file, or 0 when the producer did not record one.
    version_crc32: int
    #: Container version: 1 for ``IPD1``, 2 for ``IPD2``.
    magic: int = WIRE_V1
    #: Whether ``version_crc32`` was actually recorded.  ``IPD2`` states
    #: this in a flag bit; for ``IPD1`` it defaults to the legacy
    #: heuristic ``version_crc32 != 0``.
    has_checksum: Optional[bool] = None
    #: Length of the reference the delta was built against, when recorded.
    reference_length: Optional[int] = None
    #: CRC32 of that reference, when recorded.
    reference_crc32: Optional[int] = None
    #: Whether segment checkpoints are interleaved with the codewords.
    has_segment_crcs: bool = False

    def __post_init__(self) -> None:
        if self.has_checksum is None:
            object.__setattr__(self, "has_checksum", self.version_crc32 != 0)

    @property
    def has_reference(self) -> bool:
        """Whether a reference digest was recorded."""
        return self.reference_crc32 is not None


def _check_sequential_shape(commands: List[Command], version_length: int) -> None:
    """Sequential format requires commands to tile [0, L_V) in write order."""
    cursor = 0
    for i, cmd in enumerate(commands):
        if cmd.dst != cursor:
            raise DeltaFormatError(
                "sequential format needs contiguous write-ordered commands; "
                "command %d writes at %d, expected %d"
                % (i, cmd.dst, cursor)
            )
        cursor = cmd.dst + cmd.length
    if cursor != version_length:
        raise DeltaFormatError(
            "sequential commands cover %d bytes of a %d-byte version"
            % (cursor, version_length)
        )


def _put_int(out: bytearray, value: int, fixed: bool) -> None:
    """Append an offset/length field: u32le when ``fixed``, else varint."""
    if fixed:
        if value > 0xFFFFFFFF:
            raise DeltaFormatError(
                "value %d does not fit the fixed 4-byte field" % value
            )
        out += value.to_bytes(4, "little")
    else:
        out += encode_varint(value)


def _get_int(data: Buffer, pos: int, fixed: bool) -> Tuple[int, int]:
    """Read an offset/length field written by :func:`_put_int`."""
    if fixed:
        if pos + 4 > len(data):
            raise DeltaFormatError("truncated fixed-width field at byte %d" % pos)
        return int.from_bytes(data[pos:pos + 4], "little"), pos + 4
    return decode_varint(data, pos)


def _ordered_commands(script: DeltaScript, with_offsets: bool) -> List[Command]:
    """Commands in serialization order, shape-checked for sequential."""
    if with_offsets:
        return script.commands
    # No spills here (encode_delta refuses scratch without offsets), so
    # every command writes at ``dst``.
    commands = sorted(script.commands, key=lambda c: c.dst)
    _check_sequential_shape(commands, script.version_length)
    return commands


def _checkpoint(out: bytearray, start: int) -> None:
    """Close the ``IPD2`` segment of ``out[start:]``: ``OP_CRC`` and the
    CRC32 of its bytes."""
    crc = zlib.crc32(memoryview(out)[start:]) & 0xFFFFFFFF
    out.append(OP_CRC)
    out += crc.to_bytes(4, "little")


def encode_delta(
    script: DeltaScript,
    format: int = FORMAT_INPLACE,
    *,
    version_crc32: Optional[int] = None,
    reference: Optional[Buffer] = None,
    wire: Optional[int] = None,
) -> bytes:
    """Serialize ``script`` to a delta file in the chosen format.

    Sequential encoding sorts the commands into write order (order is
    irrelevant for two-space application); in-place encoding preserves
    the given application order exactly.

    ``wire`` selects the container: :data:`WIRE_V1` (``IPD1``, the
    default) or :data:`WIRE_V2` (``IPD2``, self-verifying).  Passing
    ``reference`` — the bytes the delta was built against — implies
    ``IPD2`` and records the reference length and CRC32 so appliers can
    refuse to destroy a mismatched image.  ``wire=WIRE_V2`` without a
    reference produces an ``IPD2`` file whose reference digest is
    flagged absent (a composed delta, say).

    One pass writes the file into one buffer: the header, then every
    codeword with its varint fields written inline, and for ``IPD2`` a
    segment checkpoint as soon as the codewords since the last one
    reach :data:`SEGMENT_TARGET_BYTES`.  :func:`encoded_size` is the
    same layout's size model.
    """
    if format not in ALL_FORMATS:
        raise DeltaFormatError("unknown delta format %d" % format)
    if wire is None:
        wire = WIRE_V2 if reference is not None else WIRE_V1
    if wire not in (WIRE_V1, WIRE_V2):
        raise DeltaFormatError("unknown wire container %d" % wire)
    if wire == WIRE_V1 and reference is not None:
        raise DeltaFormatError(
            "the IPD1 container cannot carry a reference digest; pass "
            "wire=WIRE_V2"
        )
    fixed = format in _FIXED_FORMATS
    with_offsets = format in _INPLACE_FORMATS

    scratch_length = script.scratch_length
    if scratch_length and not with_offsets:
        raise DeltaFormatError(
            "spill/fill commands require an in-place format"
        )
    commands = _ordered_commands(script, with_offsets)
    v2 = wire == WIRE_V2

    out = bytearray(MAGIC_V2 if v2 else MAGIC)
    out.append(format)
    if v2:
        # Flags; FLAG_SEGMENT_CRCS is added once the body is known.
        out.append((FLAG_HAS_VERSION_CRC if version_crc32 is not None else 0)
                   | (FLAG_HAS_REFERENCE if reference is not None else 0))
    out += encode_varint(script.version_length)
    out += encode_varint(scratch_length)
    crc = version_crc32 if version_crc32 is not None else 0
    out += (crc & 0xFFFFFFFF).to_bytes(4, "little")
    if v2:
        out += encode_varint(len(reference) if reference is not None else 0)
        ref_crc = version_checksum(reference) if reference is not None else 0
        out += ref_crc.to_bytes(4, "little")

    body = seg_start = len(out)
    # The next checkpoint is due once the buffer reaches ``due`` bytes;
    # IPD1 has none.
    due = seg_start + SEGMENT_TARGET_BYTES if v2 else _NEVER
    append = out.append
    # Varint fields below these bounds take one, two and three bytes
    # and are written inline; fixed-width fields never are.
    one, two, three = (0, 0, 0) if fixed else (0x80, 0x4000, 0x200000)
    for cmd in commands:
        kind = type(cmd)
        if kind is CopyCommand:
            append(OP_COPY)
            fields = ((cmd.src, cmd.dst, cmd.length) if with_offsets
                      else (cmd.src, cmd.length))
        elif kind is SpillCommand:
            append(OP_SPILL)
            fields = (cmd.src, cmd.scratch, cmd.length)
        elif kind is FillCommand:
            append(OP_FILL)
            fields = (cmd.scratch, cmd.dst, cmd.length)
        else:
            # An add: one codeword per MAX_ADD_CHUNK literal bytes.
            data = cmd.data
            dst = cmd.dst
            size = len(data)
            for done in range(0, size, MAX_ADD_CHUNK):
                step = min(MAX_ADD_CHUNK, size - done)
                append(OP_ADD)
                if with_offsets:
                    value = dst + done
                    if value < one:
                        append(value)
                    elif value < two:
                        append(value & 0x7F | 0x80)
                        append(value >> 7)
                    elif value < three:
                        append(value & 0x7F | 0x80)
                        append(value >> 7 & 0x7F | 0x80)
                        append(value >> 14)
                    else:
                        _put_int(out, value, fixed)
                append(step)
                out += data if step == size else data[done:done + step]
                if len(out) >= due:
                    _checkpoint(out, seg_start)
                    seg_start = len(out)
                    due = seg_start + SEGMENT_TARGET_BYTES
            continue
        for value in fields:
            if value < one:
                append(value)
            elif value < two:
                append(value & 0x7F | 0x80)
                append(value >> 7)
            elif value < three:
                append(value & 0x7F | 0x80)
                append(value >> 7 & 0x7F | 0x80)
                append(value >> 14)
            else:
                _put_int(out, value, fixed)
        if len(out) >= due:
            _checkpoint(out, seg_start)
            seg_start = len(out)
            due = seg_start + SEGMENT_TARGET_BYTES

    if not v2:
        out.append(OP_END)
        return bytes(out)
    if len(out) > seg_start:
        _checkpoint(out, seg_start)
    if len(out) > body:
        out[5] |= FLAG_SEGMENT_CRCS
    out.append(OP_END)
    out += (zlib.crc32(out) & 0xFFFFFFFF).to_bytes(4, "little")
    return bytes(out)


def _header_u32(data: Buffer, pos: int) -> Tuple[int, int]:
    if pos + 4 > len(data):
        raise DeltaFormatError("truncated header")
    return int.from_bytes(data[pos:pos + 4], "little"), pos + 4


def _parse_header(data: Buffer) -> Tuple[DeltaHeader, int]:
    """Parse the header at the start of ``data``: the header and its size.

    The one header grammar.  It reads only a prefix of the file, so the
    streamed decoder feeds it the bytes it has read so far; a prefix
    that ends inside the header raises :class:`DeltaFormatError` like
    any other malformation.
    """
    v2 = bytes(data[:4]) == MAGIC_V2
    if v2:
        if len(data) < _V2_FIXED:
            raise DeltaFormatError("truncated header")
    elif len(data) < _HEADER_FIXED or bytes(data[:4]) != MAGIC:
        raise DeltaFormatError("not a delta file (bad magic)")
    fmt = data[4]
    if fmt not in ALL_FORMATS:
        raise DeltaFormatError("unknown delta format %d" % fmt)
    pos = _HEADER_FIXED
    if v2:
        flags = data[5]
        if flags & ~_KNOWN_FLAGS:
            raise DeltaFormatError(
                "unknown IPD2 flag bits 0x%02x" % (flags & ~_KNOWN_FLAGS))
        pos = _V2_FIXED
    version_length, pos = decode_varint(data, pos)
    scratch_length, pos = decode_varint(data, pos)
    version_crc, pos = _header_u32(data, pos)
    if not v2:
        return DeltaHeader(fmt, version_length, scratch_length,
                           version_crc), pos
    reference_length, pos = decode_varint(data, pos)
    reference_crc, pos = _header_u32(data, pos)
    has_reference = bool(flags & FLAG_HAS_REFERENCE)
    return DeltaHeader(
        fmt, version_length, scratch_length, version_crc,
        magic=WIRE_V2,
        has_checksum=bool(flags & FLAG_HAS_VERSION_CRC),
        reference_length=reference_length if has_reference else None,
        reference_crc32=reference_crc if has_reference else None,
        has_segment_crcs=bool(flags & FLAG_SEGMENT_CRCS),
    ), pos


def _check_trailer(data: Buffer, end: int, crc: int = 0,
                   offset: int = -1) -> None:
    """The ``IPD2`` trailer rule: ``data[end:end + 4]`` holds the CRC32
    of every byte before it.  ``crc`` is the CRC of any bytes of the
    file that precede ``data``; ``offset`` is the trailer's wire offset,
    when the caller reports one."""
    stored = int.from_bytes(data[end:end + 4], "little")
    computed = zlib.crc32(memoryview(data)[:end], crc) & 0xFFFFFFFF
    if stored != computed:
        raise IntegrityError(
            "delta trailer CRC failed: stored 0x%08x, computed 0x%08x — "
            "the file is corrupt or truncated" % (stored, computed),
            kind="trailer", offset=offset, expected=stored, actual=computed,
        )


class _CodewordParser:
    """The codeword grammar: every rule on the bytes after the header.

    The only codeword parser.  :func:`decode_delta` runs :meth:`parse`
    once over a whole file; the streamed decoder
    (:mod:`repro.delta.stream`) runs it over a bounded window sliding
    along the stream, calling :meth:`advance` as bytes scroll out.
    Positions are window indices and ``base`` is the wire offset of the
    window's first byte, so reported offsets are wire offsets on both
    paths.
    """

    __slots__ = ("fixed", "with_offsets", "segment_crcs", "base", "cursor",
                 "seg_start", "seg_crc")

    def __init__(self, header: DeltaHeader, start: int) -> None:
        self.fixed = header.format in _FIXED_FORMATS
        self.with_offsets = header.format in _INPLACE_FORMATS
        self.segment_crcs = header.has_segment_crcs
        self.base = 0
        #: The implicit write offset of the sequential formats.
        self.cursor = 0
        #: Where the current segment began: a window index, negative once
        #: its first bytes have scrolled out, their CRC32 in ``seg_crc``.
        self.seg_start = start
        self.seg_crc = 0

    def advance(self, data: Buffer, count: int) -> None:
        """Scroll the parsed ``data[:count]`` out of the window."""
        if self.segment_crcs:
            self.seg_crc = zlib.crc32(data[max(self.seg_start, 0):count],
                                      self.seg_crc)
        self.seg_start -= count
        self.base += count

    def parse(self, data: Buffer, pos: int, bound: int, final: bool,
              commands: List[Command]) -> int:
        """Append the commands coded in ``data[pos:bound]`` to ``commands``.

        ``bound`` excludes any trailer.  ``OP_END`` ends the parse and
        must end the input, so a ``final`` parse returns only there.
        Otherwise the input goes on past ``bound``: the parse stops once
        fewer than :data:`MAX_CODEWORD_BYTES` remain, so no codeword is
        cut by the window's end, and returns where the next one starts.
        """
        fixed = self.fixed
        varints = not fixed
        size = len(data)
        with_offsets = self.with_offsets
        segment_crcs = self.segment_crcs
        base = self.base
        cursor = self.cursor
        seg_start = self.seg_start
        stop = bound if final else bound - MAX_CODEWORD_BYTES
        while True:
            if pos >= stop:
                if final:
                    raise DeltaFormatError("delta file ended without OP_END")
                break
            op = data[pos]
            pos += 1
            if op == OP_END:
                if segment_crcs and pos - 1 != seg_start:
                    raise DeltaFormatError(
                        "codewords after the final segment checkpoint")
                if pos != bound:
                    raise DeltaFormatError(
                        "%d trailing bytes after OP_END" % (bound - pos))
                break
            if op == OP_CRC:
                if not segment_crcs:
                    raise DeltaFormatError("unexpected segment checkpoint "
                                           "at byte %d" % (base + pos - 1))
                if pos - 1 == seg_start:
                    raise DeltaFormatError("empty segment checkpoint at "
                                           "byte %d" % (base + pos - 1))
                if pos + 4 > bound:
                    raise DeltaFormatError("truncated segment checkpoint")
                expected = zlib.crc32(
                    memoryview(data)[max(seg_start, 0):pos - 1], self.seg_crc
                ) & 0xFFFFFFFF
                stored = int.from_bytes(data[pos:pos + 4], "little")
                if stored != expected:
                    raise IntegrityError(
                        "segment checkpoint at byte %d failed: stored 0x%08x, "
                        "computed 0x%08x" % (base + pos - 1, stored, expected),
                        kind="segment", offset=base + pos - 1,
                        expected=stored, actual=expected,
                    )
                pos += 4
                seg_start = pos
                self.seg_crc = 0
                continue
            if op == OP_COPY:
                count = 3 if with_offsets else 2
            elif op == OP_ADD:
                count = 1 if with_offsets else 0
            elif op == OP_SPILL or op == OP_FILL:
                if not with_offsets:
                    raise DeltaFormatError(
                        "opcode 0x%02x not valid in a sequential delta" % op)
                count = 3
            else:
                raise DeltaFormatError(
                    "unknown opcode 0x%02x at byte %d" % (op, base + pos - 1))
            # The codeword's offset/length fields.  Varints of up to three
            # bytes (values below 2 MiB, nearly every field) are decoded
            # here; longer, fixed-width and truncated fields go through
            # _get_int.
            fields = []
            for _ in range(count):
                if varints and pos + 2 < size:
                    low = data[pos]
                    if low < 0x80:
                        fields.append(low)
                        pos += 1
                        continue
                    mid = data[pos + 1]
                    if mid < 0x80:
                        fields.append(low & 0x7F | mid << 7)
                        pos += 2
                        continue
                    high = data[pos + 2]
                    if high < 0x80:
                        fields.append(low & 0x7F | (mid & 0x7F) << 7
                                      | high << 14)
                        pos += 3
                        continue
                value, pos = _get_int(data, pos, fixed)
                fields.append(value)
            if op == OP_COPY:
                if with_offsets:
                    src, dst, length = fields
                else:
                    src, length = fields
                    dst = cursor
                if length == 0:
                    raise DeltaFormatError(
                        "zero-length copy at byte %d" % (base + pos - 1))
                commands.append(CopyCommand(src, dst, length))
                cursor = dst + length
            elif op == OP_ADD:
                dst = fields[0] if with_offsets else cursor
                if pos >= bound:
                    raise DeltaFormatError(
                        "truncated add length at byte %d" % (base + pos))
                length = data[pos]
                pos += 1
                if length == 0:
                    raise DeltaFormatError(
                        "zero-length add at byte %d" % (base + pos - 1))
                if pos + length > bound:
                    raise DeltaFormatError(
                        "truncated add data at byte %d" % (base + pos))
                commands.append(AddCommand(dst, bytes(data[pos:pos + length])))
                pos += length
                cursor = dst + length
            else:
                a, b, length = fields
                if length == 0:
                    raise DeltaFormatError(
                        "zero-length scratch command at byte %d"
                        % (base + pos - 1))
                if op == OP_SPILL:
                    commands.append(SpillCommand(a, b, length))
                else:
                    commands.append(FillCommand(a, b, length))
                    cursor = b + length
            if segment_crcs and pos - seg_start > SEGMENT_LIMIT_BYTES:
                raise DeltaFormatError(
                    "segment checkpoint overdue at byte %d" % (base + pos))
        self.cursor = cursor
        self.seg_start = seg_start
        return pos


def decode_delta(data: Buffer) -> Tuple[DeltaScript, DeltaHeader]:
    """Parse a serialized delta file back into a script and its header.

    Sequential files decode with write offsets reconstructed from the
    running cursor; in-place files decode in serialized (application)
    order.  Raises :class:`DeltaFormatError` on any malformation.

    ``IPD2`` files are *verified before they are parsed*: the trailer
    CRC over the whole file is checked first (raising
    :class:`~repro.exceptions.IntegrityError` with ``kind="trailer"``
    on mismatch), then segment checkpoints are re-verified during the
    parse.  A successfully decoded ``IPD2`` delta is therefore known
    bit-exact as produced.
    """
    bound = len(data)
    if bytes(data[:4]) == MAGIC_V2:
        if len(data) < _V2_MIN_SIZE:
            raise DeltaFormatError(
                "truncated IPD2 file: %d bytes, need at least %d"
                % (len(data), _V2_MIN_SIZE)
            )
        bound -= 4
        _check_trailer(data, bound)
    header, pos = _parse_header(data)
    commands: List[Command] = []
    _CodewordParser(header, pos).parse(data, pos, bound, True, commands)
    return DeltaScript(commands, header.version_length), header


def encoded_size(
    script: DeltaScript,
    format: int = FORMAT_INPLACE,
    *,
    wire: int = WIRE_V1,
    reference_length: int = 0,
) -> int:
    """Exact size :func:`encode_delta` would produce, without building bytes.

    The compression benches call this thousands of times; it mirrors the
    encoder's codeword arithmetic and the tests pin the two together.
    The default prices the legacy ``IPD1`` container — the paper's cost
    model, which the converter's eviction pricing depends on; pass
    ``wire=WIRE_V2`` (and the reference length, whose varint is sized
    in) to price the self-verifying container including its checkpoints
    and trailer.
    """
    if format not in ALL_FORMATS:
        raise DeltaFormatError("unknown delta format %d" % format)
    if wire not in (WIRE_V1, WIRE_V2):
        raise DeltaFormatError("unknown wire container %d" % wire)
    fixed = format in _FIXED_FORMATS
    with_offsets = format in _INPLACE_FORMATS
    field = (lambda value: 4) if fixed else varint_size
    commands = script.commands
    if wire == WIRE_V2 and not with_offsets:
        # Checkpoints fall where the encoder's write order puts them.
        commands = sorted(commands, key=lambda c: c.dst)

    def word_sizes() -> Iterator[int]:
        for cmd in commands:
            if isinstance(cmd, CopyCommand):
                size = 1 + field(cmd.src) + field(cmd.length)
                if with_offsets:
                    size += field(cmd.dst)
                yield size
            elif isinstance(cmd, SpillCommand):
                yield 1 + field(cmd.src) + field(cmd.scratch) + field(cmd.length)
            elif isinstance(cmd, FillCommand):
                yield 1 + field(cmd.scratch) + field(cmd.dst) + field(cmd.length)
            else:
                done = 0
                while done < cmd.length:
                    step = min(MAX_ADD_CHUNK, cmd.length - done)
                    size = 1 + 1 + step
                    if with_offsets:
                        size += field(cmd.dst + done)
                    done += step
                    yield size

    if wire == WIRE_V1:
        size = _HEADER_FIXED + varint_size(script.version_length) \
            + varint_size(script.scratch_length) + 4
        for word in word_sizes():
            size += word
        return size + 1  # OP_END

    size = _V2_FIXED + varint_size(script.version_length) \
        + varint_size(script.scratch_length) + 4 \
        + varint_size(reference_length) + 4
    body = 0
    seg = 0
    for word in word_sizes():
        body += word
        seg += word
        if seg >= SEGMENT_TARGET_BYTES:
            body += 5  # OP_CRC + crc32
            seg = 0
    if seg:
        body += 5
    return size + body + 1 + 4  # body + OP_END + trailer


def version_checksum(version: Buffer) -> int:
    """CRC32 the encoder stores so appliers can verify reconstruction."""
    return zlib.crc32(version) & 0xFFFFFFFF
