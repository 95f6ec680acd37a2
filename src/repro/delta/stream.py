"""Streaming delta decoding: apply a delta without holding it in RAM.

An in-place delta's commands execute serially in file order, and each
add codeword carries at most 255 literal bytes — so the delta itself can
be *streamed*: the applier needs a few bytes of header, one codeword at
a time, and never the whole payload.  Combined with in-place
reconstruction this drops a device's working memory to
``O(copy_window)``, below even the delta file's size — the logical
conclusion of the paper's "no scratch space" goal, and how production
OTA updaters consume patches today.

:func:`iter_delta_commands` feeds the one wire parser of
:mod:`repro.delta.encode` from a window of at most :data:`WINDOW_BYTES`
that slides along a file-like object, so a streamed delta is held to
exactly the grammar :func:`~repro.delta.encode.decode_delta` enforces —
bytes after the end included.  :func:`apply_delta_stream` runs the
in-place applier (:func:`repro.core.apply.apply_in_place`'s command
loop) over the commands as they arrive.

``IPD2`` streams are verified as they are consumed: the segment CRCs
are folded as bytes scroll out of the window and checked at every
``OP_CRC`` checkpoint, so a bit-flip halts — with its wire offset —
within at most :data:`~repro.delta.encode.SEGMENT_LIMIT_BYTES` bytes of
where it happened, and the whole-file trailer is checked at ``OP_END``.
A streaming applier cannot be fully abort-before-mutate (the point of
streaming is not holding the file); the checkpoints bound the damage
window instead, and the buffered path (:func:`repro.delta.encode
.decode_delta` plus :func:`repro.core.apply.preflight_in_place`)
provides the strict verify-then-mutate contract.
"""

from __future__ import annotations

import io
import zlib
from typing import BinaryIO, Iterator, List, Tuple, Union

from ..core.apply import _apply_commands
from ..core.commands import Command
from ..exceptions import DeltaFormatError
from .encode import (
    _MAX_HEADER_BYTES,
    _MIN_HEADER_BYTES,
    WIRE_V2,
    DeltaHeader,
    _check_trailer,
    _CodewordParser,
    _parse_header,
)

#: Most delta bytes held at once, and the most one ``read()`` asks for:
#: the stream buffer a streaming device budgets.  It holds a maximal
#: codeword, and an ``IPD2`` trailer, with room to spare.
WINDOW_BYTES = 512


def _fill(stream: BinaryIO, window: bytearray, size: int) -> bool:
    """Read until ``window`` holds ``size`` bytes; False if the stream
    ends first."""
    while len(window) < size:
        chunk = stream.read(size - len(window))
        if not chunk:
            return False
        window += chunk
    return True


def _read_header(stream: BinaryIO,
                 window: bytearray) -> Tuple[DeltaHeader, int]:
    """Read the header into ``window`` and parse it, consuming nothing
    after it: start at the smallest header size and add a byte per
    failed parse, until the parse succeeds or more bytes cannot help."""
    size = _MIN_HEADER_BYTES
    while True:
        ended = not _fill(stream, window, size)
        try:
            return _parse_header(window)
        except DeltaFormatError:
            if ended or size >= _MAX_HEADER_BYTES:
                raise
        size += 1


def read_header(stream: BinaryIO) -> DeltaHeader:
    """Parse and return the delta header from ``stream``."""
    return _read_header(stream, bytearray())[0]


def iter_delta_commands(
    stream: Union[BinaryIO, bytes, bytearray, memoryview],
) -> Tuple[DeltaHeader, Iterator[Command]]:
    """Incrementally decode a delta: header now, commands on demand.

    Accepts a binary file-like object or raw bytes (wrapped in a
    :class:`io.BytesIO`).  Only the header is read before the first
    command is requested; after that the iterator holds at most
    :data:`WINDOW_BYTES` of the delta and the commands coded in it, and
    raises :class:`DeltaFormatError` on malformed or truncated input
    and on bytes after the end.

    For ``IPD2`` streams the iterator also verifies every segment
    checkpoint as it passes (raising
    :class:`~repro.exceptions.IntegrityError` with ``kind="segment"``
    and the wire offset) and the whole-file trailer at ``OP_END``
    (``kind="trailer"``).
    """
    if isinstance(stream, (bytes, bytearray, memoryview)):
        stream = io.BytesIO(stream)
    window = bytearray()
    header, start = _read_header(stream, window)
    return header, _commands(stream, window, header, start)


def _commands(stream: BinaryIO, window: bytearray, header: DeltaHeader,
              pos: int) -> Iterator[Command]:
    """Slide ``window`` along ``stream`` and yield the commands parsed
    from it; ``window[:pos]`` is the header, already parsed."""
    trailer = 4 if header.magic == WIRE_V2 else 0
    parser = _CodewordParser(header, pos)
    crc = 0  # CRC32 of every byte scrolled out: the trailer's prefix
    batch: List[Command] = []
    final = False
    while not final:
        if trailer:
            crc = zlib.crc32(window[:pos], crc)
        parser.advance(window, pos)
        del window[:pos]
        final = not _fill(stream, window, WINDOW_BYTES)
        pos = parser.parse(window, 0, len(window) - trailer, final, batch)
        yield from batch
        batch.clear()
    if trailer:
        _check_trailer(window, pos, crc, offset=parser.base + pos)


def apply_delta_stream(
    stream: Union[BinaryIO, bytes, bytearray, memoryview],
    buffer: bytearray,
    *,
    strict: bool = False,
    chunk_size: int = 4096,
) -> bytearray:
    """Apply a streamed delta to ``buffer`` in place.

    Semantics match :func:`repro.core.apply.apply_in_place`, whose
    command loop runs here, but the delta is consumed incrementally:
    peak transient memory is one window of the delta plus the
    ``chunk_size`` copy window, independent of both the delta's and the
    version's size.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive, got %d" % chunk_size)
    header, commands = iter_delta_commands(stream)
    return _apply_commands(commands, buffer, header.version_length,
                           header.scratch_length, strict, chunk_size)
