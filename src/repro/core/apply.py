"""Reconstruction engines: two-space and in-place application.

Two engines execute a :class:`~repro.core.commands.DeltaScript`:

* :func:`apply_delta` is the conventional reconstructor.  It reads from a
  reference buffer and writes a *separate* version buffer, so command
  order is irrelevant.  This models a host with scratch space.

* :func:`apply_in_place` models the paper's constrained device.  It
  executes the script against a single buffer that initially holds the
  reference and finally holds the version, reading and writing the same
  storage.  Commands run *serially in script order*; a copy whose read and
  write intervals overlap is performed directionally (left-to-right when
  ``src >= dst``, right-to-left otherwise — paper, section 4.1), optionally
  through a bounded staging buffer to model a device with a small RAM
  window.

``apply_in_place`` on an unconverted script silently produces garbage on
inputs with write-before-read conflicts — exactly the failure mode the
paper opens with.  Pass ``strict=True`` to raise
:class:`~repro.exceptions.WriteBeforeReadError` at the first conflicting
command instead; the tests and benches use both modes.
"""

from __future__ import annotations

import zlib
from time import perf_counter
from typing import Iterable, Optional, Union

from .. import perf
from ..exceptions import (
    DeltaRangeError,
    IntegrityError,
    VerificationError,
    WriteBeforeReadError,
)
from .commands import (
    AddCommand,
    Command,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from .intervals import DynamicIntervalSet

Buffer = Union[bytes, bytearray, memoryview]


def storage_crc32(storage, length: Optional[int] = None,
                  chunk: int = 1 << 16) -> int:
    """CRC32 of the first ``length`` bytes of any sliceable storage.

    Works on plain buffers and on device storage objects (flash arrays,
    crash-simulating wrappers) that only expose ``__len__`` and slice
    reads, without materializing a full copy: the digest is folded one
    bounded chunk at a time.
    """
    if length is None:
        length = len(storage)
    crc = 0
    pos = 0
    while pos < length:
        step = min(chunk, length - pos)
        piece = storage[pos:pos + step]
        if not isinstance(piece, (bytes, bytearray, memoryview)):
            # Exotic storage (e.g. a list-backed flash model) may yield
            # non-buffer slices; everything else feeds crc32 directly.
            piece = bytes(piece)
        crc = zlib.crc32(piece, crc)
        pos += step
    perf.add("apply.crc_bytes", length)
    return crc & 0xFFFFFFFF


def verify_reference(header, storage, *, length: Optional[int] = None) -> None:
    """Check ``storage`` against the reference digest recorded in ``header``.

    No-op when the header carries no reference digest (``IPD1``, or an
    ``IPD2`` produced without one).  Raises
    :class:`~repro.exceptions.IntegrityError` with ``kind="reference"``
    when the length or CRC32 does not match — the caller must not let a
    destructive apply proceed past this.

    ``length`` bounds how many bytes of ``storage`` constitute the
    image (defaults to all of it) — devices whose storage is larger
    than the installed image pass the image length.
    """
    if not getattr(header, "has_reference", False):
        return
    if length is None:
        length = len(storage)
    if header.reference_length is not None and \
            length != header.reference_length:
        raise IntegrityError(
            "reference is %d bytes but the delta was built against %d — "
            "refusing to destroy the image"
            % (length, header.reference_length),
            kind="reference",
            expected=header.reference_length, actual=length,
        )
    actual = storage_crc32(storage, length)
    if actual != header.reference_crc32:
        raise IntegrityError(
            "reference checksum 0x%08x does not match the delta's "
            "0x%08x — wrong or corrupted base image; refusing to "
            "destroy it" % (actual, header.reference_crc32),
            kind="reference",
            expected=header.reference_crc32, actual=actual,
        )


def verify_version(header, image) -> None:
    """Check a rebuilt ``image`` against the version CRC ``header`` carries.

    The post-apply twin of :func:`verify_reference`: no-op when the
    header records no version checksum (``has_checksum`` false: an
    ``IPD2`` without the flag, or an ``IPD1`` whose CRC field is 0).
    Raises :class:`~repro.exceptions.VerificationError` on a mismatch.
    ``image`` is a buffer or any sliceable storage, as for
    :func:`storage_crc32`.
    """
    if not header.has_checksum:
        return
    actual = storage_crc32(image)
    if actual != header.version_crc32:
        raise VerificationError(
            "reconstructed image checksum 0x%08x != delta's 0x%08x"
            % (actual, header.version_crc32))


def preflight_in_place(script: DeltaScript, header, storage, *,
                       length: Optional[int] = None) -> None:
    """Verify-then-mutate gate: everything checkable before the first write.

    In-place application is destructive — the first copy command
    overwrites reference bytes that cannot be recovered — so this gate
    runs every check that does not require mutating ``storage``:

    * the reference digest recorded in the header (length + CRC32)
      matches the target image (:func:`verify_reference`);
    * every command's reads fall inside the reference and its writes
      inside the version region;
    * spill/fill scratch accesses fall inside the scratch the header
      declares (``header.scratch_length``), the buffer every applier
      allocates or charges RAM for.

    Raises :class:`~repro.exceptions.IntegrityError` or
    :class:`~repro.exceptions.DeltaRangeError` with ``storage``
    untouched.  The delta's own wire integrity (trailer, segments) is
    verified by :func:`~repro.delta.encode.decode_delta` before a
    script even exists, so a caller running ``decode -> preflight ->
    apply`` holds the full abort-before-mutate contract.
    """
    verify_reference(header, storage, length=length)
    reference_length = length if length is not None else len(storage)
    version_length = script.version_length
    write_bound = max(version_length, reference_length)
    scratch_length = header.scratch_length
    for i, cmd in enumerate(script.commands):
        if isinstance(cmd, (CopyCommand, SpillCommand)) and \
                cmd.src + cmd.length > reference_length:
            raise _read_out_of_range(i, cmd, reference_length)
        if isinstance(cmd, SpillCommand):
            if cmd.scratch + cmd.length > scratch_length:
                raise DeltaRangeError(
                    "spill %d writes beyond declared scratch size %d"
                    % (i, scratch_length)
                )
            continue
        if isinstance(cmd, FillCommand) and \
                cmd.scratch + cmd.length > scratch_length:
            raise DeltaRangeError(
                "fill %d reads beyond declared scratch size %d"
                % (i, scratch_length)
            )
        if cmd.dst + cmd.length > write_bound:
            raise _write_out_of_range(i, cmd, write_bound)


def _read_out_of_range(i: int, cmd, bound: int) -> DeltaRangeError:
    return DeltaRangeError(
        "command %d reads [%d, %d) beyond reference of length %d"
        % (i, cmd.src, cmd.src + cmd.length, bound))


def _write_out_of_range(i: int, cmd, bound: int) -> DeltaRangeError:
    return DeltaRangeError(
        "command %d writes [%d, %d) beyond the %d-byte version region"
        % (i, cmd.dst, cmd.dst + cmd.length, bound))


def apply_delta(script: DeltaScript, reference: Buffer) -> bytes:
    """Materialize the version file in fresh storage (two-space apply).

    The script's write intervals must be disjoint and cover the version;
    call :meth:`DeltaScript.validate` first if the script is untrusted.
    A read beyond the reference or a write beyond ``version_length``
    raises :class:`DeltaRangeError`.  Spill/fill commands are honoured
    so scratch-using in-place scripts also apply two-space (useful for
    verification on the server side).
    """
    recorder = perf.active()
    started = perf_counter() if recorder is not None else 0.0
    ref = memoryview(reference) if not isinstance(reference, memoryview) else reference
    version_length = script.version_length
    out = bytearray(version_length)
    scratch = bytearray(script.scratch_length)
    for i, cmd in enumerate(script.commands):
        if isinstance(cmd, CopyCommand):
            end = cmd.src + cmd.length
            if end > len(ref):
                raise _read_out_of_range(i, cmd, len(ref))
            stop = cmd.dst + cmd.length
            if stop > version_length:
                raise _write_out_of_range(i, cmd, version_length)
            out[cmd.dst:stop] = ref[cmd.src:end]
        elif isinstance(cmd, AddCommand):
            stop = cmd.dst + cmd.length
            if stop > version_length:
                raise _write_out_of_range(i, cmd, version_length)
            out[cmd.dst:stop] = cmd.data
        elif isinstance(cmd, SpillCommand):
            end = cmd.src + cmd.length
            if end > len(ref):
                raise _read_out_of_range(i, cmd, len(ref))
            scratch[cmd.scratch:cmd.scratch + cmd.length] = ref[cmd.src:end]
        else:  # FillCommand
            stop = cmd.dst + cmd.length
            if stop > version_length:
                raise _write_out_of_range(i, cmd, version_length)
            out[cmd.dst:stop] = scratch[cmd.scratch:cmd.scratch + cmd.length]
    if recorder is not None:
        recorder.merge({
            "apply.two_space.calls": 1,
            "apply.two_space.seconds": perf_counter() - started,
            "apply.two_space.commands": len(script.commands),
            "apply.two_space.bytes": script.version_length,
        })
    return bytes(out)


def _directional_copy(buf: bytearray, src: int, dst: int, length: int, chunk: int) -> None:
    """Copy ``length`` bytes inside ``buf`` from ``src`` to ``dst``.

    Safe for overlapping ranges: copies left-to-right when ``src >= dst``
    and right-to-left otherwise, moving a window of at most ``chunk``
    bytes at a time (the paper's read/write buffer of any size).
    """
    if src == dst or length == 0:
        return
    if src >= dst:
        done = 0
        while done < length:
            step = min(chunk, length - done)
            buf[dst + done:dst + done + step] = buf[src + done:src + done + step]
            done += step
    else:
        done = length
        while done > 0:
            step = min(chunk, done)
            done -= step
            buf[dst + done:dst + done + step] = buf[src + done:src + done + step]


def apply_in_place(
    script: DeltaScript,
    buffer: bytearray,
    *,
    strict: bool = False,
    chunk_size: int = 4096,
) -> bytearray:
    """Execute ``script`` against ``buffer``, transforming reference to version.

    ``buffer`` enters holding the reference file and returns holding the
    version file; it is resized when the version is longer or shorter than
    the reference.  Commands execute serially in script order — the order
    the in-place converter chose.  A read beyond the reference or a write
    beyond the larger of the two files raises :class:`DeltaRangeError`.

    ``strict=True`` tracks written regions and raises
    :class:`WriteBeforeReadError` the moment a copy reads a byte some
    earlier command already wrote (a violation of Equation 2).  This is an
    executable proof of in-place safety and is used throughout the tests.

    ``chunk_size`` bounds the staging window for self-overlapping copies,
    modelling a device that can only buffer a few KiB of data in RAM.
    """
    if chunk_size <= 0:
        raise ValueError("chunk_size must be positive, got %d" % chunk_size)
    recorder = perf.active()
    started = perf_counter() if recorder is not None else 0.0
    _apply_commands(script.commands, buffer, script.version_length,
                    script.scratch_length, strict, chunk_size)
    if recorder is not None:
        recorder.merge({
            "apply.in_place.calls": 1,
            "apply.in_place.seconds": perf_counter() - started,
            "apply.in_place.commands": len(script.commands),
            "apply.in_place.bytes": script.version_length,
        })
    return buffer


def _apply_commands(
    commands: Iterable[Command],
    buffer: bytearray,
    version_length: int,
    scratch_length: int,
    strict: bool,
    chunk_size: int,
) -> bytearray:
    """The in-place command loop behind :func:`apply_in_place` and
    :func:`~repro.delta.stream.apply_delta_stream`.

    ``commands`` may be a lazy iterator: each command is checked and
    applied before the next is drawn.
    """
    original_length = len(buffer)
    write_bound = max(version_length, original_length)
    if write_bound > original_length:
        buffer.extend(b"\x00" * (write_bound - original_length))

    written: Optional[DynamicIntervalSet] = DynamicIntervalSet() if strict else None
    scratch = bytearray(scratch_length)

    def check_read(i: int, cmd) -> None:
        if cmd.src + cmd.length > original_length:
            raise _read_out_of_range(i, cmd, original_length)
        if written is not None:
            clash = written.first_intersection(cmd.read_interval)
            if clash is not None:
                raise WriteBeforeReadError(
                    "command %d reads [%d, %d] but bytes [%d, %d] were already "
                    "written; script is not in-place safe"
                    % (
                        i,
                        cmd.read_interval.start,
                        cmd.read_interval.stop,
                        clash.start,
                        clash.stop,
                    ),
                    reader_index=i,
                )

    for i, cmd in enumerate(commands):
        if isinstance(cmd, CopyCommand):
            check_read(i, cmd)
            if cmd.dst + cmd.length > write_bound:
                raise _write_out_of_range(i, cmd, write_bound)
            _directional_copy(buffer, cmd.src, cmd.dst, cmd.length, chunk_size)
            if written is not None:
                written.add(cmd.write_interval)
        elif isinstance(cmd, AddCommand):
            stop = cmd.dst + cmd.length
            if stop > write_bound:
                raise _write_out_of_range(i, cmd, write_bound)
            buffer[cmd.dst:stop] = cmd.data
            if written is not None:
                written.add(cmd.write_interval)
        elif isinstance(cmd, SpillCommand):
            check_read(i, cmd)
            if cmd.scratch + cmd.length > scratch_length:
                raise DeltaRangeError(
                    "spill %d writes beyond declared scratch size %d"
                    % (i, scratch_length)
                )
            scratch[cmd.scratch:cmd.scratch + cmd.length] = \
                buffer[cmd.src:cmd.src + cmd.length]
        else:  # FillCommand: reads only scratch, immune to buffer writes
            if cmd.scratch + cmd.length > scratch_length:
                raise DeltaRangeError(
                    "fill %d reads beyond declared scratch size %d"
                    % (i, scratch_length)
                )
            stop = cmd.dst + cmd.length
            if stop > write_bound:
                raise _write_out_of_range(i, cmd, write_bound)
            buffer[cmd.dst:stop] = scratch[cmd.scratch:cmd.scratch + cmd.length]
            if written is not None:
                written.add(cmd.write_interval)

    del buffer[version_length:]
    return buffer


def patch(reference: Buffer, payload: bytes) -> bytes:
    """Apply a serialized delta file to ``reference`` (two-space).

    ``IPD2`` payloads are integrity-checked (trailer, segment CRCs,
    reference digest) before any reconstruction happens, and the
    rebuilt version against the version checksum the payload carries
    (:func:`verify_version`) before it is returned.
    """
    # Imported at call time: repro.delta.stream imports this module.
    from ..delta.encode import decode_delta

    script, header = decode_delta(payload)
    verify_reference(header, reference)
    version = apply_delta(script, reference)
    verify_version(header, version)
    return version


def patch_in_place(buffer: bytearray, payload: bytes) -> bytearray:
    """Apply a serialized in-place delta file to ``buffer``, mutating it.

    Runs the full verify-then-mutate gate first: the payload's wire
    integrity is checked by :func:`~repro.delta.encode.decode_delta`,
    then :func:`preflight_in_place` verifies the reference digest and
    all command bounds — ``buffer`` is untouched unless every check
    passes.  After the apply, the rebuilt buffer is checked against the
    version checksum the payload carries (:func:`verify_version`); a
    mismatch raises :class:`~repro.exceptions.VerificationError`,
    leaving ``buffer`` holding the bad rebuild.
    """
    from ..delta.encode import decode_delta

    script, header = decode_delta(payload)
    preflight_in_place(script, header, buffer)
    apply_in_place(script, buffer, strict=True)
    verify_version(header, buffer)
    return buffer


def reconstruct(script: DeltaScript, reference: Buffer, *, in_place: bool = False) -> bytes:
    """Convenience wrapper: rebuild the version from ``reference``.

    ``in_place=False`` uses the two-space engine; ``in_place=True`` copies
    the reference into a working buffer and runs the strict in-place
    engine (so unsafe scripts raise rather than corrupt).
    """
    if not in_place:
        return apply_delta(script, reference)
    buf = bytearray(reference)
    return bytes(apply_in_place(script, buf, strict=True))
