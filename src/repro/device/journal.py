"""Power-failure-safe in-place application: journaled, resumable patching.

In-place reconstruction's classic operational hazard: lose power halfway
through and the image is neither the old version nor the new one, and —
because copies destroy their sources — simply re-running the delta does
not recover.  Production in-place updaters solve this with a small
durable *journal*; this module implements that protocol over the
simulated device and proves it with an exhaustive crash-point harness in
the tests.

Why resumption is possible at all is a direct corollary of the paper's
Equation 2: in a converted script **no command reads bytes an earlier
command wrote**, so when commands ``0..i-1`` are done, the bytes command
``i`` wants to read are still exactly the reference bytes — *except*
bytes command ``i`` itself may have half-written (a self-overlapping
copy interrupted mid-flight).  Hence the journal only ever needs:

* the index of the next unfinished command (one integer);
* a pre-image of the current command's read∩write overlap, saved before
  the command starts (non-empty only for self-overlapping copies);
* the scratch buffer contents (spilled bytes live in volatile RAM, but
  later commands depend on them; the journal mirrors scratch as spills
  execute).

Every command is made idempotent by that state, so re-executing the
interrupted command after a crash is always safe, whatever byte the
power died on.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ..core.apply import _directional_copy
from ..core.commands import (
    AddCommand,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
)
from ..delta.varint import decode_varint, encode_varint
from ..exceptions import DeltaFormatError, DeviceError, IntegrityError, ReproError
from ..records import encode_record, scan_records

Buffer = Union[bytes, bytearray, memoryview]


class PowerFailureError(DeviceError):
    """Simulated loss of power during a storage write."""


class CrashingStorage:
    """A bytearray-like storage that dies after a set number of written bytes.

    The crash-test harness wraps the device image in this to simulate
    power failure at an exact byte: writes count against ``fuel`` and the
    write that exhausts it is *truncated at the failure point* (earlier
    bytes of that write land, later ones do not) before
    :class:`PowerFailureError` is raised — the nastiest realistic
    behaviour for an updater.
    """

    def __init__(self, data: Buffer, fuel: Optional[int] = None):
        self._data = bytearray(data)
        #: Bytes that may still be written; ``None`` disables crashing.
        self.fuel = fuel
        #: Total bytes written over the storage's lifetime.
        self.bytes_written = 0

    # -- bytearray protocol subset the appliers use ----------------------

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            start, stop, stride = key.indices(len(self._data))
            if stride != 1:
                raise ValueError("strided storage writes are not supported")
            size = len(value)
            if self.fuel is not None and size > self.fuel:
                # Partial write: only `fuel` bytes land, then the lights go out.
                landed = self.fuel
                self._data[start:start + landed] = value[:landed]
                self.bytes_written += landed
                self.fuel = 0
                raise PowerFailureError(
                    "power failed %d bytes into a %d-byte write at offset %d"
                    % (landed, size, start)
                )
            self._data[key] = value
            self.bytes_written += size
            if self.fuel is not None:
                self.fuel -= size
        else:
            if self.fuel is not None and self.fuel < 1:
                raise PowerFailureError("power failed before a 1-byte write")
            self._data[key] = value
            self.bytes_written += 1
            if self.fuel is not None:
                self.fuel -= 1

    def resize(self, size: int) -> None:
        """Grow or shrink to ``size`` bytes (no fuel charge: metadata)."""
        if size < len(self._data):
            del self._data[size:]
        else:
            self._data.extend(b"\x00" * (size - len(self._data)))

    def flip(self, offset: int, mask: int = 0x01) -> None:
        """Flip bits at ``offset`` with no fuel charge (simulated bit rot).

        This is how the fault plane's ``storage.bitflip`` site corrupts
        the image: silently, outside the write path, the way a failing
        flash cell would.
        """
        self._data[offset] ^= mask

    def snapshot(self) -> bytes:
        """Current contents (what would survive the crash)."""
        return bytes(self._data)


#: Journal wire record types (see :meth:`Journal.to_bytes`).
_REC_STATE = 0x01
_REC_SCRATCH = 0x02
_REC_BACKUP = 0x03


@dataclass
class Journal:
    """The durable progress record.  Tiny by design.

    Real devices put this in a reserved flash sector; here it is a plain
    object the crash harness preserves across simulated reboots.  The
    in-memory protocol assumes journal *updates* are atomic (the
    standard one-sector assumption); :meth:`to_bytes` /
    :meth:`from_bytes` serialize the journal with per-record CRCs so a
    journal read back from storage can distinguish a torn tail (the
    power died mid-write of the final record — recoverable, the record
    is dropped) from bit rot in an earlier record (``IntegrityError``).
    """

    next_index: int = 0
    #: Pre-image of the current command's read∩write overlap (start, data).
    backup_offset: int = -1
    backup_data: bytes = b""
    #: Mirror of the volatile scratch buffer (grows as spills execute).
    scratch: bytearray = field(default_factory=bytearray)
    #: Set once the final command completes and the tail is truncated.
    complete: bool = False
    #: CRC32 folded, in order, over the storage bytes each completed
    #: command wrote (commands with disjoint writes — Equation 2's
    #: scripts — make this a digest of every already-applied region).
    applied_crc: int = 0
    #: Set by :meth:`from_bytes` when a partially-written trailing
    #: record was dropped during recovery (informational).
    torn_tail: bool = field(default=False, compare=False)

    @property
    def size_bytes(self) -> int:
        """Footprint a real device would need for this journal state.

        24 fixed bytes: command index, overlap offset, applied-region
        CRC, completion flag, and the record framing/CRCs of
        :meth:`to_bytes`, rounded up.
        """
        return 24 + len(self.backup_data) + len(self.scratch)

    # -- durable serialization -----------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize for the journal sector: self-checking records.

        Each record is a :func:`repro.records.encode_record` frame,
        ``type u8 | length varint | payload | crc32 u32le``, the CRC
        covering the type, length and payload.  Records are written in
        write-ahead order — state, scratch mirror, then the copy-overlap
        backup — so a torn final record is always the one whose
        protected action had not begun.
        """
        state = bytearray()
        state += encode_varint(self.next_index)
        state += (self.applied_crc & 0xFFFFFFFF).to_bytes(4, "little")
        state.append(1 if self.complete else 0)
        out = [encode_record(_REC_STATE, state)]
        if self.scratch:
            out.append(encode_record(_REC_SCRATCH, self.scratch))
        if self.backup_offset >= 0:
            out.append(encode_record(
                _REC_BACKUP,
                encode_varint(self.backup_offset) + self.backup_data))
        return b"".join(out)

    @classmethod
    def from_bytes(cls, data: Buffer) -> "Journal":
        """Recover a journal from its serialized sector.

        A torn tail — the final record truncated or failing its CRC
        because the power died while it was being written — is
        *dropped*, not fatal: the journal recovers to the last fully
        durable state and ``torn_tail`` is set.  A CRC failure on a
        record that is **not** the last one cannot be explained by a
        torn write and raises :class:`~repro.exceptions.IntegrityError`
        with ``kind="journal"`` — the sector has rotted and resuming
        from it would corrupt the image.
        """
        journal = cls()
        data = bytes(data)
        records, bad = scan_records(data)
        for record in records:
            payload = record.payload
            if record.kind == _REC_STATE:
                journal.next_index, p = decode_varint(payload, 0)
                if p + 5 > len(payload):
                    raise DeltaFormatError(
                        "journal state record payload is short"
                    )
                journal.applied_crc = int.from_bytes(
                    payload[p:p + 4], "little"
                )
                journal.complete = bool(payload[p + 4])
            elif record.kind == _REC_SCRATCH:
                journal.scratch = bytearray(payload)
            elif record.kind == _REC_BACKUP:
                offset, p = decode_varint(payload, 0)
                journal.backup_offset = offset
                journal.backup_data = payload[p:]
            else:
                raise DeltaFormatError(
                    "unknown journal record type 0x%02x at byte %d"
                    % (record.kind, record.offset)
                )
        if bad is None:
            return journal
        if bad.torn:
            journal.torn_tail = True
            return journal
        if bad.end is None:
            # Ten bytes were available and still no varint end.
            raise IntegrityError(
                "journal record length at byte %d is not a valid "
                "varint" % (bad.offset + 1),
                kind="journal", offset=bad.offset + 1,
            )
        raise IntegrityError(
            "journal record at byte %d failed its CRC with %d "
            "bytes following — the journal sector is corrupt, "
            "not torn; resuming would damage the image"
            % (bad.offset, len(data) - bad.end),
            kind="journal", offset=bad.offset,
            expected=bad.expected, actual=bad.actual,
        )


class JournaledApplier:
    """Applies an in-place script to storage with crash-safe resumption.

    Usage::

        applier = JournaledApplier(script, journal)   # journal persists
        applier.run(storage)                          # may raise PowerFailureError
        ...reboot...
        JournaledApplier(script, journal).run(storage)   # resumes, finishes

    ``run`` is idempotent once the journal reports completion.  The
    script must be in-place safe (converted); this is not re-verified
    here — the converter and verifier own that contract.
    """

    def __init__(self, script: DeltaScript, journal: Journal):
        self._script = script
        self._journal = journal

    def run(self, storage: CrashingStorage, *, chunk_size: int = 4096) -> None:
        """Execute (or resume) the script against ``storage``.

        On a resume (the journal shows progress), the storage regions
        written by every completed command are re-digested and checked
        against the journal's cumulative ``applied_crc`` before any new
        write: replay after a clean power cut passes, but storage that
        rotted while the device was down raises
        :class:`~repro.exceptions.IntegrityError` with ``kind="resume"``
        instead of silently building a corrupt image on top.
        """
        journal = self._journal
        script = self._script
        if journal.complete:
            return
        if len(journal.scratch) < script.scratch_length:
            journal.scratch.extend(
                b"\x00" * (script.scratch_length - len(journal.scratch))
            )
        needed = max(script.version_length, len(storage))
        if needed > len(storage):
            storage.resize(needed)
        if journal.next_index > 0:
            self._verify_applied(storage)

        commands = script.commands
        while journal.next_index < len(commands):
            index = journal.next_index
            cmd = commands[index]
            if isinstance(cmd, CopyCommand):
                self._run_copy(storage, cmd, chunk_size)
            elif isinstance(cmd, SpillCommand):
                # Scratch lives in the journal so it survives reboots; by
                # Equation 2 the source region is still pristine, so
                # re-execution after a crash is a pure re-read.
                journal.scratch[cmd.scratch:cmd.scratch + cmd.length] = \
                    storage[cmd.src:cmd.src + cmd.length]
            elif isinstance(cmd, FillCommand):
                storage[cmd.dst:cmd.dst + cmd.length] = bytes(
                    journal.scratch[cmd.scratch:cmd.scratch + cmd.length]
                )
            elif isinstance(cmd, AddCommand):
                storage[cmd.dst:cmd.dst + cmd.length] = cmd.data
            else:  # pragma: no cover - exhaustive over command types
                raise ReproError("unknown command type %r" % (cmd,))
            # Command finished: fold what it wrote into the applied
            # digest, then advance the journal (atomic by assumption)
            # and drop any overlap backup.
            journal.applied_crc = self._fold_applied(
                storage, cmd, journal.applied_crc
            )
            journal.backup_offset = -1
            journal.backup_data = b""
            journal.next_index = index + 1

        storage.resize(script.version_length)
        journal.complete = True

    @staticmethod
    def _fold_applied(storage: CrashingStorage, cmd,
                      crc: int) -> int:
        """Fold one completed command's written storage bytes into ``crc``.

        Spills write no storage, so they fold nothing — their durable
        effect lives in the journal's scratch mirror, which has its own
        record CRC.
        """
        if isinstance(cmd, SpillCommand):
            return crc
        start = cmd.write_interval.start
        stop = cmd.write_interval.stop + 1
        return zlib.crc32(bytes(storage[start:stop]), crc) & 0xFFFFFFFF

    def _verify_applied(self, storage: CrashingStorage) -> None:
        """Re-digest every completed command's written region on resume."""
        journal = self._journal
        crc = 0
        for cmd in self._script.commands[:journal.next_index]:
            crc = self._fold_applied(storage, cmd, crc)
        if crc != journal.applied_crc:
            raise IntegrityError(
                "resume verification failed: the %d already-applied "
                "commands' regions digest to 0x%08x but the journal "
                "recorded 0x%08x — storage was corrupted while the "
                "device was down; halting instead of building on rot"
                % (journal.next_index, crc, journal.applied_crc),
                kind="resume", expected=journal.applied_crc, actual=crc,
            )

    def _run_copy(self, storage: CrashingStorage, cmd: CopyCommand,
                  chunk_size: int) -> None:
        """Execute one copy idempotently.

        Non-overlapping copies re-read an untouched source, so naive
        re-execution is safe.  A self-overlapping copy can clobber its
        own source mid-flight, so the read∩write overlap's pre-image is
        journaled *before* the first byte is written; on resume the
        overlap is restored first, returning the region to its pristine
        state, and the copy re-runs from scratch.
        """
        journal = self._journal
        overlap = cmd.read_interval.intersection(cmd.write_interval)
        if not overlap.empty:
            if journal.backup_offset == overlap.start and \
                    len(journal.backup_data) == overlap.length:
                # Resuming an interrupted attempt: undo its partial writes
                # inside the overlap so the source reads correctly again.
                storage[overlap.start:overlap.stop + 1] = journal.backup_data
            else:
                journal.backup_offset = overlap.start
                journal.backup_data = bytes(
                    storage[overlap.start:overlap.stop + 1]
                )
        # Storage may be a CrashingStorage; _directional_copy only uses
        # the subscript protocol, so it works on either buffer type.
        _directional_copy(storage, cmd.src, cmd.dst, cmd.length, chunk_size)


def apply_with_power_failures(
    script: DeltaScript,
    reference: Buffer,
    crash_fuel_schedule: List[Optional[int]],
    *,
    chunk_size: int = 4096,
) -> bytes:
    """Test harness: apply ``script`` across a series of power failures.

    Each entry of ``crash_fuel_schedule`` is the write budget for one
    boot (``None`` = no crash).  The storage and journal persist across
    boots, exactly like flash and a journal sector.  Returns the final
    image; raises if the schedule ends before the patch completes.
    """
    storage = CrashingStorage(reference)
    journal = Journal()
    for fuel in crash_fuel_schedule:
        storage.fuel = fuel
        try:
            JournaledApplier(script, journal).run(storage, chunk_size=chunk_size)
        except PowerFailureError:
            continue  # reboot with whatever landed
        break
    if not journal.complete:
        raise ReproError("crash schedule exhausted before the patch completed")
    return storage.snapshot()
