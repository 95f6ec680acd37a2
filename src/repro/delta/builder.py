"""Shared command emitter for the differencing algorithms.

All three differencing algorithms scan the version file left to right,
alternating between *pending* literal bytes (not yet matched) and copy
commands.  :class:`ScriptBuilder` owns that bookkeeping: it tracks the
start of the pending add region, flushes it as an
:class:`~repro.core.commands.AddCommand` when a copy is emitted, supports
the *backward extension* the correcting algorithm uses (shrinking the
pending region from the right), and guarantees the finished script's
write intervals are disjoint, contiguous, and cover the version.
"""

from __future__ import annotations

from typing import List, Union

from ..core.commands import AddCommand, Command, CopyCommand, DeltaScript

Buffer = Union[bytes, bytearray, memoryview]


class ScriptBuilder:
    """Accumulates commands while a differencing scan walks the version file."""

    def __init__(self, version: Buffer):
        self._version = version
        self._commands: List[Command] = []
        #: Version offset where the current pending-add region begins.
        self.add_start = 0
        #: Version offset up to which commands have been decided.
        self.cursor = 0

    @property
    def commands(self) -> List[Command]:
        """Commands emitted so far (pending add region not included)."""
        return self._commands

    def _flush_add(self, upto: int) -> None:
        """Emit the pending literal bytes ``version[add_start:upto]``, if any."""
        if upto > self.add_start:
            data = bytes(self._version[self.add_start:upto])
            self._commands.append(AddCommand(self.add_start, data))
        self.add_start = upto

    def emit_copy(self, src: int, dst: int, length: int) -> None:
        """Record a copy writing ``[dst, dst+length)``; flushes pending adds.

        ``dst`` may fall anywhere at or after ``add_start``: a backward-
        extended match simply places ``dst`` inside the pending region,
        re-classifying those pending literals as copied bytes.  ``dst``
        may never precede ``add_start`` — committed commands are not
        reopened.
        """
        if dst < self.add_start:
            raise ValueError(
                "copy at version offset %d overlaps already-committed region "
                "(add_start=%d)" % (dst, self.add_start)
            )
        self._flush_add(dst)
        self._commands.append(CopyCommand(src, dst, length))
        self.add_start = dst + length
        self.cursor = max(self.cursor, self.add_start)

    def finish(self) -> DeltaScript:
        """Flush the trailing add region and return the completed script."""
        self._flush_add(len(self._version))
        return DeltaScript(list(self._commands), len(self._version))
