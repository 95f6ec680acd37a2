"""Delta command model: copy commands, add commands, and delta scripts.

A delta file (paper, section 3) is an ordered sequence of two command
kinds:

* a **copy command** ``<f, t, l>`` copies the ``l`` bytes at reference
  offset ``f`` to version offset ``t``;
* an **add command** ``<t, l>`` followed by ``l`` literal bytes writes
  those bytes at version offset ``t``.

The write intervals of the commands in one script are disjoint and, for a
complete script, cover the whole version file, so any application order
materializes the same version — *when two file spaces are available*.
In-place application additionally requires the read-before-write order
that :mod:`repro.core.convert` establishes.

:class:`DeltaScript` is the in-memory representation shared by the
differencing algorithms (which produce it), the converter (which permutes
it), the codecs (which serialize it), and the appliers (which execute it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

from ..exceptions import DeltaRangeError, IncompleteCoverError, OverlappingWriteError
from .intervals import Interval, are_disjoint, find_gaps, merge_intervals


@dataclass(frozen=True)
class CopyCommand:
    """Copy ``length`` bytes from reference offset ``src`` to version offset ``dst``.

    This is the paper's ordered triple ``<f, t, l>`` with ``f = src``,
    ``t = dst``, ``l = length``.
    """

    src: int
    dst: int
    length: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.dst < 0:
            raise DeltaRangeError(
                "copy offsets must be non-negative: src=%d dst=%d" % (self.src, self.dst)
            )
        if self.length <= 0:
            raise DeltaRangeError("copy length must be positive, got %d" % self.length)

    @property
    def read_interval(self) -> Interval:
        """The closed reference interval ``[f, f+l-1]`` this command reads."""
        return Interval.from_length(self.src, self.length)

    @property
    def write_interval(self) -> Interval:
        """The closed version interval ``[t, t+l-1]`` this command writes."""
        return Interval.from_length(self.dst, self.length)

    @property
    def self_overlapping(self) -> bool:
        """True when the read and write intervals intersect.

        Such a command is still safe in place: copy left-to-right when
        ``src >= dst`` and right-to-left otherwise (paper, section 4.1).
        """
        return self.read_interval.intersects(self.write_interval)

    def to_add(self, reference: Union[bytes, bytearray, memoryview]) -> "AddCommand":
        """The equivalent add command, with data taken from ``reference``.

        This is the conversion the cycle-breaking step performs: the copied
        string is materialized into the delta itself.
        """
        end = self.src + self.length
        if end > len(reference):
            raise DeltaRangeError(
                "copy reads [%d, %d) beyond reference of length %d"
                % (self.src, end, len(reference))
            )
        return AddCommand(self.dst, bytes(reference[self.src:end]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Copy(src=%d, dst=%d, len=%d)" % (self.src, self.dst, self.length)


@dataclass(frozen=True)
class AddCommand:
    """Write the literal ``data`` at version offset ``dst``.

    This is the paper's ordered pair ``<t, l>`` followed by ``l`` bytes.
    """

    dst: int
    data: bytes

    def __post_init__(self) -> None:
        if self.dst < 0:
            raise DeltaRangeError("add offset must be non-negative, got %d" % self.dst)
        if len(self.data) == 0:
            raise DeltaRangeError("add command must carry at least one byte")

    @property
    def length(self) -> int:
        """Number of literal bytes written."""
        return len(self.data)

    @property
    def write_interval(self) -> Interval:
        """The closed version interval ``[t, t+l-1]`` this command writes."""
        return Interval.from_length(self.dst, self.length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = self.data[:8]
        return "Add(dst=%d, len=%d, data=%r%s)" % (
            self.dst,
            self.length,
            preview,
            "..." if self.length > 8 else "",
        )


@dataclass(frozen=True)
class SpillCommand:
    """Save ``length`` reference bytes at ``src`` into scratch at ``scratch``.

    The bounded-scratch extension (anticipated by the paper's conclusion
    and developed in the authors' journal follow-up): instead of paying
    ``l - |f|`` bytes of compression to convert a cycle-breaking copy to
    an add, the copy's *source* data is saved to a small scratch buffer
    before any write clobbers it, and later restored by the matching
    :class:`FillCommand`.  A spill reads the reference and writes only
    scratch, so placed at the front of a script it can never conflict.
    """

    src: int
    scratch: int
    length: int

    def __post_init__(self) -> None:
        if self.src < 0 or self.scratch < 0:
            raise DeltaRangeError(
                "spill offsets must be non-negative: src=%d scratch=%d"
                % (self.src, self.scratch)
            )
        if self.length <= 0:
            raise DeltaRangeError("spill length must be positive, got %d" % self.length)

    @property
    def read_interval(self) -> Interval:
        """The reference interval this command reads."""
        return Interval.from_length(self.src, self.length)

    @property
    def scratch_interval(self) -> Interval:
        """The scratch interval this command fills."""
        return Interval.from_length(self.scratch, self.length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Spill(src=%d, scratch=%d, len=%d)" % (self.src, self.scratch, self.length)


@dataclass(frozen=True)
class FillCommand:
    """Write ``length`` bytes from scratch offset ``scratch`` to version ``dst``.

    The restoring half of a spill/fill pair.  Fills read only scratch
    (which no copy or add can overwrite), so like adds they are placed
    after every copy command.
    """

    scratch: int
    dst: int
    length: int

    def __post_init__(self) -> None:
        if self.scratch < 0 or self.dst < 0:
            raise DeltaRangeError(
                "fill offsets must be non-negative: scratch=%d dst=%d"
                % (self.scratch, self.dst)
            )
        if self.length <= 0:
            raise DeltaRangeError("fill length must be positive, got %d" % self.length)

    @property
    def scratch_interval(self) -> Interval:
        """The scratch interval this command reads."""
        return Interval.from_length(self.scratch, self.length)

    @property
    def write_interval(self) -> Interval:
        """The closed version interval this command writes."""
        return Interval.from_length(self.dst, self.length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Fill(scratch=%d, dst=%d, len=%d)" % (self.scratch, self.dst, self.length)


Command = Union[CopyCommand, AddCommand, SpillCommand, FillCommand]

#: Commands that write an interval of the version file.
VersionWriter = (CopyCommand, AddCommand, FillCommand)


@dataclass
class DeltaScript:
    """An ordered sequence of delta commands encoding one version file.

    ``commands`` preserves application order, which matters only for
    in-place scripts; for ordinary two-space scripts any order is
    equivalent.  ``version_length`` records the length of the version file
    the script materializes (the paper's ``L_V``); it is validated against
    the commands when :meth:`validate` runs.
    """

    commands: List[Command] = field(default_factory=list)
    version_length: int = 0

    # -- views ---------------------------------------------------------

    def copies(self) -> List[CopyCommand]:
        """The copy commands, in script order."""
        return [c for c in self.commands if isinstance(c, CopyCommand)]

    def adds(self) -> List[AddCommand]:
        """The add commands, in script order."""
        return [c for c in self.commands if isinstance(c, AddCommand)]

    def spills(self) -> List[SpillCommand]:
        """The spill commands (reference -> scratch), in script order."""
        return [c for c in self.commands if isinstance(c, SpillCommand)]

    def fills(self) -> List[FillCommand]:
        """The fill commands (scratch -> version), in script order."""
        return [c for c in self.commands if isinstance(c, FillCommand)]

    @property
    def scratch_length(self) -> int:
        """Bytes of scratch buffer this script needs (0 when none used)."""
        needed = 0
        for cmd in self.commands:
            if isinstance(cmd, (SpillCommand, FillCommand)):
                needed = max(needed, cmd.scratch_interval.stop + 1)
        return needed

    def __len__(self) -> int:
        return len(self.commands)

    def __iter__(self) -> Iterator[Command]:
        return iter(self.commands)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaScript):
            return NotImplemented
        return (
            self.commands == other.commands
            and self.version_length == other.version_length
        )

    # -- statistics ----------------------------------------------------

    @property
    def copied_bytes(self) -> int:
        """Total bytes materialized through copy commands."""
        return sum(c.length for c in self.commands if isinstance(c, CopyCommand))

    @property
    def added_bytes(self) -> int:
        """Total literal bytes carried in add commands."""
        return sum(c.length for c in self.commands if isinstance(c, AddCommand))

    def stats(self) -> dict:
        """Summary counters used by the analysis and CLI layers."""
        copies = self.copies()
        adds = self.adds()
        fills = self.fills()
        return {
            "commands": len(self.commands),
            "copies": len(copies),
            "adds": len(adds),
            "spills": len(self.spills()),
            "fills": len(fills),
            "copied_bytes": sum(c.length for c in copies),
            "added_bytes": sum(a.length for a in adds),
            "scratch_bytes": sum(f.length for f in fills),
            "scratch_length": self.scratch_length,
            "version_length": self.version_length,
            "self_overlapping_copies": sum(1 for c in copies if c.self_overlapping),
        }

    # -- validation ----------------------------------------------------

    def validate(
        self,
        reference_length: Optional[int] = None,
        require_cover: bool = True,
    ) -> None:
        """Check the structural invariants of a well-formed delta script.

        * write intervals are pairwise disjoint;
        * write intervals lie inside ``[0, version_length)``;
        * read intervals lie inside ``[0, reference_length)`` when a
          reference length is supplied;
        * when ``require_cover`` is set, the write intervals exactly cover
          the version file.

        Raises the matching :mod:`repro.exceptions` subtype on the first
        violation found.
        """
        writers = [
            (i, cmd) for i, cmd in enumerate(self.commands)
            if isinstance(cmd, VersionWriter)
        ]
        writes = [cmd.write_interval for _, cmd in writers]
        if not are_disjoint(writes):
            items = sorted((cmd.write_interval, i) for i, cmd in writers)
            for (a, ai), (b, bi) in zip(items, items[1:]):
                if b.start <= a.stop:
                    raise OverlappingWriteError(
                        "commands %d and %d write overlapping intervals %r and %r"
                        % (ai, bi, a, b)
                    )
        for i, cmd in writers:
            wi = cmd.write_interval
            if wi.stop >= self.version_length:
                raise DeltaRangeError(
                    "command %d writes %r beyond version length %d"
                    % (i, wi, self.version_length)
                )
        if reference_length is not None:
            for i, cmd in enumerate(self.commands):
                if isinstance(cmd, (CopyCommand, SpillCommand)):
                    ri = cmd.read_interval
                    if ri.stop >= reference_length:
                        raise DeltaRangeError(
                            "command %d reads %r beyond reference length %d"
                            % (i, ri, reference_length)
                        )
        self._validate_scratch()
        if require_cover and self.version_length > 0:
            gaps = find_gaps(writes, Interval(0, self.version_length - 1))
            if gaps:
                raise IncompleteCoverError(
                    "version bytes not produced by any command: %s"
                    % ", ".join("[%d, %d]" % (g.start, g.stop) for g in gaps[:5]),
                    gaps=[(g.start, g.stop + 1) for g in gaps],
                )

    def _validate_scratch(self) -> None:
        """Check spill/fill consistency: disjoint spills covering all fills."""
        spill_intervals = [cmd.scratch_interval for cmd in self.spills()]
        if not are_disjoint(spill_intervals):
            raise OverlappingWriteError(
                "spill commands write overlapping scratch intervals"
            )
        fills = self.fills()
        if fills:
            covered = merge_intervals(spill_intervals)
            for i, cmd in enumerate(fills):
                if not any(iv.contains_interval(cmd.scratch_interval) for iv in covered):
                    raise DeltaRangeError(
                        "fill %d reads scratch %r that no single spill region covers"
                        % (i, cmd.scratch_interval)
                    )

    # -- transforms ----------------------------------------------------

    @staticmethod
    def _write_order_key(cmd: Command) -> int:
        """Sort key by version write offset; spills (no write) sort first."""
        if isinstance(cmd, VersionWriter):
            return cmd.write_interval.start
        return -1

    def in_write_order(self) -> "DeltaScript":
        """A copy of the script with commands sorted by write offset."""
        ordered = sorted(self.commands, key=self._write_order_key)
        return DeltaScript(ordered, self.version_length)

    def coalesced(self) -> "DeltaScript":
        """Merge adjacent commands that can be expressed as one.

        Consecutive-in-write-order copies with contiguous source and
        destination ranges merge into one copy; adjacent adds merge into
        one add.  Spills and fills are never merged.  Used by the
        differencing algorithms to tidy output and by tests to normalize
        scripts for comparison.
        """
        ordered = sorted(self.commands, key=self._write_order_key)
        merged: List[Command] = []
        for cmd in ordered:
            if merged:
                prev = merged[-1]
                if (
                    isinstance(prev, CopyCommand)
                    and isinstance(cmd, CopyCommand)
                    and prev.dst + prev.length == cmd.dst
                    and prev.src + prev.length == cmd.src
                ):
                    merged[-1] = CopyCommand(prev.src, prev.dst, prev.length + cmd.length)
                    continue
                if (
                    isinstance(prev, AddCommand)
                    and isinstance(cmd, AddCommand)
                    and prev.dst + prev.length == cmd.dst
                ):
                    merged[-1] = AddCommand(prev.dst, prev.data + cmd.data)
                    continue
            merged.append(cmd)
        return DeltaScript(merged, self.version_length)
