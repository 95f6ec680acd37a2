"""Static safety verification for in-place delta scripts.

:func:`check_in_place_safe` is the executable form of Equation 2 of the
paper: a script is in-place reconstructible exactly when no command reads
an interval that any *earlier* command has written,

    for all j:  [f_j, f_j + l_j - 1]  ∩  union_{i<j} [t_i, t_i + l_i - 1]  =  ∅.

The checker walks the script in application order, accumulating written
intervals in a :class:`~repro.core.intervals.DynamicIntervalSet`, and
reports the first violation with both command positions — which is also
how the strict in-place applier fails, so the static and dynamic checks
agree by construction (a property the tests assert).

:func:`count_wr_conflicts` measures how conflicted an *arbitrary* script
is (Equation 1 pairs under the script's current order); the benches use it
to characterize inputs before conversion.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..exceptions import WriteBeforeReadError
from .commands import (
    AddCommand,
    CopyCommand,
    DeltaScript,
    FillCommand,
    SpillCommand,
    VersionWriter,
)
from .intervals import DynamicIntervalSet, Interval


def find_first_conflict(script: DeltaScript) -> Optional[Tuple[int, int]]:
    """First (writer, reader) pair violating Equation 2, or ``None``.

    ``writer`` is the position of an earlier command whose write interval
    intersects the read interval of the later copy at position ``reader``.
    Runs in ``O(n log n)`` using the incremental written-set.
    """
    written = DynamicIntervalSet()
    write_positions: List[Tuple[Interval, int]] = []
    for j, cmd in enumerate(script.commands):
        if isinstance(cmd, (CopyCommand, SpillCommand)):
            clash = written.first_intersection(cmd.read_interval)
            if clash is not None:
                writer = next(
                    i for iv, i in write_positions if iv.intersects(cmd.read_interval)
                )
                return (writer, j)
        if isinstance(cmd, VersionWriter):
            written.add(cmd.write_interval)
            write_positions.append((cmd.write_interval, j))
    return None


def check_in_place_safe(script: DeltaScript) -> None:
    """Raise :class:`WriteBeforeReadError` unless ``script`` satisfies Equation 2."""
    conflict = find_first_conflict(script)
    if conflict is not None:
        writer, reader = conflict
        raise WriteBeforeReadError(
            "command %d reads data command %d already overwrote; the script "
            "cannot be applied in place" % (reader, writer),
            writer_index=writer,
            reader_index=reader,
        )


def is_in_place_safe(script: DeltaScript) -> bool:
    """Boolean form of :func:`check_in_place_safe`."""
    return find_first_conflict(script) is None


def count_wr_conflicts(script: DeltaScript) -> int:
    """Number of ordered command pairs (i < j) with a WR conflict (Equation 1).

    Counts pairs where command ``i``'s write interval intersects copy
    ``j``'s read interval under the script's present order.  This is the
    quantity the conversion algorithm drives to zero.
    """
    conflicts = 0
    written = []
    # O(n^2) in the worst case but trims work with a sorted scan; scripts
    # here are command lists, not byte strings, so this stays fast enough
    # for analysis use.
    for cmd in script.commands:
        if isinstance(cmd, (CopyCommand, SpillCommand)):
            ri = cmd.read_interval
            for wi in written:
                if wi.intersects(ri):
                    conflicts += 1
        if isinstance(cmd, VersionWriter):
            written.append(cmd.write_interval)
    return conflicts


def adds_are_last(script: DeltaScript) -> bool:
    """True when every add/fill command follows every copy command.

    The converter always emits scripts in this shape (technique 1 of
    section 4.1, with fills treated like adds: both read nothing a copy
    can clobber); the verifier exposes it for tests and linting.
    """
    seen_trailing = False
    for cmd in script.commands:
        if isinstance(cmd, (AddCommand, FillCommand)):
            seen_trailing = True
        elif isinstance(cmd, CopyCommand) and seen_trailing:
            return False
    return True


def lint_in_place(script: DeltaScript, reference_length: Optional[int] = None) -> List[str]:
    """All structural complaints about ``script`` as an in-place delta.

    Returns human-readable messages (empty list means the script is a
    well-formed, in-place-safe delta with adds trailing).  Used by the CLI
    ``inspect`` command.
    """
    problems: List[str] = []
    try:
        script.validate(reference_length=reference_length)
    except Exception as exc:
        problems.append("structure: %s" % exc)
    conflict = find_first_conflict(script)
    if conflict is not None:
        problems.append(
            "safety: command %d reads bytes command %d already wrote"
            % (conflict[1], conflict[0])
        )
    if not adds_are_last(script):
        problems.append("layout: add commands are not all at the end of the script")
    return problems
