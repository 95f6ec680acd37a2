"""Script optimization: shrink a delta's encoded size without changing output.

The differencing algorithms optimize match coverage, not codeword
economy, and the converter can only grow a script.  This pass closes the
gap with three size-only rewrites, each safe because it preserves the
byte function the script computes:

* **coalesce** — adjacent commands with contiguous sources merge
  (re-export of :meth:`DeltaScript.coalesced` semantics, applied
  per-run without disturbing application order);
* **inline tiny copies** — a copy whose codeword costs more than its
  data (e.g. a 2-byte copy with 3 varint fields) becomes an add,
  *reducing* size — the mirror image of the converter's lossy
  copy-to-add eviction, and also one less CRWI vertex;
* **merge add runs** — adds separated only by inlined copies fuse, then
  re-split optimally at encode time.

The pass needs the reference bytes (to inline copies) and an encoding
cost model (:func:`repro.delta.encode.encoded_size` on single commands
via the same field arithmetic).  It runs before conversion — fewer and
larger commands also mean a smaller conflict digraph — or after, since
it never reorders commands with interfering intervals (inlining moves
no reads; coalescing only fuses *adjacent* commands, which preserves
Equation 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..delta.varint import varint_size
from .commands import AddCommand, Command, CopyCommand, DeltaScript

Buffer = Union[bytes, bytearray, memoryview]


@dataclass
class OptimizeReport:
    """What one optimization pass changed."""

    coalesced: int = 0
    inlined_copies: int = 0
    inlined_bytes: int = 0
    merged_adds: int = 0


def copy_codeword_size(cmd: CopyCommand, *, with_offsets: bool = True) -> int:
    """Encoded size of one copy codeword in the varint formats."""
    size = 1 + varint_size(cmd.src) + varint_size(cmd.length)
    if with_offsets:
        size += varint_size(cmd.dst)
    return size


def add_codeword_size(length: int, dst: int, *, with_offsets: bool = True) -> int:
    """Encoded size of ``length`` literal bytes at ``dst`` (chunked adds)."""
    size = 0
    done = 0
    while done < length:
        step = min(255, length - done)
        size += 1 + 1 + step
        if with_offsets:
            size += varint_size(dst + done)
        done += step
    return size


def _try_merge(prev: Command, cur: Command) -> Optional[Command]:
    """The single command equivalent to ``prev`` then ``cur``, if one exists."""
    if isinstance(prev, CopyCommand) and isinstance(cur, CopyCommand):
        if prev.dst + prev.length == cur.dst and prev.src + prev.length == cur.src:
            return CopyCommand(prev.src, prev.dst, prev.length + cur.length)
    if isinstance(prev, AddCommand) and isinstance(cur, AddCommand):
        if prev.dst + prev.length == cur.dst:
            return AddCommand(prev.dst, prev.data + cur.data)
    return None


def optimize_script(
    script: DeltaScript,
    reference: Optional[Buffer] = None,
    *,
    with_offsets: bool = True,
) -> "tuple[DeltaScript, OptimizeReport]":
    """Rewrite ``script`` for a smaller encoding; output is equivalent.

    Only plain copy/add scripts are rewritten; scripts containing
    scratch commands are returned unchanged (their layout is the
    converter's business).  ``reference`` enables copy inlining; without
    it only coalescing runs.  ``with_offsets`` selects the cost model
    (in-place codewords carry a ``t`` field).
    """
    report = OptimizeReport()
    if any(not isinstance(c, (CopyCommand, AddCommand)) for c in script.commands):
        return script, report

    out: List[Command] = []
    for cmd in script.commands:
        # Inline copies whose codeword outweighs their data.
        if (
            reference is not None
            and isinstance(cmd, CopyCommand)
            and copy_codeword_size(cmd, with_offsets=with_offsets)
            >= add_codeword_size(cmd.length, cmd.dst, with_offsets=with_offsets)
        ):
            cmd = cmd.to_add(reference)
            report.inlined_copies += 1
            report.inlined_bytes += cmd.length
        # Fuse with the previous command when possible.
        if out:
            merged = _try_merge(out[-1], cmd)
            if merged is not None:
                if isinstance(cmd, AddCommand) and isinstance(out[-1], AddCommand):
                    report.merged_adds += 1
                else:
                    report.coalesced += 1
                out[-1] = merged
                continue
        out.append(cmd)
    return DeltaScript(out, script.version_length), report
