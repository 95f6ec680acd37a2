"""Delta composition: fold a chain of deltas into one.

A device several releases behind needs `v0 -> vN`.  The server holds
per-release deltas `d1: v0 -> v1, ..., dN: v(N-1) -> vN`; recomputing a
direct delta needs both full versions, but the deltas alone suffice:
**composition** rewrites `d2`'s commands to read from `v0` by mapping
each copy's read interval through `d1`'s write intervals,

* the part of a read that `d1` produced with a *copy* becomes a copy
  from `v0` (offsets translated through that copy);
* the part `d1` produced with an *add* becomes an add carrying those
  literal bytes sliced out of `d1`;

so ``apply(compose(d1, d2), v0) == apply(d2, apply(d1, v0))`` holds for
all inputs — the associativity the tests verify.  Because write
intervals are disjoint, `d1`'s commands are sorted by write offset once
and each read finds its first overlapping write by ``bisect`` over the
flat list of write starts: composition costs
``O(|d1| log |d1| + |d2| log |d1| + output)`` and never touches file
data beyond the adds already inside the deltas.

Composed deltas accumulate fragmentation (a read spanning many `d1`
commands splits), so :func:`compose_scripts` coalesces adjacent output
fragments in the same pass that builds the output commands; the
chain-update bench measures how composed size compares to a direct
delta across release chains.

Scratch-using scripts cannot be composed directly (spill/fill pairs are
tied to their own script's schedule); compose the *plain* deltas, then
convert the result for in-place application.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter, itemgetter
from typing import List, Optional, Tuple

from ..exceptions import DeltaRangeError, ReproError
from .commands import AddCommand, Command, CopyCommand, DeltaScript

_dst = attrgetter("dst")
_frag_dst = itemgetter(0)

#: One output fragment: ``(dst, length, src, data)`` — a copy from
#: ``src`` when ``data`` is ``None``, else literal ``data``.
_Fragment = Tuple[int, int, int, Optional[bytes]]


def _coalesced(fragments: List[_Fragment]) -> List[Command]:
    """Fragments in write order, adjacent ones merged, as commands.

    Copies merge when both their version and reference ranges are
    contiguous, adds when their version ranges are — exactly
    :meth:`DeltaScript.coalesced` — but each output command is built
    once, from plain integers, after its run is complete.
    """
    fragments.sort(key=_frag_dst)
    commands: List[Command] = []
    i, n = 0, len(fragments)
    while i < n:
        dst, length, src, data = fragments[i]
        i += 1
        if data is None:
            while i < n:
                nxt_dst, nxt_len, nxt_src, nxt_data = fragments[i]
                if (nxt_data is not None or nxt_dst != dst + length
                        or nxt_src != src + length):
                    break
                length += nxt_len
                i += 1
            commands.append(CopyCommand(src, dst, length))
            continue
        pieces = [data]
        while i < n:
            nxt_dst, nxt_len, _src, nxt_data = fragments[i]
            if nxt_data is None or nxt_dst != dst + length:
                break
            pieces.append(nxt_data)
            length += nxt_len
            i += 1
        commands.append(AddCommand(
            dst, data if len(pieces) == 1 else b"".join(pieces)))
    return commands


def compose_scripts(first: DeltaScript, second: DeltaScript) -> DeltaScript:
    """The single delta equivalent to applying ``first`` then ``second``.

    Both inputs must be plain (copy/add) scripts; ``first`` must cover
    every byte ``second`` reads (:class:`~repro.exceptions.DeltaRangeError`
    otherwise).  The result reads only ``first``'s reference and writes
    ``second``'s version, in write order, with adjacent mapped fragments
    merged back into single commands.
    """
    for cmd in first.commands:
        if not isinstance(cmd, (CopyCommand, AddCommand)):
            raise ReproError(
                "cannot compose through %r; compose plain deltas and "
                "convert the result instead" % (cmd,)
            )
    ordered = sorted(first.commands, key=_dst)
    starts = [cmd.dst for cmd in ordered]
    ends = [cmd.dst + cmd.length for cmd in ordered]
    for k in range(1, len(ordered)):
        if starts[k] < ends[k - 1]:
            raise ValueError(
                "first delta writes overlapping intervals [%d, %d] and "
                "[%d, %d]" % (starts[k - 1], ends[k - 1] - 1,
                              starts[k], ends[k] - 1))
    n = len(ordered)
    fragments: List[_Fragment] = []
    emit = fragments.append
    for cmd in second.commands:
        if isinstance(cmd, CopyCommand):
            lo = cmd.src
            hi = lo + cmd.length
            shift = cmd.dst - lo
            j = bisect_right(starts, lo) - 1
            if j < 0 or ends[j] <= lo:
                j += 1
            cursor = lo
            while j < n and starts[j] < hi:
                start = starts[j]
                part = start if start > lo else lo
                if part != cursor:
                    raise DeltaRangeError(
                        "composition read [%d, %d] falls into a hole of "
                        "the first delta at offset %d" % (lo, hi - 1, cursor)
                    )
                end = ends[j] if ends[j] < hi else hi
                src_cmd = ordered[j]
                if isinstance(src_cmd, CopyCommand):
                    emit((part + shift, end - part,
                          src_cmd.src + part - start, None))
                else:
                    emit((part + shift, end - part, -1,
                          src_cmd.data[part - start:end - start]))
                cursor = end
                j += 1
            if cursor != hi:
                raise DeltaRangeError(
                    "composition read [%d, %d] extends past the first "
                    "delta's version (length %d)"
                    % (lo, hi - 1, first.version_length)
                )
        elif isinstance(cmd, AddCommand):
            emit((cmd.dst, len(cmd.data), -1, cmd.data))
        else:
            raise ReproError(
                "cannot compose scripts containing %r; compose plain deltas "
                "and convert afterwards" % (cmd,)
            )
    return DeltaScript(_coalesced(fragments), second.version_length)


def compose_chain(deltas: List[DeltaScript]) -> DeltaScript:
    """Fold a whole release chain left to right into one delta."""
    if not deltas:
        raise ValueError("cannot compose an empty delta chain")
    result = deltas[0]
    for nxt in deltas[1:]:
        result = compose_scripts(result, nxt)
    return result
