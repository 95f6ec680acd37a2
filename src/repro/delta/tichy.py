"""Tichy-style string-to-string correction with block move (reference [14]).

Tichy formalized minimal delta encoding as *block move* covering: encode
the version as a minimal sequence of copies of reference substrings,
with literal adds only for symbols the reference lacks.  His greedy
theorem — always take the **longest** reference match at the current
position — yields a covering with the minimum possible number of copy
commands.

The practical algorithms in this package (greedy / onepass / correcting)
approximate that ideal with seed hashing; this module implements it
*exactly* using a suffix automaton of the reference, which answers "what
is the longest reference substring starting here?" with no hash
collisions, no seed-length floor, and no candidate caps.  It costs
memory linear in the reference (automaton states and transitions) and is
the slowest engine here, so its role is calibration: benches and tests
measure how close the linear-time algorithms get to the true optimum.

``min_match`` trades Tichy's command-minimality for encoded size: a
1-byte copy codeword is larger than a 1-byte add, so raising the floor
to a few bytes usually produces smaller delta *files* while no longer
minimizing *commands*.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from ..core.commands import DeltaScript
from .builder import ScriptBuilder

Buffer = Union[bytes, bytearray, memoryview]


class SuffixAutomaton:
    """Suffix automaton over a byte string.

    Built in ``O(n)`` states/transitions (amortized); recognizes exactly
    the substrings of the input.  Each state records the end position of
    the *first* occurrence of its strings, so matches can be mapped back
    to a concrete reference offset.
    """

    __slots__ = ("transitions", "link", "length", "first_end", "_last")

    def __init__(self, data: Buffer):
        # State 0 is the root (empty string).
        self.transitions: List[Dict[int, int]] = [{}]
        self.link: List[int] = [-1]
        self.length: List[int] = [0]
        self.first_end: List[int] = [0]
        self._last = 0
        for position, byte in enumerate(data):
            self._extend(byte, position + 1)

    def _new_state(self, length: int, link: int, transitions: Dict[int, int],
                   first_end: int) -> int:
        self.transitions.append(transitions)
        self.link.append(link)
        self.length.append(length)
        self.first_end.append(first_end)
        return len(self.length) - 1

    def _extend(self, byte: int, end: int) -> None:
        cur = self._new_state(end, -1, {}, end)
        p = self._last
        while p >= 0 and byte not in self.transitions[p]:
            self.transitions[p][byte] = cur
            p = self.link[p]
        if p < 0:
            self.link[cur] = 0
        else:
            q = self.transitions[p][byte]
            if self.length[p] + 1 == self.length[q]:
                self.link[cur] = q
            else:
                clone = self._new_state(
                    self.length[p] + 1,
                    self.link[q],
                    dict(self.transitions[q]),
                    self.first_end[q],
                )
                while p >= 0 and self.transitions[p].get(byte) == q:
                    self.transitions[p][byte] = clone
                    p = self.link[p]
                self.link[q] = clone
                self.link[cur] = clone
        self._last = cur

    def contains(self, needle: Buffer) -> bool:
        """True when ``needle`` is a substring of the indexed data."""
        state = 0
        for byte in needle:
            state = self.transitions[state].get(byte, -1)
            if state < 0:
                return False
        return True

    def longest_match(self, data: Buffer, start: int) -> Tuple[int, int]:
        """Longest prefix of ``data[start:]`` occurring in the indexed string.

        Returns ``(length, source_offset)`` where ``source_offset`` is
        the start of one occurrence (the earliest first occurrence the
        automaton recorded); ``(0, -1)`` when even the first byte is
        absent.
        """
        state = 0
        matched = 0
        limit = len(data)
        pos = start
        while pos < limit:
            nxt = self.transitions[state].get(data[pos])
            if nxt is None:
                break
            state = nxt
            matched += 1
            pos += 1
        if matched == 0:
            return 0, -1
        return matched, self.first_end[state] - matched


def tichy_delta(
    reference: Buffer,
    version: Buffer,
    *,
    min_match: int = 1,
    automaton: Optional[SuffixAutomaton] = None,
) -> DeltaScript:
    """Exact greedy block-move differencing.

    At every version offset, take the longest reference match (exact,
    via the suffix automaton); matches shorter than ``min_match`` become
    literal bytes.  With ``min_match=1`` the output provably minimizes
    the number of copy commands (Tichy's greedy theorem).  Pass a
    prebuilt ``automaton`` to amortize indexing across many versions of
    one reference.
    """
    if min_match <= 0:
        raise ValueError("min_match must be positive, got %d" % min_match)
    builder = ScriptBuilder(version)
    if len(version) == 0:
        return builder.finish()
    if len(reference) == 0:
        return builder.finish()
    sam = automaton if automaton is not None else SuffixAutomaton(reference)
    pos = 0
    n = len(version)
    while pos < n:
        length, src = sam.longest_match(version, pos)
        if length >= min_match:
            builder.emit_copy(src, pos, length)
            pos += length
        else:
            pos += 1  # literal byte; a longer match may start at pos + 1
    return builder.finish()
