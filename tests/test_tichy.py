"""Tests for the exact block-move differ (repro.delta.tichy)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.apply import apply_delta
from repro.delta.tichy import SuffixAutomaton, tichy_delta
from repro.workloads import mutate


class TestSuffixAutomaton:
    def test_contains_all_substrings(self):
        data = b"abcabxabcd"
        sam = SuffixAutomaton(data)
        for i in range(len(data)):
            for j in range(i + 1, len(data) + 1):
                assert sam.contains(data[i:j]), data[i:j]

    def test_rejects_non_substrings(self):
        sam = SuffixAutomaton(b"banana")
        for needle in (b"bananas", b"nab", b"aa", b"x"):
            assert not sam.contains(needle)

    def test_state_count_bound(self):
        rng = random.Random(1)
        data = rng.randbytes(500)
        sam = SuffixAutomaton(data)
        assert len(sam.length) <= 2 * len(data)  # one entry per state

    def test_longest_match_exact(self):
        sam = SuffixAutomaton(b"the quick brown fox")
        length, src = sam.longest_match(b"xxquick brownxx", 2)
        assert length == len("quick brown")
        assert b"the quick brown fox"[src:src + length] == b"quick brown"

    def test_longest_match_absent_byte(self):
        sam = SuffixAutomaton(b"aaaa")
        assert sam.longest_match(b"zzz", 0) == (0, -1)

    def test_first_occurrence_reported(self):
        sam = SuffixAutomaton(b"abXab")
        length, src = sam.longest_match(b"ab", 0)
        assert (length, src) == (2, 0)  # first of the two occurrences

    @given(data=st.binary(min_size=1, max_size=120),
           probe=st.binary(min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_contains_matches_in_operator(self, data, probe):
        assert SuffixAutomaton(data).contains(probe) == (probe in data)

    @given(data=st.binary(min_size=1, max_size=100),
           start=st.integers(0, 80),
           version=st.binary(min_size=1, max_size=100))
    @settings(max_examples=150, deadline=None)
    def test_longest_match_is_maximal_and_correct(self, data, start, version):
        if start >= len(version):
            return
        sam = SuffixAutomaton(data)
        length, src = sam.longest_match(version, start)
        if length:
            assert bytes(data[src:src + length]) == bytes(version[start:start + length])
        # Maximality: one more byte must not be a substring.
        if start + length < len(version):
            assert not sam.contains(version[start:start + length + 1])


class TestTichyDelta:
    def test_round_trip(self, sample_pair):
        ref, ver = sample_pair
        script = tichy_delta(ref, ver)
        script.validate(reference_length=len(ref))
        assert apply_delta(script, ref) == ver

    def test_pure_copy_covering_when_possible(self):
        # Every version byte occurs in the reference: no adds at all.
        ref = bytes(range(256))
        ver = bytes([5, 200, 17, 3]) * 10
        script = tichy_delta(ref, ver)
        assert script.added_bytes == 0

    def test_adds_only_for_absent_bytes(self):
        ref = b"abcabc"
        ver = b"abcZabc"
        script = tichy_delta(ref, ver)
        assert script.added_bytes == 1  # just the Z

    def test_copy_count_is_minimal_on_known_case(self):
        # Version = two reference blocks swapped; minimal covering is
        # exactly 2 copies, which greedy longest-match must find.
        ref = b"AAAAAAAABBBBBBBB"
        ver = b"BBBBBBBBAAAAAAAA"
        script = tichy_delta(ref, ver)
        assert len(script.copies()) == 2
        assert script.added_bytes == 0

    def test_takes_longest_match(self):
        # A short early match must not shadow the long one.
        ref = b"ab" + b"0123456789abcdefgh"
        ver = b"0123456789abcdefgh"
        script = tichy_delta(ref, ver)
        assert len(script.copies()) == 1
        assert script.copies()[0].src == 2

    def test_min_match_floor(self):
        ref = b"xyxyxy--0123456789"
        ver = b"xy0123456789"
        low = tichy_delta(ref, ver, min_match=1)
        high = tichy_delta(ref, ver, min_match=4)
        assert apply_delta(low, ref) == ver
        assert apply_delta(high, ref) == ver
        # With the floor, the 2-byte "xy" match becomes literals.
        assert high.added_bytes >= 2
        assert low.added_bytes == 0

    def test_min_match_validation(self):
        with pytest.raises(ValueError):
            tichy_delta(b"a", b"a", min_match=0)

    def test_prebuilt_automaton_reuse(self, rng):
        ref = rng.randbytes(2000)
        sam = SuffixAutomaton(ref)
        for _ in range(3):
            ver = mutate(ref, rng)
            script = tichy_delta(ref, ver, automaton=sam)
            assert apply_delta(script, ref) == ver

    def test_empty_inputs(self):
        assert tichy_delta(b"", b"abc").added_bytes == 3
        assert tichy_delta(b"abc", b"").commands == []

    def test_never_more_copies_than_seeded_greedy_on_coverable_input(self, rng):
        # On inputs both engines cover fully by copies, Tichy's command
        # count is minimal, hence no larger than the seeded greedy's.
        from repro.delta import greedy_delta

        a, b = rng.randbytes(800), rng.randbytes(800)
        ref = a + b
        ver = b + a
        tichy = tichy_delta(ref, ver)
        greedy = greedy_delta(ref, ver)
        assert tichy.added_bytes == 0
        if greedy.added_bytes == 0:
            assert len(tichy.copies()) <= len(greedy.copies())

    def test_registered_in_algorithms(self):
        import repro

        assert "tichy" in repro.ALGORITHMS
        script = repro.diff(b"hello world", b"world hello", algorithm="tichy")
        assert apply_delta(script, b"hello world") == b"world hello"
