"""Unit tests for rolling hashes and seed tables (repro.delta.rolling)."""

import random

import pytest

from repro.delta.rolling import (
    FullSeedIndex,
    RollingHash,
    SeedTable,
    hash_seed,
    iter_seed_hashes,
    match_length,
    match_length_backward,
    use_fast_paths,
)


class TestRollingHash:
    def test_matches_one_shot(self):
        data = b"the quick brown fox jumps over the lazy dog"
        window = 8
        roller = RollingHash(window)
        roller.reset(data, 0)
        for offset in range(1, len(data) - window + 1):
            rolled = roller.update(data[offset - 1], data[offset + window - 1])
            assert rolled == hash_seed(data, offset, window), offset

    def test_equal_windows_equal_hashes(self):
        data = b"abcabcabc"
        assert hash_seed(data, 0, 3) == hash_seed(data, 3, 3) == hash_seed(data, 6, 3)

    def test_different_windows_differ(self):
        # Not guaranteed in general, but these tiny inputs must not collide.
        assert hash_seed(b"abcd", 0, 4) != hash_seed(b"abce", 0, 4)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            RollingHash(0)

    def test_iter_seed_hashes(self):
        data = b"abcdef"
        pairs = list(iter_seed_hashes(data, 4))
        assert [p[0] for p in pairs] == [0, 1, 2]
        assert pairs[1][1] == hash_seed(data, 1, 4)

    def test_iter_short_input(self):
        assert list(iter_seed_hashes(b"ab", 4)) == []


class TestSeedTable:
    def test_first_come_first_served(self):
        table = SeedTable(64)
        assert table.insert(5, 100)
        assert not table.insert(5, 200)  # slot taken
        assert table.lookup(5) == 100

    def test_collision_same_slot(self):
        table = SeedTable(8)
        table.insert(1, 10)
        assert table.lookup(9) == 10  # 9 % 8 == 1: same slot, stale value

    def test_lookup_empty(self):
        assert SeedTable(8).lookup(3) is None

    def test_occupancy_and_clear(self):
        table = SeedTable(16)
        table.insert(0, 1)
        table.insert(1, 2)
        assert table.occupied == 2
        table.clear()
        assert table.occupied == 0
        assert table.lookup(0) is None

    def test_bad_size(self):
        with pytest.raises(ValueError):
            SeedTable(0)

    @pytest.mark.parametrize("fast", [True, False])
    def test_bad_size_from_fingerprints(self, fast):
        previous = use_fast_paths(fast)
        try:
            with pytest.raises(ValueError):
                SeedTable.from_fingerprints([1, 2, 3], 0)
        finally:
            use_fast_paths(previous)


class TestFullSeedIndex:
    def test_finds_all_occurrences(self):
        data = b"xxABCDyyABCDzz"
        index = FullSeedIndex(data, seed_length=4)
        fingerprint = hash_seed(data, 2, 4)  # "ABCD"
        assert 2 in index.candidates(fingerprint)
        assert 8 in index.candidates(fingerprint)

    def test_max_positions_cap(self):
        data = b"\x00" * 100
        index = FullSeedIndex(data, seed_length=4, max_positions=5)
        fingerprint = hash_seed(data, 0, 4)
        assert len(index.candidates(fingerprint)) == 5

    def test_unknown_fingerprint(self):
        index = FullSeedIndex(b"abcdef", seed_length=4)
        assert index.candidates(123456789) == []


class TestMatchLength:
    def test_basic(self):
        assert match_length(b"abcdef", 0, b"abcxef", 0) == 3

    def test_full_match(self):
        assert match_length(b"abab", 0, b"abab", 0) == 4

    def test_offset_starts(self):
        assert match_length(b"xxabc", 2, b"yyyabc", 3) == 3

    def test_limit(self):
        assert match_length(b"aaaa", 0, b"aaaa", 0, limit=2) == 2

    def test_no_match(self):
        assert match_length(b"a", 0, b"b", 0) == 0

    def test_long_match_chunked(self):
        rng = random.Random(1)
        blob = rng.randbytes(5000)
        a = blob + b"X"
        b = blob + b"Y"
        assert match_length(a, 0, b, 0) == 5000

    def test_mismatch_inside_chunk(self):
        a = b"a" * 1000 + b"Z" + b"a" * 100
        b = b"a" * 1101
        assert match_length(a, 0, b, 0) == 1000


class TestMatchLengthBackward:
    def test_basic(self):
        assert match_length_backward(b"xxABC", 5, b"yABC", 4) == 3

    def test_limit(self):
        assert match_length_backward(b"aaaa", 4, b"aaaa", 4, limit=2) == 2

    def test_zero(self):
        assert match_length_backward(b"ab", 2, b"cd", 2) == 0

    def test_bounded_by_ends(self):
        assert match_length_backward(b"abc", 1, b"xabc", 2) == 1
