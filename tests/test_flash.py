"""Tests for the erase-block flash model (repro.device.flash)."""

import pytest

import repro
from repro.device.flash import (
    FlashArray,
    WearLimitExceeded,
    full_reprogram,
    measure_update_wear,
)
from repro.workloads import mutate


class TestFlashArray:
    def test_reads_are_free(self):
        flash = FlashArray(b"abcdefgh", block_size=4)
        assert flash[0] == ord("a")
        assert bytes(flash[2:6]) == b"cdef"
        assert flash.wear().total_erases == 0

    def test_sequential_writes_one_erase_per_block(self):
        flash = FlashArray(bytes(16), block_size=4)
        flash[0:16] = bytes(range(1, 17))
        wear = flash.wear()
        assert wear.total_erases == 4
        assert sum(1 for e in wear.erases_per_block if e) == 4
        assert flash.image() == bytes(range(1, 17))

    def test_writes_within_one_block_share_an_erase(self):
        flash = FlashArray(bytes(8), block_size=8)
        flash[0] = 1
        flash[3] = 2
        flash[7] = 3
        assert flash.wear().total_erases == 1

    def test_alternating_blocks_cost_per_switch(self):
        flash = FlashArray(bytes(16), block_size=8)
        flash[0] = 1   # block 0
        flash[8] = 2   # flush 0, buffer 1
        flash[1] = 3   # flush 1, buffer 0
        flash[9] = 4   # flush 0, buffer 1
        assert flash.wear().total_erases == 4

    def test_identical_write_is_free(self):
        flash = FlashArray(b"same data bytes!", block_size=8)
        flash[0:16] = b"same data bytes!"
        assert flash.wear().total_erases == 0

    def test_endurance_enforced(self):
        flash = FlashArray(bytes(8), block_size=8, endurance=2)
        for value in (1, 2):
            flash[0] = value
            flash.flush()
        flash[0] = 3
        with pytest.raises(WearLimitExceeded):
            flash.flush()

    def test_growth_and_truncation(self):
        flash = FlashArray(b"abcd", block_size=4)
        flash.extend(b"\x00" * 4)
        flash[4:8] = b"efgh"
        assert flash.image() == b"abcdefgh"
        del flash[6:]
        assert flash.image() == b"abcdef"

    def test_strided_writes_rejected(self):
        flash = FlashArray(bytes(8), block_size=4)
        with pytest.raises(ValueError):
            flash[0:8:2] = b"abcd"

    def test_bad_block_size(self):
        with pytest.raises(ValueError):
            FlashArray(b"", block_size=0)


class TestFullReprogram:
    def test_rewrites_changed_blocks_only(self):
        old = bytes(64)
        new = bytearray(old)
        new[5] = 0xFF  # one byte in block 0
        flash = FlashArray(old, block_size=16)
        full_reprogram(flash, bytes(new))
        wear = flash.wear()
        assert flash.image() == bytes(new)
        assert wear.total_erases == 1  # identical blocks skipped

    def test_grows_and_shrinks(self):
        flash = FlashArray(b"abcd", block_size=4)
        full_reprogram(flash, b"abcdefgh")
        assert flash.image() == b"abcdefgh"
        full_reprogram(flash, b"ab")
        assert flash.image() == b"ab"


class TestMeasureUpdateWear:
    def test_localized_edit_touches_few_blocks(self, rng):
        ref = rng.randbytes(64 * 1024)
        ver = ref[:30_000] + b"PATCHED-REGION!!" + ref[30_016:]
        result = repro.diff_in_place(ref, ver)
        delta_wear, full_wear = measure_update_wear(
            ref, ver, result.script, block_size=4096
        )
        assert sum(1 for e in delta_wear.erases_per_block if e) <= 2
        assert delta_wear.total_erases <= full_wear.total_erases + 1

    def test_verifies_output(self, rng):
        ref = rng.randbytes(8_192)
        ver = mutate(ref, rng)
        result = repro.diff_in_place(ref, ver)
        delta_wear, full_wear = measure_update_wear(
            ref, ver, result.script, block_size=1024
        )
        assert delta_wear.block_size == 1024
        assert full_wear.total_erases >= 1

    def test_wear_stats_fields(self):
        from repro.device.flash import WearStats

        stats = WearStats(4096, [0, 3, 1, 0])
        assert stats.total_erases == 4
        assert sum(1 for e in stats.erases_per_block if e) == 2
        assert stats.max_erases == 3
        assert WearStats(4096, []).max_erases == 0
