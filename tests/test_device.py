"""Unit tests for the constrained-device substrate (repro.device.memory)."""

import pytest

from repro.core.convert import make_in_place
from repro.delta import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    correcting_delta,
    encode_delta,
    version_checksum,
)
from repro.device.memory import ConstrainedDevice, RamAccount
from repro.exceptions import (
    OutOfMemoryError,
    StorageBoundsError,
    VerificationError,
    WriteBeforeReadError,
)


class TestRamAccount:
    def test_allocate_and_free(self):
        ram = RamAccount(budget=100)
        ram.allocate("a", 60)
        ram.allocate("b", 40)
        assert ram.in_use == 100
        assert ram.peak == 100
        ram.free("a")
        assert ram.in_use == 40

    def test_over_budget(self):
        ram = RamAccount(budget=100)
        ram.allocate("a", 80)
        with pytest.raises(OutOfMemoryError):
            ram.allocate("b", 21)

    def test_free_unknown(self):
        with pytest.raises(KeyError):
            RamAccount(budget=10).free("ghost")

    def test_negative_size(self):
        with pytest.raises(ValueError):
            RamAccount(budget=10).allocate("a", -1)

    def test_peak_tracks_high_water(self):
        ram = RamAccount(budget=100)
        ram.allocate("a", 70)
        ram.free("a")
        ram.allocate("b", 30)
        assert ram.peak == 70


def build_payloads(old: bytes, new: bytes):
    script = correcting_delta(old, new)
    crc = version_checksum(new)
    sequential = encode_delta(script, FORMAT_SEQUENTIAL, version_crc32=crc)
    converted = make_in_place(script, old)
    in_place = encode_delta(converted.script, FORMAT_INPLACE, version_crc32=crc)
    return sequential, in_place


class TestConstrainedDevice:
    def setup_method(self):
        import random

        from repro.workloads import mutate

        rng = random.Random(77)
        self.old = rng.randbytes(20_000)
        self.new = mutate(self.old, rng)
        self.sequential, self.in_place = build_payloads(self.old, self.new)

    def test_two_space_needs_version_scratch(self):
        # RAM smaller than payload + version: conventional apply fails...
        small = ConstrainedDevice(self.old, ram=len(self.sequential) + 1024)
        with pytest.raises(OutOfMemoryError):
            small.apply_delta_two_space(self.sequential)
        assert small.image == self.old  # untouched
        # ...while a roomy host succeeds.
        roomy = ConstrainedDevice(self.old, ram=len(self.new) + len(self.sequential) + 4096)
        roomy.apply_delta_two_space(self.sequential)
        assert roomy.image == self.new

    def test_in_place_succeeds_in_small_ram(self):
        device = ConstrainedDevice(self.old, ram=len(self.in_place) + 8192)
        device.apply_delta_in_place(self.in_place)
        assert device.image == self.new
        assert device.updates_applied == 1

    def test_in_place_peak_ram_below_version_size(self):
        device = ConstrainedDevice(self.old, ram=len(self.in_place) + 8192)
        device.apply_delta_in_place(self.in_place)
        assert device.ram.peak < len(self.new)

    def test_unsafe_delta_rejected_by_strict_engine(self):
        # Feed the *sequential* (unconverted) commands through the
        # in-place engine: conflicts must raise, not corrupt silently.
        from repro.delta import decode_delta

        script, _ = decode_delta(self.sequential)
        unsafe = encode_delta(script, FORMAT_INPLACE,
                              version_crc32=version_checksum(self.new))
        device = ConstrainedDevice(self.old, ram=len(unsafe) + 8192)
        try:
            device.apply_delta_in_place(unsafe)
        except WriteBeforeReadError:
            pass  # expected for conflicting scripts
        else:
            # Some deltas happen to be conflict-free in write order; then
            # the apply must have been correct.
            assert device.image == self.new

    def test_checksum_verification(self):
        corrupted = bytearray(self.in_place)
        corrupted[-10] ^= 0xFF  # flip a data byte near the end
        device = ConstrainedDevice(self.old, ram=len(self.in_place) + 8192)
        with pytest.raises((VerificationError, Exception)):
            device.apply_delta_in_place(bytes(corrupted))

    def test_storage_limit_enforced(self):
        with pytest.raises(StorageBoundsError):
            ConstrainedDevice(b"x" * 100, storage_limit=50)

    def test_full_install(self):
        device = ConstrainedDevice(self.old, ram=len(self.new) + 4096)
        device.install_full_image(self.new)
        assert device.image == self.new

    def test_full_install_oom(self):
        device = ConstrainedDevice(self.old, ram=1024)
        with pytest.raises(OutOfMemoryError):
            device.install_full_image(self.new)

    def test_ram_released_after_update(self):
        device = ConstrainedDevice(self.old, ram=len(self.in_place) + 8192)
        device.apply_delta_in_place(self.in_place)
        assert device.ram.in_use == 0

    def test_image_crc(self):
        import zlib

        from repro.core.apply import storage_crc32

        device = ConstrainedDevice(b"hello")
        assert storage_crc32(device.image) == zlib.crc32(b"hello") & 0xFFFFFFFF
