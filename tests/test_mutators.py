"""Unit tests for the version mutators (repro.workloads.mutators)."""

import random

from repro.delta import greedy_delta
from repro.workloads.mutators import (
    CHURN_PROFILE,
    MUTATORS,
    STABLE_PROFILE,
    MutationProfile,
    delete_bytes,
    duplicate_block,
    insert_bytes,
    move_block,
    mutate,
    replace_bytes,
    swap_blocks,
)


class TestIndividualMutators:
    def setup_method(self):
        self.rng = random.Random(11)
        self.data = bytes(range(256)) * 4

    def test_insert_grows(self):
        out = insert_bytes(self.data, self.rng, 32)
        assert len(out) == len(self.data) + 32

    def test_delete_shrinks(self):
        out = delete_bytes(self.data, self.rng, 32)
        assert len(out) == len(self.data) - 32

    def test_delete_never_empties(self):
        out = delete_bytes(b"ab", self.rng, 100)
        assert len(out) >= 1

    def test_replace_preserves_length(self):
        out = replace_bytes(self.data, self.rng, 32)
        assert len(out) == len(self.data)
        assert out != self.data

    def test_move_preserves_multiset(self):
        out = move_block(self.data, self.rng, 64)
        assert len(out) == len(self.data)
        assert sorted(out) == sorted(self.data)

    def test_duplicate_grows(self):
        out = duplicate_block(self.data, self.rng, 48)
        assert len(out) == len(self.data) + 48

    def test_swap_preserves_multiset(self):
        out = swap_blocks(self.data, self.rng, 64)
        assert len(out) == len(self.data)
        assert sorted(out) == sorted(self.data)

    def test_tiny_inputs_survive_everything(self):
        for name, mutator in MUTATORS.items():
            for data in (b"", b"a", b"ab", b"abc"):
                out = mutator(data, self.rng, 10)
                assert isinstance(out, bytes), name


class TestMutate:
    def test_deterministic_given_seed(self):
        data = bytes(range(200)) * 20
        a = mutate(data, random.Random(5))
        b = mutate(data, random.Random(5))
        assert a == b

    def test_changes_bounded(self):
        # Measure preserved content the way the experiments do: most of
        # the new version must still be copyable from the old one.
        data = bytes(random.Random(1).randbytes(20_000))
        out = mutate(data, random.Random(2))
        assert out != data
        script = greedy_delta(data, out)
        assert script.added_bytes < 0.5 * len(out)

    def test_profiles_scale_churn(self):
        data = bytes(random.Random(1).randbytes(20_000))
        rng_a, rng_b = random.Random(3), random.Random(3)
        churned = mutate(data, rng_a, CHURN_PROFILE)
        stable = mutate(data, rng_b, STABLE_PROFILE)
        # Measured as the literal bytes a delta must send.
        assert greedy_delta(data, churned).added_bytes >= \
            greedy_delta(data, stable).added_bytes

    def test_edit_count_scales_with_size(self):
        profile = MutationProfile()
        rng = random.Random(4)
        small = profile.edit_count(1_000, rng)
        large = profile.edit_count(1_000_000, rng)
        assert large > small

    def test_structural_cap(self):
        profile = MutationProfile(min_edit=10, max_edit=1000, structural_max_edit=50)
        rng = random.Random(5)
        for _ in range(50):
            assert profile.edit_size("move", rng) <= 50
            assert profile.edit_size("swap", rng) <= 50
        sizes = [profile.edit_size("insert", rng) for _ in range(200)]
        assert max(sizes) > 50
