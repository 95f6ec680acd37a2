"""Tests for delta composition (repro.core.compose)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.apply import apply_delta, apply_in_place
from repro.core.commands import AddCommand, CopyCommand, DeltaScript
from repro.core.compose import compose_chain, compose_scripts
from repro.core.convert import make_in_place
from repro.core.intervals import IntervalIndex
from repro.exceptions import DeltaRangeError, ReproError
from repro.workloads import mutate


class TestComposeBasics:
    def test_copy_through_copy(self):
        # d1: v1 = ref[10:20]; d2: v2 = v1[2:8].
        d1 = DeltaScript([CopyCommand(10, 0, 10)], version_length=10)
        d2 = DeltaScript([CopyCommand(2, 0, 6)], version_length=6)
        composed = compose_scripts(d1, d2)
        assert composed.commands == [CopyCommand(12, 0, 6)]

    def test_copy_through_add(self):
        d1 = DeltaScript([AddCommand(0, b"HELLOWORLD")], version_length=10)
        d2 = DeltaScript([CopyCommand(5, 0, 5)], version_length=5)
        composed = compose_scripts(d1, d2)
        assert composed.commands == [AddCommand(0, b"WORLD")]

    def test_read_spanning_boundary_splits_then_coalesces(self):
        # d1: two adjacent copies with non-contiguous sources.
        d1 = DeltaScript(
            [CopyCommand(50, 0, 5), CopyCommand(90, 5, 5)], version_length=10
        )
        d2 = DeltaScript([CopyCommand(3, 0, 4)], version_length=4)
        composed = compose_scripts(d1, d2)
        assert composed.commands == [CopyCommand(53, 0, 2), CopyCommand(90, 2, 2)]

    def test_adjacent_fragments_coalesce(self):
        # d1 splits contiguous source into two adjacent copies; a read
        # across them should merge back into one command.
        d1 = DeltaScript(
            [CopyCommand(20, 0, 5), CopyCommand(25, 5, 5)], version_length=10
        )
        d2 = DeltaScript([CopyCommand(0, 0, 10)], version_length=10)
        composed = compose_scripts(d1, d2)
        assert composed.commands == [CopyCommand(20, 0, 10)]

    def test_second_adds_pass_through(self):
        d1 = DeltaScript([CopyCommand(0, 0, 4)], version_length=4)
        d2 = DeltaScript(
            [CopyCommand(0, 0, 4), AddCommand(4, b"new")], version_length=7
        )
        composed = compose_scripts(d1, d2)
        assert AddCommand(4, b"new") in composed.commands

    def test_hole_in_first_delta_raises(self):
        gappy = DeltaScript([CopyCommand(0, 5, 5)], version_length=10)
        d2 = DeltaScript([CopyCommand(2, 0, 6)], version_length=6)
        with pytest.raises(DeltaRangeError):
            compose_scripts(gappy, d2)

    def test_read_past_first_version_raises(self):
        d1 = DeltaScript([CopyCommand(0, 0, 4)], version_length=4)
        d2 = DeltaScript([CopyCommand(2, 0, 6)], version_length=6)
        with pytest.raises(DeltaRangeError):
            compose_scripts(d1, d2)

    def test_scratch_scripts_rejected(self):
        from repro.core.commands import FillCommand, SpillCommand

        scratchy = DeltaScript(
            [SpillCommand(0, 0, 4), CopyCommand(4, 0, 4), FillCommand(0, 4, 4)],
            version_length=8,
        )
        plain = DeltaScript([CopyCommand(0, 0, 8)], version_length=8)
        with pytest.raises(ReproError):
            compose_scripts(scratchy, plain)
        with pytest.raises(ReproError):
            compose_scripts(plain, scratchy)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            compose_chain([])


class TestComposeEquivalence:
    def chain(self, rng, releases=4, size=4_000):
        versions = [rng.randbytes(size)]
        for _ in range(releases - 1):
            versions.append(mutate(versions[-1], rng))
        deltas = [
            repro.diff(a, b) for a, b in zip(versions, versions[1:])
        ]
        return versions, deltas

    def test_two_step(self, rng):
        versions, deltas = self.chain(rng, releases=3)
        composed = compose_scripts(deltas[0], deltas[1])
        composed.validate(reference_length=len(versions[0]))
        assert apply_delta(composed, versions[0]) == versions[2]

    def test_long_chain(self, rng):
        versions, deltas = self.chain(rng, releases=6, size=2_500)
        composed = compose_chain(deltas)
        assert apply_delta(composed, versions[0]) == versions[-1]

    def test_composed_delta_converts_in_place(self, rng):
        versions, deltas = self.chain(rng, releases=3)
        composed = compose_chain(deltas)
        result = make_in_place(composed, versions[0])
        buf = bytearray(versions[0])
        apply_in_place(result.script, buf, strict=True)
        assert bytes(buf) == versions[-1]

    def test_associativity(self, rng):
        versions, deltas = self.chain(rng, releases=4, size=2_000)
        left = compose_scripts(compose_scripts(deltas[0], deltas[1]), deltas[2])
        right = compose_scripts(deltas[0], compose_scripts(deltas[1], deltas[2]))
        v0 = versions[0]
        assert apply_delta(left, v0) == apply_delta(right, v0) == versions[3]

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=25, deadline=None)
    def test_property_compose_equals_sequential(self, seed):
        rng = random.Random(seed)
        v0 = rng.randbytes(rng.randint(32, 1_200))
        v1 = mutate(v0, rng)
        v2 = mutate(v1, rng)
        d1 = repro.diff(v0, v1)
        d2 = repro.diff(v1, v2)
        composed = compose_scripts(d1, d2)
        assert apply_delta(composed, v0) == v2

    def test_composed_no_larger_than_naive_concatenation(self, rng):
        """Composed payload must beat shipping both deltas."""
        from repro.delta import FORMAT_SEQUENTIAL, encoded_size

        versions, deltas = self.chain(rng, releases=3)
        composed = compose_chain(deltas)
        assert encoded_size(composed, FORMAT_SEQUENTIAL) <= \
            sum(encoded_size(d, FORMAT_SEQUENTIAL) for d in deltas) * 1.05


class TestComposeWithPipeline:
    def test_composed_then_scratch_converted(self, rng):
        """Compose plain deltas, then convert with scratch: full pipeline."""
        from repro.delta import FORMAT_INPLACE, encode_delta

        v0 = rng.randbytes(3_000)
        v1 = v0[1500:] + v0[:1500]      # swap: cycles in each step
        v2 = v1[700:] + v1[:700]
        d1 = repro.diff(v0, v1)
        d2 = repro.diff(v1, v2)
        composed = compose_scripts(d1, d2)
        result = make_in_place(composed, v0, scratch_budget=1 << 14)
        payload = encode_delta(result.script, FORMAT_INPLACE)
        from repro.delta.stream import apply_delta_stream

        buf = bytearray(v0)
        apply_delta_stream(payload, buf, strict=True)
        assert bytes(buf) == v2

    def test_compose_via_bundle_chain(self, rng):
        """Composition is what lets a bundle server skip intermediates."""
        from repro.delta import FORMAT_SEQUENTIAL, encoded_size

        v0 = rng.randbytes(4_000)
        versions = [v0]
        for _ in range(3):
            versions.append(mutate(versions[-1], rng))
        deltas = [repro.diff(a, b) for a, b in zip(versions, versions[1:])]
        folded = compose_chain(deltas)
        direct = repro.diff(versions[0], versions[-1])
        # Composition should land within 2x of a direct recompute.
        assert encoded_size(folded, FORMAT_SEQUENTIAL) <= \
            2 * encoded_size(direct, FORMAT_SEQUENTIAL) + 64


class _ReferenceMapper:
    """Composition over interval objects: one
    :class:`~repro.core.intervals.IntervalIndex` over ``first``'s writes
    and one ``Interval`` per fragment.  Slow and obviously right; the
    oracle the lean ``compose_scripts`` is held to."""

    def __init__(self, first):
        self._commands = first.commands
        for cmd in self._commands:
            if not isinstance(cmd, (CopyCommand, AddCommand)):
                raise ReproError("cannot compose through %r" % (cmd,))
        self._index = IntervalIndex(
            [c.write_interval for c in self._commands])

    def map_read(self, read, dst):
        out = []
        cursor = read.start
        for j in self._index.overlapping(read):
            cmd = self._commands[j]
            part = cmd.write_interval.intersection(read)
            if part.start != cursor:
                raise DeltaRangeError("hole at %d" % cursor)
            offset_in_cmd = part.start - cmd.write_interval.start
            out_dst = dst + (part.start - read.start)
            if isinstance(cmd, CopyCommand):
                out.append(
                    CopyCommand(cmd.src + offset_in_cmd, out_dst, part.length))
            else:
                out.append(AddCommand(
                    out_dst,
                    cmd.data[offset_in_cmd:offset_in_cmd + part.length]))
            cursor = part.stop + 1
        if cursor != read.stop + 1:
            raise DeltaRangeError("read past the first version")
        return out


def _reference_compose(first, second):
    mapper = _ReferenceMapper(first)
    commands = []
    for cmd in second.commands:
        if isinstance(cmd, CopyCommand):
            commands.extend(mapper.map_read(cmd.read_interval, cmd.dst))
        elif isinstance(cmd, AddCommand):
            commands.append(cmd)
        else:
            raise ReproError("cannot compose %r" % (cmd,))
    return DeltaScript(commands, second.version_length).coalesced()


def _random_plain(rng, length, ref_length, hole_rate):
    """A random plain script writing ``length`` bytes from a reference of
    ``ref_length``: adds, copies continuing the previous copy (so
    coalescing has work), self-overlapping copies (read interval meets
    write interval), far copies, and — at ``hole_rate`` — unwritten
    holes.  Commands come back shuffled, as a converted delta's would."""
    commands = []
    pos = 0
    prev = None
    while pos < length:
        n = min(length - pos, rng.choice(
            (1, 2, 3, rng.randint(1, 24), rng.randint(1, 200))))
        roll = rng.random()
        if roll < hole_rate:
            prev = None
        elif roll < 0.35 or n > ref_length:
            prev = AddCommand(pos, rng.randbytes(n))
        elif (roll < 0.5 and isinstance(prev, CopyCommand)
                and prev.src + prev.length + n <= ref_length):
            prev = CopyCommand(prev.src + prev.length, pos, n)
        elif roll < 0.7:
            near = pos + rng.randint(-n + 1, n - 1)
            prev = CopyCommand(max(0, min(ref_length - n, near)), pos, n)
        else:
            prev = CopyCommand(rng.randint(0, ref_length - n), pos, n)
        if prev is not None:
            commands.append(prev)
        pos += n
    rng.shuffle(commands)
    return DeltaScript(commands, length)


def _outcome(compose, first, second):
    try:
        result = compose(first, second)
    except Exception as exc:
        return type(exc), None, None
    return None, result.commands, result.version_length


class TestComposeOracle:
    """The lean ``compose_scripts`` against the interval-object oracle:
    identical commands and version length, or the same exception type."""

    @pytest.mark.parametrize("block", range(8))
    def test_seeded_fuzz_matches_reference(self, block):
        from repro.core.commands import FillCommand, SpillCommand

        outcomes = {"ok": 0, "error": 0}
        for case in range(60):
            rng = random.Random(block * 1000 + case)
            ref_length = rng.randint(1, 600)
            mid_length = rng.randint(1, 900)
            hole_rate = rng.choice((0.0, 0.0, 0.03, 0.1))
            first = _random_plain(rng, mid_length, ref_length, hole_rate)
            # Reads may run up to 16 bytes past the first's version.
            second = _random_plain(
                rng, rng.randint(1, 900),
                mid_length + rng.choice((0, 0, 0, 16)), 0.0)
            if rng.random() < 0.05:
                first.commands.insert(rng.randint(0, len(first)),
                                      SpillCommand(0, 0, 1))
            if rng.random() < 0.05:
                second.commands.insert(rng.randint(0, len(second)),
                                       FillCommand(0, 0, 1))
            expected = _outcome(_reference_compose, first, second)
            assert _outcome(compose_scripts, first, second) == expected, (
                block, case)
            outcomes["error" if expected[0] else "ok"] += 1
        # The fuzz exercises both the mapping and the error paths.
        assert outcomes["ok"] >= 10 and outcomes["error"] >= 5, outcomes

    @pytest.mark.parametrize("seed", range(4))
    def test_chains_of_real_deltas_match_reference(self, seed):
        rng = random.Random(seed)
        versions = [rng.randbytes(rng.randint(500, 3_000))]
        for _ in range(5):
            versions.append(mutate(versions[-1], rng))
        deltas = [repro.diff(a, b) for a, b in zip(versions, versions[1:])]
        lean, slow = deltas[0], deltas[0]
        for nxt in deltas[1:]:
            lean = compose_scripts(lean, nxt)
            slow = _reference_compose(slow, nxt)
            assert lean == slow
        assert compose_chain(deltas) == slow
        assert apply_delta(slow, versions[0]) == versions[-1]
