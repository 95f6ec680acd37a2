"""Fast paths vs scalar oracles: bit-identity, property-style.

The vectorized differencing core (``repro.delta._kernels`` plus the
block-compare match extension in ``repro.delta.rolling``) promises
*bit-identical* results to the retained scalar reference
implementations.  This suite holds it to that on random, adversarial
(long zero runs, periodic buffers, near-duplicate pairs), and
corpus-style inputs:

* ``seed_fingerprints`` vs ``seed_fingerprints_reference``, also on
  constant buffers in tiny blocks, at the longest fast seed and past it,
  on buffer views (read in place), and from threads that grow the power
  tables; ``_mulmod`` vs Python's integers at its operand bounds;
* ``match_length`` / ``match_length_backward`` vs their ``_reference``
  twins, across planted prefix/suffix lengths and limits;
* ``SeedTable.from_fingerprints`` (vectorized FCFS reduction) vs the
  scalar insertion loop, slot for slot, and ``probe_table`` (which reads
  a slot's fingerprint from the reference's shared array) vs the scalar
  probe;
* ``FullSeedIndex`` / ``FingerprintGroups`` vs ``full_index_reference``,
  bucket for bucket in content and order, plus the one-sided
  ``membership`` prefilter and its bitmap slots;
* ``_slot_index`` (a mask at power-of-two sizes) vs ``%`` at every kind
  of table size;
* whole differs (greedy, onepass, correcting): encoded deltas with the
  fast paths on must equal the encoded deltas with them pinned off,
  onepass and correcting at table sizes that are not powers of two too.

The convert plane (``repro.core``) makes the same promise for its array
kernels and this suite holds it to that too:

* ``build_crwi_digraph`` fast vs scalar: vertices, adjacency (both
  orientations), ``edges()``, ``edge_count``, and batch-priced
  ``costs()`` under fixed and varint pricing;
* ``varint_sizes`` vs ``varint_size`` across every codeword boundary;
* the array peel (``toposort_peel``) vs ``_peel_reference``, including
  the narrow-wave scalar handoff forced both ways;
* whole sorts (``cycle_breaking_toposort``, ``plain_toposort``,
  ``locality_toposort``) and whole conversions (``make_in_place``)
  across policies, orderings, and pricings — byte-identical scripts and
  identical reports on random and adversarial (Figure 2, Figure 3,
  rotation) inputs.
"""

from __future__ import annotations

import random
import sys
import threading
import tracemalloc

import pytest

from repro.core.apply import apply_delta
from repro.delta import _kernels
from repro.delta import (
    correcting_delta,
    encode_delta,
    greedy_delta,
    onepass_delta,
)
from repro.delta.rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    SeedTable,
    SparseSeedIndex,
    full_index_reference,
    fast_paths_enabled,
    match_length,
    match_length_backward,
    match_length_backward_reference,
    match_length_reference,
    seed_fingerprints,
    seed_fingerprints_reference,
    sparse_index_reference,
    use_fast_paths,
)

needs_numpy = pytest.mark.skipif(not _kernels.HAVE_NUMPY,
                                 reason="numpy unavailable")


@pytest.fixture
def fast_on():
    """Run the test with the fast paths pinned on, restoring after."""
    previous = use_fast_paths(True)
    yield
    use_fast_paths(previous)


def _inputs():
    """(label, data) corpus: random, adversarial, and corpus-style."""
    rng = random.Random(0x1998)
    text = (b"int reconstruct(struct delta *d, char *buf, size_t len);\n"
            b"/* in-place: copies before adds, cycles broken */\n")
    return [
        ("empty", b""),
        ("short", b"delta"),
        ("exact_seed", bytes(range(DEFAULT_SEED_LENGTH))),
        ("random", rng.randbytes(5000)),
        ("zero_run", b"\x00" * 4096 + rng.randbytes(128)),
        ("periodic", (b"abcdefgh" * 700)[:5000]),
        ("low_entropy", bytes(rng.choice(b"ab") for _ in range(3000))),
        ("corpus_style", text * 60),
    ]


INPUTS = _inputs()
SEED_LENGTHS = [4, DEFAULT_SEED_LENGTH, 32]


# ---------------------------------------------------------------------------
# seed_fingerprints
# ---------------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("seed_length", SEED_LENGTHS)
def test_kernel_fingerprints_match_reference(label, data, seed_length):
    expected = seed_fingerprints_reference(data, seed_length)
    got = _kernels.seed_fingerprints(data, seed_length).tolist()
    assert got == expected


@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
def test_dispatching_fingerprints_match_reference(label, data, fast_on):
    assert seed_fingerprints(data) == seed_fingerprints_reference(
        data, DEFAULT_SEED_LENGTH)


@needs_numpy
def test_kernel_fingerprints_accept_buffer_views(monkeypatch):
    """bytes, bytearray and memoryview inputs are read in place.  With
    tiny blocks the kernel's own buffers are a few KiB, so a copy of the
    64 KiB input would dominate what a call allocates besides its
    result."""
    monkeypatch.setattr(_kernels, "_CUMSUM_BLOCK", 64)
    data = random.Random(7).randbytes(1 << 16)
    expected = seed_fingerprints_reference(data, 16)
    _kernels.seed_fingerprints(data, 16)  # grow the power tables first
    for view in (data, bytearray(data), memoryview(data)):
        tracemalloc.start()
        try:
            got = _kernels.seed_fingerprints(view, 16)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < len(data) // 2, type(view)
        assert got.tolist() == expected


def _constant_fingerprint(byte, seed_length):
    """The fingerprint of ``seed_length`` copies of ``byte``, in closed
    form: ``byte * (B^L - 1) / (B - 1) (mod M)``."""
    modulus, base = (1 << 61) - 1, 257
    geometric = (pow(base, seed_length, modulus) - 1) * pow(
        base - 1, modulus - 2, modulus)
    return byte * geometric % modulus


@pytest.mark.parametrize("seed_length", [1, 16, 1000])
def test_constant_fingerprint_is_the_reference(seed_length):
    data = b"\xff" * (seed_length + 2)
    assert seed_fingerprints_reference(data, seed_length) == \
        [_constant_fingerprint(0xFF, seed_length)] * 3


@needs_numpy
@pytest.mark.parametrize("past", [0, 1], ids=["at_bound", "past_bound"])
def test_kernel_fingerprints_at_the_seed_length_bound(past, monkeypatch):
    """All-0xff windows of the longest seed whose limb sums still fold
    below 2^62, and of one byte more, which takes the scalar path.  The
    closed form stands in for the reference, whose rolling loop takes
    seconds over a 4 MiB seed."""
    monkeypatch.setattr(_kernels, "_power_limbs", ())  # dropped after
    seed_length = _kernels.MAX_FAST_SEED_LENGTH + past
    got = _kernels.seed_fingerprints(b"\xff" * (seed_length + 3),
                                     seed_length)
    assert got.dtype == _kernels._np.uint64
    assert got.tolist() == [_constant_fingerprint(0xFF, seed_length)] * 4


@needs_numpy
@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("seed_length", [1, 2, 16, 31, 64, 255])
@pytest.mark.parametrize("fill", [0x00, 0xFF], ids=["x00", "xff"])
def test_kernel_fingerprints_of_constant_buffers(fill, seed_length, block,
                                                 monkeypatch):
    """All-0x00 and all-0xff buffers (every limb sum at its smallest
    and largest) in blocks that do not divide the output count."""
    monkeypatch.setattr(_kernels, "_CUMSUM_BLOCK", block)
    data = bytes([fill]) * (2 * seed_length + 40)
    got = _kernels.seed_fingerprints(data, seed_length).tolist()
    assert got == seed_fingerprints_reference(data, seed_length)


@needs_numpy
def test_mulmod_at_its_operand_bounds():
    """The limb-wise product for every folded value below 2^62 and every
    residue, extremes included, against Python's integers; ``out`` may
    alias ``v``."""
    np = _kernels._np
    modulus = (1 << 61) - 1
    rng = random.Random(61)
    values = [0, 1, (1 << 31) - 1, 1 << 31, modulus - 1, modulus,
              1 << 61, (1 << 62) - 1] + [rng.randrange(1 << 62)
                                         for _ in range(40)]
    residues = [0, 1, 2, (1 << 31) - 1, 1 << 31, modulus - 1] + [
        rng.randrange(modulus) for _ in range(40)]
    pairs = [(v, p) for v in values for p in residues]
    v = np.array([a for a, _ in pairs], dtype=np.uint64)
    p_hi = np.array([b >> 31 for _, b in pairs], dtype=np.uint32)
    p_lo = np.array([b & ((1 << 31) - 1) for _, b in pairs], dtype=np.uint32)
    expected = [a * b % modulus for a, b in pairs]
    work = [np.empty_like(v) for _ in range(3)]
    out = _kernels._mulmod(v, p_hi, p_lo, np.empty_like(v), work)
    assert out.tolist() == expected
    assert _kernels._mulmod(v, p_hi, p_lo, v, work).tolist() == expected


@needs_numpy
def test_power_tables_grow_to_a_power_of_two(monkeypatch):
    """Small, large, small: the cached tables grow once, to the power of
    two covering the largest request, and a slightly larger request
    than the last one reuses them instead of rebuilding."""
    monkeypatch.setattr(_kernels, "_power_limbs", ())
    rng = random.Random(31)
    for size in (100, 5000, 100):
        data = rng.randbytes(size)
        assert _kernels.seed_fingerprints(data, 16).tolist() == \
            seed_fingerprints_reference(data, 16)
    tables = _kernels._power_limbs
    assert [(len(t), t.dtype.itemsize) for t in tables] == [(8192, 4)] * 4
    _kernels.seed_fingerprints(rng.randbytes(5100), 16)
    assert _kernels._power_limbs is tables
    modulus = (1 << 61) - 1
    inverse = pow(257, modulus - 2, modulus)
    pow_hi, pow_lo, inv_hi, inv_lo = (t.tolist() for t in tables)
    for i in range(len(pow_hi)):
        assert (pow_hi[i] << 31) + pow_lo[i] == pow(257, i, modulus)
        assert (inv_hi[i] << 31) + inv_lo[i] == pow(inverse, i, modulus)


@needs_numpy
def test_kernel_fingerprints_from_threads_while_tables_grow(monkeypatch):
    """More threads than cores fingerprint buffers of interleaved sizes
    from empty tables, switching often, so some calls grow the tables
    while others read them."""
    monkeypatch.setattr(_kernels, "_power_limbs", ())
    rng = random.Random(43)
    buffers = [rng.randbytes(size)
               for size in (300, 5000, 1100, 40000, 9000, 70000)]
    expected = [seed_fingerprints_reference(b, DEFAULT_SEED_LENGTH)
                for b in buffers]
    threads, rounds = 4, 3
    start = threading.Barrier(threads, timeout=60)
    results = []

    def fingerprint_all(shift):
        start.wait()
        for _ in range(rounds):
            for i in range(len(buffers)):
                j = (i + shift) % len(buffers)
                got = _kernels.seed_fingerprints(buffers[j],
                                                 DEFAULT_SEED_LENGTH)
                results.append(got.tolist() == expected[j])

    workers = [threading.Thread(target=fingerprint_all, args=(shift,))
               for shift in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert results == [True] * (threads * rounds * len(buffers))
    assert len(_kernels._power_limbs[0]) == 1 << 17


# ---------------------------------------------------------------------------
# match_length / match_length_backward
# ---------------------------------------------------------------------------

def _planted_pairs():
    """Buffer pairs with known common prefix lengths at chosen offsets."""
    rng = random.Random(0xC0FFEE)
    cases = []
    for common in [0, 1, 15, 16, 17, 255, 512, 513, 4096, 10000]:
        a_pre = rng.randbytes(rng.randrange(64))
        b_pre = rng.randbytes(rng.randrange(64))
        shared = rng.randbytes(common)
        # Distinct trailing bytes guarantee the match stops at `common`
        # (when neither side runs out first).
        a = a_pre + shared + b"\x01" + rng.randbytes(8)
        b = b_pre + shared + b"\x02" + rng.randbytes(8)
        cases.append((a, len(a_pre), b, len(b_pre)))
    # Boundary shapes: match running to the very end of either buffer.
    tail = rng.randbytes(300)
    cases.append((tail, 0, tail, 0))
    cases.append((b"xy" + tail, 2, tail, 0))
    cases.append((b"", 0, b"abc", 0))
    return cases


@pytest.mark.parametrize("limit", [None, 0, 1, 7, 16, 100, 1 << 20])
def test_match_length_matches_reference(limit, fast_on):
    for a, a_start, b, b_start in _planted_pairs():
        expected = match_length_reference(a, a_start, b, b_start, limit)
        assert match_length(a, a_start, b, b_start, limit) == expected


@pytest.mark.parametrize("limit", [None, 0, 1, 7, 16, 100, 1 << 20])
def test_match_length_backward_matches_reference(limit, fast_on):
    for a, a_start, b, b_start in _planted_pairs():
        # Mirror the planted-prefix cases into suffix cases by aligning
        # the ends just past the shared region.
        a_end, b_end = len(a), len(b)
        expected = match_length_backward_reference(a, a_end, b, b_end, limit)
        assert match_length_backward(a, a_end, b, b_end, limit) == expected
        shared = match_length_reference(a, a_start, b, b_start)
        a_end = a_start + shared
        b_end = b_start + shared
        expected = match_length_backward_reference(a, a_end, b, b_end, limit)
        assert match_length_backward(a, a_end, b, b_end, limit) == expected


def test_match_length_fuzz(fast_on):
    rng = random.Random(31337)
    for _ in range(300):
        n = rng.randrange(1, 400)
        a = bytes(rng.choice(b"\x00\x01") for _ in range(n))
        b = bytes(rng.choice(b"\x00\x01") for _ in range(rng.randrange(1, 400)))
        a_start = rng.randrange(len(a) + 1)
        b_start = rng.randrange(len(b) + 1)
        limit = rng.choice([None, rng.randrange(0, 64)])
        assert match_length(a, a_start, b, b_start, limit) == \
            match_length_reference(a, a_start, b, b_start, limit)
        a_end = rng.randrange(len(a) + 1)
        b_end = rng.randrange(len(b) + 1)
        assert match_length_backward(a, a_end, b, b_end, limit) == \
            match_length_backward_reference(a, a_end, b, b_end, limit)


# ---------------------------------------------------------------------------
# SeedTable FCFS construction
# ---------------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("size", [64, 1 << 10, 1 << 16])
def test_fcfs_table_matches_insert_loop(label, data, size, fast_on):
    fingerprints = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    fast = SeedTable.from_fingerprints(fingerprints, size)
    oracle = SeedTable(size)
    for offset, fingerprint in enumerate(fingerprints):
        oracle.insert(fingerprint, offset)
    assert fast._slots == oracle._slots
    assert fast.occupied == oracle.occupied
    for fingerprint in fingerprints:
        assert fast.lookup(fingerprint) == oracle.lookup(fingerprint)


def _insert_loop_table(fingerprints, size):
    oracle = SeedTable(size)
    for offset, fingerprint in enumerate(fingerprints):
        oracle.insert(fingerprint, offset)
    return oracle


def _fcfs_fingerprints(case, size):
    rng = random.Random(size)
    if case == "empty":
        return []
    if case == "one_slot":
        # Every fingerprint lands in slot 3 % size: one winner, offset 0.
        return [rng.randrange(1 << 40) * size + 3 % size
                for _ in range(500)]
    return [rng.randrange((1 << 61) - 1) for _ in range(3000)]


@needs_numpy
@pytest.mark.parametrize("case", ["empty", "one_slot", "random"])
@pytest.mark.parametrize("size", [1, 7, 1 << 16, 6007],
                         ids=["1", "7", "2^16", "larger_than_input"])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
def test_fcfs_slots_kernel_matches_insert_loop(case, size, as_array):
    """The O(n) scatter-min equals the FCFS insertion loop slot for slot,
    from list or array input, for power-of-two and other table sizes,
    and hands back the input's uint64 array instead of a per-slot copy
    of the fingerprints."""
    import numpy as np

    fingerprints = _fcfs_fingerprints(case, size)
    source = np.array(fingerprints, dtype=np.uint64) if as_array \
        else fingerprints
    slots, fps, occupied = _kernels.fcfs_slots(source, size)
    oracle = _insert_loop_table(fingerprints, size)
    assert slots.dtype == np.int64 and fps.dtype == np.uint64
    assert slots.tolist() == oracle._slots
    assert occupied == oracle.occupied
    assert fps.tolist() == fingerprints
    assert (fps is source) == as_array


@needs_numpy
@pytest.mark.parametrize("seed_length", SEED_LENGTHS)
@pytest.mark.parametrize("extra", range(-1, 4))
@pytest.mark.parametrize("block", [None, 1, 3], ids=["default", "b1", "b3"])
def test_kernel_fingerprints_at_length_boundaries(seed_length, extra, block,
                                                  monkeypatch):
    """Lengths seed_length-1 .. seed_length+3, whole and in tiny blocks."""
    if block is not None:
        monkeypatch.setattr(_kernels, "_CUMSUM_BLOCK", block)
    data = random.Random(seed_length * 10 + extra).randbytes(
        seed_length + extra)
    got = _kernels.seed_fingerprints(data, seed_length).tolist()
    assert got == seed_fingerprints_reference(data, seed_length)


@needs_numpy
@pytest.mark.parametrize("block", [2, 7, 64, 1000])
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
def test_kernel_fingerprints_blocked_branch(label, data, block, monkeypatch):
    """A small block forces many blocks, each with its own prefix sums;
    all-0xff bytes push every term to its maximum."""
    monkeypatch.setattr(_kernels, "_CUMSUM_BLOCK", block)
    for buf in (data, b"\xff" * (len(data) + 40)):
        got = _kernels.seed_fingerprints(buf, DEFAULT_SEED_LENGTH).tolist()
        assert got == seed_fingerprints_reference(buf, DEFAULT_SEED_LENGTH)


@needs_numpy
def test_fast_built_table_matches_scalar_after_mutation():
    """A fast-built table builds its slot list on first scalar access and
    then behaves exactly like one built by the insertion loop."""
    data = random.Random(23).randbytes(6000)
    fingerprints = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    size = 1 << 10
    previous = use_fast_paths(True)
    try:
        fps = _kernels.seed_fingerprints(data, DEFAULT_SEED_LENGTH)
        fast = SeedTable.from_fingerprints(fps, size)
        use_fast_paths(False)
        scalar = SeedTable.from_fingerprints(fingerprints, size)
    finally:
        use_fast_paths(previous)
    assert fast._list is None and fast.probe_arrays()[1] is fps
    assert scalar.probe_arrays() is None
    # int64 slot offsets plus the shared 8-byte-per-seed array.
    arrays = 8 * size + 8 * len(fingerprints)
    assert fast.nbytes == arrays == 56_072
    rng = random.Random(5)
    queries = fingerprints[::97] + [rng.randrange(1 << 61) for _ in range(50)]
    for fingerprint in queries:
        assert fast.lookup(fingerprint) == scalar.lookup(fingerprint)
    assert fast._slots == scalar._slots
    assert fast.nbytes == arrays + scalar.nbytes
    for offset in range(400):
        fingerprint = rng.randrange(1 << 61)
        assert fast.insert(fingerprint, offset) == \
            scalar.insert(fingerprint, offset)
    assert fast.probe_arrays() is None
    assert (fast._slots, fast.occupied) == (scalar._slots, scalar.occupied)
    assert fast.nbytes == scalar.nbytes
    fast.clear()
    scalar.clear()
    assert (fast._slots, fast.occupied) == (scalar._slots, scalar.occupied)
    assert fast.occupied == 0 and set(fast._slots) == {-1}


# ---------------------------------------------------------------------------
# FullSeedIndex / FingerprintGroups
# ---------------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("max_positions", [1, 2, 64])
def test_full_index_matches_reference(label, data, max_positions, fast_on):
    index = FullSeedIndex(data, DEFAULT_SEED_LENGTH, max_positions)
    oracle = full_index_reference(data, DEFAULT_SEED_LENGTH, max_positions)
    if len(data) >= DEFAULT_SEED_LENGTH:
        assert index.groups is not None
    assert len(index) == sum(len(v) for v in oracle.values())
    for fingerprint, offsets in oracle.items():
        assert index.candidates(fingerprint) == offsets
    # Absent fingerprints yield empty candidate lists on both paths.
    absent = max(oracle, default=0) + 1
    assert index.candidates(absent) == []
    assert oracle.get(absent, []) == []


@needs_numpy
def test_membership_prefilter_is_one_sided(fast_on):
    rng = random.Random(5150)
    reference = rng.randbytes(4000)
    version = reference[:1500] + rng.randbytes(800) + reference[2000:]
    index = FullSeedIndex(reference, DEFAULT_SEED_LENGTH, 64)
    fps = _kernels.seed_fingerprints(version, DEFAULT_SEED_LENGTH)
    maybe = index.groups.membership(fps)
    assert len(maybe) == len(fps)
    stored = set(full_index_reference(reference, DEFAULT_SEED_LENGTH, 64))
    for flag, fingerprint in zip(maybe, fps.tolist()):
        if fingerprint in stored:
            # No false negatives: every stored fingerprint must pass.
            assert flag
        if not flag:
            # A negative must mean the fingerprint is truly absent.
            assert fingerprint not in stored
            assert index.candidates(fingerprint) == []


@needs_numpy
@pytest.mark.parametrize("stored", [100, 20000],
                         ids=["base_bitmap", "grown_bitmap"])
def test_membership_is_the_bitmap_remainder(stored, fast_on):
    """The greedy prefilter flags a query exactly when some stored
    fingerprint leaves the same remainder modulo the bitmap size."""
    rng = random.Random(stored)
    reference = rng.randbytes(stored + DEFAULT_SEED_LENGTH - 1)
    index = FullSeedIndex(reference, DEFAULT_SEED_LENGTH, 64)
    queries = _kernels.seed_fingerprints(
        reference[:500] + rng.randbytes(3000), DEFAULT_SEED_LENGTH)
    maybe = index.groups.membership(queries)
    size = index.groups._present_size
    slots = {f % size for f in index.groups.unique.tolist()}
    assert maybe == [f % size in slots for f in queries.tolist()]


@needs_numpy
@pytest.mark.parametrize("size", [1, 2, 5, 7, 64, 1000, 12289, 1 << 16,
                                  (1 << 16) + 1, 1 << 24])
def test_slot_index_is_the_remainder(size):
    """A mask for power-of-two sizes and ``%`` for the rest give the
    remainder the scalar scans compute."""
    fps = _kernels.seed_fingerprints(random.Random(size).randbytes(4000),
                                     DEFAULT_SEED_LENGTH)
    assert _kernels._slot_index(fps, size).tolist() == \
        [f % size for f in fps.tolist()]


@needs_numpy
def test_groups_lookup_after_flatten_threshold(fast_on, monkeypatch):
    """The hybrid lookup is identical before and after list flattening."""
    monkeypatch.setattr(_kernels.FingerprintGroups, "_FLATTEN_AFTER", 4)
    data = random.Random(99).randbytes(2000)
    index = FullSeedIndex(data, DEFAULT_SEED_LENGTH, 8)
    oracle = full_index_reference(data, DEFAULT_SEED_LENGTH, 8)
    queries = list(oracle) * 2 + [max(oracle) + 1]
    for fingerprint in queries:  # crosses the flatten threshold mid-loop
        assert index.candidates(fingerprint) == oracle.get(fingerprint, [])


# ---------------------------------------------------------------------------
# SparseSeedIndex vs the dict oracle
# ---------------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("stride", [1, 3, 16, 101])
@pytest.mark.parametrize("max_positions", [1, 64])
def test_sparse_index_matches_reference(label, data, stride, max_positions,
                                        fast_on):
    index = SparseSeedIndex(data, DEFAULT_SEED_LENGTH,
                            max_positions=max_positions, stride=stride)
    oracle = sparse_index_reference(data, DEFAULT_SEED_LENGTH,
                                    stride=stride,
                                    max_positions=max_positions)
    assert len(index) == sum(len(v) for v in oracle.values())
    for fingerprint, offsets in oracle.items():
        assert index.candidates(fingerprint) == offsets
    absent = max(oracle, default=0) + 1
    assert index.candidates(absent) == []


@needs_numpy
@pytest.mark.parametrize("stride", [2, 7, 16])
def test_sparse_index_build_identical_fast_vs_scalar(stride):
    data = random.Random(0x5EED).randbytes(6000)
    previous = use_fast_paths(True)
    try:
        fast = SparseSeedIndex(data, stride=stride)
        use_fast_paths(False)
        slow = SparseSeedIndex(data, stride=stride)
    finally:
        use_fast_paths(previous)
    fps = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    for fingerprint in set(fps[::stride]) | {fps[1] if len(fps) > 1 else 0}:
        assert fast.candidates(fingerprint) == slow.candidates(fingerprint)


def test_sparse_index_rejects_bad_stride():
    with pytest.raises(ValueError):
        SparseSeedIndex(b"x" * 64, stride=0)


@needs_numpy
@pytest.mark.parametrize("stride", [3, 29])
def test_greedy_over_sparse_index_identical_fast_vs_scalar(stride):
    rng = random.Random(0xDE17A)
    reference = rng.randbytes(20000)
    version = bytearray(reference)
    for _ in range(10):
        at = rng.randrange(len(version) - 128)
        version[at:at + rng.randrange(1, 128)] = \
            rng.randbytes(rng.randrange(1, 128))
    version = bytes(version)
    previous = use_fast_paths(True)
    try:
        fast = greedy_delta(
            reference, version,
            index=SparseSeedIndex(reference, stride=stride))
        use_fast_paths(False)
        slow = greedy_delta(
            reference, version,
            index=SparseSeedIndex(reference, stride=stride))
    finally:
        use_fast_paths(previous)
    assert encode_delta(fast) == encode_delta(slow)
    assert apply_delta(fast, reference) == version


# ---------------------------------------------------------------------------
# Seed-table probe kernels (the correcting/onepass scan building blocks)
# ---------------------------------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("size", [7, 64, 1 << 10])
def test_probe_table_matches_scalar_probe(label, data, size, fast_on):
    """probe_table returns exactly the scalar occupied-and-equal hits."""
    fingerprints = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    table = SeedTable.from_fingerprints(fingerprints, size)
    arrays = table.probe_arrays()
    if not fingerprints:
        return
    assert arrays is not None
    slots_array, fps_r = arrays
    queries = fingerprints + [f + 1 for f in fingerprints[:32]]
    hits, cands = _kernels.probe_table(slots_array, fps_r, queries)
    expected = []
    for position, fingerprint in enumerate(queries):
        stored = table._slots[fingerprint % size]
        if stored >= 0 and fingerprints[stored] == fingerprint:
            expected.append((position, stored))
    assert list(zip(hits, cands)) == expected


@needs_numpy
@pytest.mark.parametrize("label,data", INPUTS, ids=[l for l, _ in INPUTS])
@pytest.mark.parametrize("size", [7, 1 << 10, 1 << 16],
                         ids=["7", "2^10", "larger_than_input"])
@pytest.mark.parametrize("as_array", [False, True], ids=["list", "array"])
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
def test_probe_through_shared_fingerprints_matches_scalar_probe(
        label, data, size, as_array, fast):
    """``fcfs_slots`` + ``probe_table`` read a slot's fingerprint from the
    reference's own array, and return exactly the hits the scalar probe
    of a table built by either path finds; an empty reference's table
    (every slot empty) hits nothing."""
    import numpy as np

    fingerprints = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    source = np.array(fingerprints, dtype=np.uint64) if as_array \
        else fingerprints
    slots_array, fps_r, occupied = _kernels.fcfs_slots(source, size)
    previous = use_fast_paths(fast)
    try:
        table = SeedTable.from_fingerprints(source, size)
    finally:
        use_fast_paths(previous)
    assert (table.probe_arrays() is not None) == fast
    assert (slots_array.tolist(), occupied) == (table._slots, table.occupied)
    rng = random.Random(size)
    queries = fingerprints[::-1] + [f + 1 for f in fingerprints[:32]] + \
        [rng.randrange((1 << 61) - 1) for _ in range(16)]
    hits, cands = _kernels.probe_table(slots_array, fps_r, queries)
    expected = []
    for position, fingerprint in enumerate(queries):
        stored = table.lookup(fingerprint)
        if stored is not None and fingerprints[stored] == fingerprint:
            expected.append((position, stored))
    assert list(zip(hits.tolist(), cands.tolist())) == expected


@needs_numpy
def test_scan_arrays_slots_and_fingerprints():
    data = random.Random(17).randbytes(3000)
    fingerprints = seed_fingerprints_reference(data, DEFAULT_SEED_LENGTH)
    for source in (fingerprints,
                   _kernels.seed_fingerprints(data, DEFAULT_SEED_LENGTH)):
        for size in (7, 64, 1 << 16):
            slots, fps = _kernels.scan_arrays(source, size)
            assert fps.tolist() == fingerprints
            assert slots.tolist() == [f % size for f in fingerprints]


# ---------------------------------------------------------------------------
# Whole differs: fast on == fast off, byte for byte
# ---------------------------------------------------------------------------

def _pairs():
    rng = random.Random(0xD1FF)
    pairs = []
    base = rng.randbytes(30000)
    mutated = bytearray(base)
    for _ in range(12):
        at = rng.randrange(len(mutated) - 64)
        mutated[at:at + rng.randrange(1, 64)] = rng.randbytes(rng.randrange(1, 64))
    pairs.append(("random_edits", base, bytes(mutated)))
    pairs.append(("zero_runs", b"\x00" * 9000 + base[:2000],
                  b"\x00" * 8500 + base[:2500]))
    period = (b"0123456789abcdef" * 1200)
    pairs.append(("periodic", period, period[:7000] + b"SPLICE" + period[7000:]))
    pairs.append(("disjoint", rng.randbytes(4000), rng.randbytes(4000)))
    pairs.append(("identical", base[:8000], base[:8000]))
    return pairs


@pytest.mark.parametrize("differ", [greedy_delta, onepass_delta,
                                    correcting_delta],
                         ids=["greedy", "onepass", "correcting"])
@pytest.mark.parametrize("label,reference,version", _pairs(),
                         ids=[p[0] for p in _pairs()])
def test_differ_output_identical_fast_vs_reference(differ, label, reference,
                                                   version):
    previous = use_fast_paths(True)
    try:
        fast = differ(reference, version)
        use_fast_paths(False)
        slow = differ(reference, version)
    finally:
        use_fast_paths(previous)
    assert encode_delta(fast) == encode_delta(slow)


@pytest.mark.parametrize("differ", [onepass_delta, correcting_delta],
                         ids=["onepass", "correcting"])
@pytest.mark.parametrize("table_size", [12289, (1 << 16) + 1],
                         ids=["prime", "pow2_plus_1"])
@pytest.mark.parametrize("label,reference,version", _pairs(),
                         ids=[p[0] for p in _pairs()])
def test_differ_identical_fast_vs_reference_odd_table_size(
        differ, table_size, label, reference, version):
    """Table sizes that are not powers of two take ``%`` instead of the
    mask, with the same slots and so the same script."""
    previous = use_fast_paths(True)
    try:
        fast = differ(reference, version, table_size=table_size)
        use_fast_paths(False)
        slow = differ(reference, version, table_size=table_size)
    finally:
        use_fast_paths(previous)
    assert encode_delta(fast) == encode_delta(slow)
    assert apply_delta(fast, reference) == version


@needs_numpy
@pytest.mark.parametrize("label,reference,version", _pairs(),
                         ids=[p[0] for p in _pairs()])
def test_fast_table_under_scalar_scan_identical(label, reference, version):
    """A fast-built table handed to a scalar-path correcting scan (which
    reads its lazily built slot list) yields the identical script."""
    previous = use_fast_paths(True)
    try:
        expected = correcting_delta(reference, version)
        table = SeedTable.from_fingerprints(
            _kernels.seed_fingerprints(reference, DEFAULT_SEED_LENGTH))
        use_fast_paths(False)
        got = correcting_delta(reference, version, table=table)
    finally:
        use_fast_paths(previous)
    assert encode_delta(got) == encode_delta(expected)


@needs_numpy
@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
@pytest.mark.parametrize("label,reference,version", _pairs(),
                         ids=[p[0] for p in _pairs()])
def test_prebuilt_version_fingerprints_identical(label, reference, version,
                                                 fast):
    """Version fingerprints handed in, as an array or a list, give the
    script of the call that fingerprints the version itself, on the
    vectorized and on the scalar scan."""
    fps = _kernels.seed_fingerprints(version, DEFAULT_SEED_LENGTH)
    previous = use_fast_paths(fast)
    try:
        expected = encode_delta(correcting_delta(reference, version))
        for prebuilt in (fps, fps.tolist()):
            got = correcting_delta(reference, version,
                                   version_fingerprints=prebuilt)
            assert encode_delta(got) == expected
    finally:
        use_fast_paths(previous)


@pytest.mark.parametrize("fast", [True, False], ids=["fast", "scalar"])
@pytest.mark.parametrize("label,reference,version",
                         _pairs() + [("short_reference", b"abc", b"x" * 40),
                                     ("short_version", b"x" * 40, b"abc"),
                                     ("empty_version", b"x" * 40, b"")],
                         ids=[p[0] for p in _pairs()]
                         + ["short_reference", "short_version",
                            "empty_version"])
def test_returned_version_table_is_the_next_reference_table(
        label, reference, version, fast):
    """``return_version_table`` hands back exactly the table a diff with
    ``reference=version`` builds, so a release train can pass it on."""
    previous = use_fast_paths(fast)
    try:
        script, table = correcting_delta(reference, version,
                                         return_version_table=True)
        expected = SeedTable.from_fingerprints(
            seed_fingerprints(version, DEFAULT_SEED_LENGTH))
        follow = reference[::-1] + version[:500]
        chained = correcting_delta(version, follow, table=table)
        cold = correcting_delta(version, follow)
    finally:
        use_fast_paths(previous)
    assert encode_delta(script) == \
        encode_delta(correcting_delta(reference, version))
    assert (table._slots, table.occupied) == \
        (expected._slots, expected.occupied)
    assert encode_delta(chained) == encode_delta(cold)


def _mutated(rng, base, mutator):
    """Apply one named adversarial mutator to ``base``."""
    version = bytearray(base)
    if mutator == "edits":
        for _ in range(8):
            at = rng.randrange(max(1, len(version) - 64))
            version[at:at + rng.randrange(1, 64)] = \
                rng.randbytes(rng.randrange(0, 64))
    elif mutator == "transpose":
        third = len(version) // 3
        version = version[third:2 * third] + version[:third] + \
            version[2 * third:]
    elif mutator == "prepend":
        version = bytearray(rng.randbytes(rng.randrange(1, 500))) + version
    elif mutator == "truncate":
        version = version[:max(1, len(version) // 2)]
    elif mutator == "zero_inject":
        at = rng.randrange(max(1, len(version)))
        version[at:at] = b"\x00" * rng.randrange(64, 512)
    return bytes(version)


MUTATORS = ["edits", "transpose", "prepend", "truncate", "zero_inject"]


@pytest.mark.parametrize("differ", [greedy_delta, onepass_delta,
                                    correcting_delta],
                         ids=["greedy", "onepass", "correcting"])
@pytest.mark.parametrize("mutator", MUTATORS)
def test_differ_fuzz_identical_across_params(differ, mutator):
    """Property fuzz: fast == scalar across seed lengths and table sizes.

    Small tables force dense slot collisions (the onepass/correcting
    fast scans' hardest case: every position probes an occupied slot);
    large tables exercise the sparse-event path.  Every script must
    also reconstruct the version exactly.
    """
    rng = random.Random(0xFA57 + MUTATORS.index(mutator))
    for trial in range(3):
        reference = _mutated(rng, rng.randbytes(rng.randrange(2000, 25000)),
                             "edits")
        version = _mutated(rng, reference, mutator)
        seed_length = rng.choice([4, DEFAULT_SEED_LENGTH, 32])
        kwargs = {"seed_length": seed_length}
        if differ is not greedy_delta:
            kwargs["table_size"] = rng.choice([5, 64, 1 << 10, 1 << 16])
        previous = use_fast_paths(True)
        try:
            fast = differ(reference, version, **kwargs)
            use_fast_paths(False)
            slow = differ(reference, version, **kwargs)
        finally:
            use_fast_paths(previous)
        assert encode_delta(fast) == encode_delta(slow), \
            (mutator, trial, seed_length, kwargs)
        assert apply_delta(fast, reference) == version


def test_use_fast_paths_round_trips():
    original = fast_paths_enabled()
    try:
        assert use_fast_paths(False) == original
        assert fast_paths_enabled() is False
        assert use_fast_paths(True) is False
        assert fast_paths_enabled() is True
    finally:
        use_fast_paths(original)


# ---------------------------------------------------------------------------
# Convert plane: CRWI construction, pricing, peel, sorts, conversions
# ---------------------------------------------------------------------------

from repro.analysis.adversarial import (  # noqa: E402
    figure2_case,
    figure3_case,
    rotation_medley,
)
from repro.core import _kernels as core_kernels  # noqa: E402
from repro.core.convert import make_in_place  # noqa: E402
from repro.core.crwi import (  # noqa: E402
    build_crwi_digraph,
    lemma1_bound,
    read_bytes_bound,
)
from repro.core.policies import LocallyMinimumPolicy  # noqa: E402
from repro.core.toposort import (  # noqa: E402
    _peel,
    _peel_reference,
    cycle_breaking_toposort,
    locality_toposort,
    order_respects_edges,
    plain_toposort,
)
from repro.delta.varint import varint_size  # noqa: E402


def _convert_cases():
    """(label, script, reference) corpus for the convert-plane oracles.

    Random mutated pairs exercise the shift-chain shapes real deltas
    produce; the adversarial constructions pin the all-core (Figure 2),
    wide-wave (Figure 3), and pure-cycle (rotation) extremes.
    """
    rng = random.Random(0xC0DE)
    cases = []
    for mutator in MUTATORS:
        base = _mutated(rng, rng.randbytes(12000), "edits")
        version = _mutated(rng, base, mutator)
        cases.append(("greedy_" + mutator, greedy_delta(base, version), base))
    fig2 = figure2_case(4)
    cases.append(("figure2", fig2.script, fig2.reference))
    fig3 = figure3_case(6)
    cases.append(("figure3", fig3.script, fig3.reference))
    medley = rotation_medley(64, [2, 3, 5, 9])
    cases.append(("rotation_medley", medley.script, medley.reference))
    return cases


CONVERT_CASES = _convert_cases()
CONVERT_IDS = [label for label, _, _ in CONVERT_CASES]


def _graph_fingerprint(graph):
    """Everything the public surface exposes, in canonical form."""
    return {
        "vertices": list(graph.vertices),
        "successors": [list(adj) for adj in graph.successors],
        "predecessors": [list(adj) for adj in graph.predecessors],
        "edges": list(graph.edges()),
        "edge_count": graph.edge_count,
        "costs_fixed": graph.costs(4),
        "costs_varint": graph.costs(varint_size),
    }


@needs_numpy
@pytest.mark.parametrize("label,script,reference", CONVERT_CASES,
                         ids=CONVERT_IDS)
def test_build_crwi_digraph_identical_fast_vs_scalar(label, script, reference):
    previous = use_fast_paths(True)
    try:
        fast = build_crwi_digraph(script)
        use_fast_paths(False)
        slow = build_crwi_digraph(script)
    finally:
        use_fast_paths(previous)
    assert _graph_fingerprint(fast) == _graph_fingerprint(slow), label


@needs_numpy
@pytest.mark.parametrize("label,script,reference", CONVERT_CASES,
                         ids=CONVERT_IDS)
def test_crwi_lemma1_bounds(label, script, reference, fast_on):
    graph = build_crwi_digraph(script)
    assert graph.edge_count <= read_bytes_bound(script) <= lemma1_bound(script)


@needs_numpy
def test_crwi_costs_arbitrary_callable_falls_back(fast_on):
    """A non-identity pricing callable must price like ``varint_size``."""
    _, script, _ = CONVERT_CASES[0]
    graph = build_crwi_digraph(script)
    assert graph.costs(lambda off: varint_size(off)) == graph.costs(varint_size)


@needs_numpy
def test_varint_sizes_kernel_matches_scalar():
    np = core_kernels.np
    boundaries = [0, 1]
    for width in range(1, 9):
        edge = 1 << (7 * width)
        boundaries.extend([edge - 1, edge])
    values = np.array(boundaries, dtype=np.int64)
    assert core_kernels.varint_sizes(values).tolist() == \
        [varint_size(v) for v in boundaries]


@needs_numpy
@pytest.mark.parametrize("narrow_wave", [0, 1 << 30],
                         ids=["pure_numpy", "scalar_handoff"])
@pytest.mark.parametrize("label,script,reference", CONVERT_CASES,
                         ids=CONVERT_IDS)
def test_toposort_peel_matches_reference(label, script, reference,
                                         narrow_wave, fast_on, monkeypatch):
    """Kernel peel == scalar peel, with the hybrid forced both ways.

    ``NARROW_WAVE = 0`` keeps every wave in numpy; ``1 << 30`` hands the
    very first wave to the scalar finisher — both must replay the
    reference wave sequence exactly.
    """
    monkeypatch.setattr(core_kernels, "ARRAY_PEEL_MIN", 0)
    monkeypatch.setattr(core_kernels, "NARROW_WAVE", narrow_wave)
    graph = build_crwi_digraph(script)
    expected = _peel_reference(graph)
    prefix, core, suffix, used_fast = _peel(graph)
    assert used_fast
    assert (prefix, core, suffix) == expected, label


@needs_numpy
@pytest.mark.parametrize("label,script,reference", CONVERT_CASES,
                         ids=CONVERT_IDS)
def test_cycle_breaking_toposort_identical_fast_vs_scalar(
        label, script, reference, monkeypatch):
    monkeypatch.setattr(core_kernels, "ARRAY_PEEL_MIN", 0)
    previous = use_fast_paths(True)
    try:
        graph = build_crwi_digraph(script)
        fast = cycle_breaking_toposort(graph, LocallyMinimumPolicy(),
                                       graph.costs(varint_size))
        use_fast_paths(False)
        graph = build_crwi_digraph(script)
        slow = cycle_breaking_toposort(graph, LocallyMinimumPolicy(),
                                       graph.costs(varint_size))
    finally:
        use_fast_paths(previous)
    assert fast.order == slow.order, label
    assert fast.evicted == slow.evicted, label
    assert fast.cycles_found == slow.cycles_found, label
    assert fast.peeled == slow.peeled, label
    assert order_respects_edges(graph, fast)


@needs_numpy
@pytest.mark.parametrize("sort", [plain_toposort, locality_toposort],
                         ids=["plain", "locality"])
def test_acyclic_sorts_identical_fast_vs_scalar(sort, monkeypatch):
    monkeypatch.setattr(core_kernels, "ARRAY_PEEL_MIN", 0)
    monkeypatch.setattr(core_kernels, "ARRAY_SETUP_MIN", 0)
    for label, script, reference in CONVERT_CASES:
        previous = use_fast_paths(True)
        try:
            graph = build_crwi_digraph(script)
            evicted = cycle_breaking_toposort(
                graph, LocallyMinimumPolicy()).evicted
            fast = sort(graph, excluding=evicted)
            use_fast_paths(False)
            graph = build_crwi_digraph(script)
            slow = sort(graph, excluding=evicted)
        finally:
            use_fast_paths(previous)
        assert fast == slow, (sort.__name__, label)


@needs_numpy
@pytest.mark.parametrize("policy,ordering,pricing",
                         [("local-min", "dfs", 4),
                          ("local-min", "locality", varint_size),
                          ("constant", "dfs", varint_size),
                          ("greedy-global", "dfs", 4)],
                         ids=["localmin_dfs_fixed", "localmin_loc_varint",
                              "constant_dfs_varint", "global_dfs_fixed"])
@pytest.mark.parametrize("label,script,reference", CONVERT_CASES,
                         ids=CONVERT_IDS)
def test_make_in_place_identical_fast_vs_scalar(label, script, reference,
                                                policy, ordering, pricing,
                                                monkeypatch):
    monkeypatch.setattr(core_kernels, "ARRAY_PEEL_MIN", 0)
    monkeypatch.setattr(core_kernels, "ARRAY_SETUP_MIN", 0)
    previous = use_fast_paths(True)
    try:
        fast = make_in_place(script, reference, policy=policy,
                             ordering=ordering, offset_encoding_size=pricing)
        use_fast_paths(False)
        slow = make_in_place(script, reference, policy=policy,
                             ordering=ordering, offset_encoding_size=pricing)
    finally:
        use_fast_paths(previous)
    assert encode_delta(fast.script) == encode_delta(slow.script), label
    for field in ("evicted_count", "evicted_bytes", "eviction_cost",
                  "cycles_found", "peeled"):
        assert getattr(fast.report, field) == getattr(slow.report, field), \
            (label, field)
