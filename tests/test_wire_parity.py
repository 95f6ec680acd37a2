"""Differential test: the buffered and the streamed decoder agree.

:func:`~repro.delta.encode.decode_delta` and
:func:`~repro.delta.stream.iter_delta_commands` run the same wire parser,
one over a whole buffer and one over a window sliding along a stream.
On every input — valid payloads in all four formats and both containers,
every strict prefix, sampled single-bit flips, and appended bytes —
either both accept with the same header and commands, or both raise
:class:`~repro.exceptions.DeltaFormatError` or
:class:`~repro.exceptions.IntegrityError`.  The stream is fed from
``bytes`` and from :class:`io.BytesIO`.

All randomness is seeded; a failure names the payload and the mutation.
"""

import io
import random
import zlib

import pytest

from repro import patch_in_place
from repro.core.convert import make_in_place
from repro.delta import correcting_delta
from repro.delta.encode import (
    FORMAT_INPLACE,
    FORMAT_INPLACE_FIXED,
    FORMAT_SEQUENTIAL,
    FORMAT_SEQUENTIAL_FIXED,
    SEGMENT_LIMIT_BYTES,
    WIRE_V2,
    decode_delta,
    encode_delta,
    version_checksum,
)
from repro.delta.stream import apply_delta_stream, iter_delta_commands
from repro.exceptions import DeltaFormatError, DeltaRangeError, IntegrityError
from repro.workloads import make_binary_blob

from .test_integrity import understated_scratch_payload

SEED = 20261017
OK_ERRORS = (DeltaFormatError, IntegrityError)
FLIPS_PER_PAYLOAD = 48
APPENDS = (b"\x00", b"\xff", b"\x00\x00\x00\x00", b"\x01\x02\x03\x04")


def _pair(rng, pieces):
    """A reference and a version made of shuffled runs of it between
    fresh literals: many copy and add codewords, and crossing copies for
    the converter to break (into spill/fill with a scratch budget)."""
    old = make_binary_blob(rng, 3_000)
    runs = []
    for _ in range(pieces):
        start = rng.randrange(len(old) - 120)
        runs.append(old[start:start + rng.randrange(30, 120)])
        runs.append(rng.randbytes(rng.randrange(10, 60)))
    return old, b"".join(runs)


def _scripts(old, new):
    sequential = correcting_delta(old, new)
    in_place = make_in_place(sequential, old, scratch_budget=1 << 12).script
    return ((FORMAT_SEQUENTIAL, sequential),
            (FORMAT_SEQUENTIAL_FIXED, sequential),
            (FORMAT_INPLACE, in_place),
            (FORMAT_INPLACE_FIXED, in_place))


def _corpus():
    """Name -> (payload, reference, prefix step).

    Every strict prefix of 16 payloads longer than one stream window:
    four formats x (IPD1 with/without a version CRC, IPD2 with/without a
    reference digest).  Plus, with every 13th prefix, four IPD2 payloads
    long enough for several segment checkpoints."""
    rng = random.Random(SEED)
    corpus = {}
    old, new = _pair(rng, 12)
    crc = version_checksum(new)
    for fmt, script in _scripts(old, new):
        corpus["f%d-v1-crc" % fmt] = (
            encode_delta(script, fmt, version_crc32=crc), old, 1)
        corpus["f%d-v1-nocrc" % fmt] = (encode_delta(script, fmt), old, 1)
        corpus["f%d-v2-ref" % fmt] = (
            encode_delta(script, fmt, version_crc32=crc, reference=old),
            old, 1)
        corpus["f%d-v2-noref" % fmt] = (
            encode_delta(script, fmt, version_crc32=crc, wire=WIRE_V2),
            old, 1)
    old, new = _pair(rng, 48)
    crc = version_checksum(new)
    for fmt, script in _scripts(old, new):
        corpus["f%d-v2-long" % fmt] = (
            encode_delta(script, fmt, version_crc32=crc, reference=old),
            old, 13)
    return corpus


CORPUS = _corpus()


def _mutations(payload, rng, prefix_step):
    """(label, bytes) for strict prefixes, sampled bit flips and appends
    of ``payload``."""
    for cut in range(0, len(payload), prefix_step):
        yield "prefix %d" % cut, payload[:cut]
    blob = bytearray(payload)
    for _ in range(FLIPS_PER_PAYLOAD):
        bit = rng.randrange(len(blob) * 8)
        blob[bit // 8] ^= 1 << (bit % 8)
        yield "flip bit %d" % bit, bytes(blob)
        if payload.startswith(b"IPD2") and bit < (len(blob) - 4) * 8:
            # Re-sealed under a fresh trailer, so the segment checkpoints
            # and the grammar, not the trailer, must catch the flip.
            body = blob[:-4]
            yield "resealed flip bit %d" % bit, bytes(
                body + zlib.crc32(body).to_bytes(4, "little"))
        blob[bit // 8] ^= 1 << (bit % 8)
    for extra in APPENDS:
        yield "append %r" % extra, payload + extra


def _verdict(decode):
    try:
        return "ok", decode()
    except OK_ERRORS:
        return "refused", None


def _buffered(data):
    script, header = decode_delta(data)
    return header, script.commands


def _streamed(source):
    header, commands = iter_delta_commands(source)
    return header, list(commands)


def _sources(data):
    yield "bytes", lambda: data
    yield "BytesIO", lambda: io.BytesIO(data)


def test_corpus_shape():
    payloads = [payload for payload, _, _ in CORPUS.values()]
    assert len(payloads) == 20
    assert {p[:4] for p in payloads} == {b"IPD1", b"IPD2"}
    # Every payload slides the stream window; the long ones carry
    # several segment checkpoints.
    assert min(len(p) for p in payloads) > 512
    assert all(len(CORPUS[n][0]) > SEGMENT_LIMIT_BYTES
               for n in CORPUS if n.endswith("-long"))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_same_verdict_on_every_mutation(name):
    payload, _, prefix_step = CORPUS[name]
    rng = random.Random("%d/%s" % (SEED, name))
    mutations = list(_mutations(payload, rng, prefix_step))
    for label, data in [("intact", payload)] + mutations:
        expected = _verdict(lambda: _buffered(data))
        for source_name, make in _sources(data):
            got = _verdict(lambda: _streamed(make()))
            assert got == expected, (
                "%s, %s via %s: buffered %s, streamed %s (seed %d)"
                % (name, label, source_name, expected[0], got[0], SEED))
    assert _verdict(lambda: _buffered(payload))[0] == "ok"


@pytest.mark.parametrize("name", sorted(n for n in CORPUS if "-v1-" in n))
def test_early_end_flips_refused_by_the_streamed_applier(name):
    # A flip that turns an opcode into OP_END leaves a well-formed delta
    # followed by garbage; applying the prefix and returning would hand
    # the device a silently truncated update.
    payload, reference, _ = CORPUS[name]
    early_ends = 0
    for offset in range(len(payload) - 1):
        byte = payload[offset]
        if byte & (byte - 1):
            continue  # no single-bit flip makes this byte zero
        try:
            decode_delta(payload[:offset] + b"\x00")
        except OK_ERRORS:
            continue  # not an opcode position
        flipped = payload[:offset] + b"\x00" + payload[offset + 1:]
        early_ends += 1
        with pytest.raises(DeltaFormatError):
            decode_delta(flipped)
        with pytest.raises(DeltaFormatError):
            apply_delta_stream(flipped, bytearray(reference))
    assert early_ends > 10


def test_reads_never_exceed_the_stream_buffer():
    class Recording(io.BytesIO):
        def __init__(self, data):
            super().__init__(data)
            self.largest = 0

        def read(self, n=-1):
            self.largest = max(self.largest, n)
            return super().read(n)

    for payload, _, _ in CORPUS.values():
        source = Recording(payload + b"tail")
        with pytest.raises(DeltaFormatError):
            _streamed(source)
        assert 0 < source.largest <= 512


def test_declared_scratch_is_one_verdict():
    # A header that declares less scratch than its spills and fills use:
    # the buffered gate (decode, preflight) and the streamed applier
    # refuse it alike, before the first write.
    old, _new, payload = understated_scratch_payload()
    messages = []
    for apply in (lambda buf: patch_in_place(buf, payload),
                  lambda buf: apply_delta_stream(payload, buf)):
        buf = bytearray(old)
        with pytest.raises(DeltaRangeError) as info:
            apply(buf)
        assert buf == old
        messages.append(str(info.value))
    assert messages == ["spill 0 writes beyond declared scratch size 16"] * 2
