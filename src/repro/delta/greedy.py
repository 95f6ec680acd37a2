"""Greedy differencing (Reichenberger-style, reference [11] of the paper).

The greedy algorithm indexes *every* seed of the reference file, then
walks the version file; at each offset it considers all reference
positions sharing the current seed's fingerprint, extends each candidate
match as far as it goes, and takes the longest.  Compression is the best
of the three algorithms here, at the price of memory linear in the
reference and quadratic worst-case time (bounded in this implementation
by ``max_candidates`` per bucket).

Matched strings are found at byte granularity with no alignment
restriction, which is precisely the property (section 2) that lets delta
compression work on arbitrary binaries.

The scan comes in two bit-identical forms.  When the index carries the
flat-array fast-path grouping (:attr:`FullSeedIndex.groups`), all
version fingerprints and all candidate lookups are resolved in bulk
vectorized passes before the scan loop runs — the loop itself touches
only plain-list indexing and :func:`match_length`.  Otherwise the scan
rolls a scalar Karp-Rabin hash and probes ``index.candidates`` per
offset, exactly as before.  Candidate order (ascending reference
offsets) and the first-longest tie-break are the same either way, so
the emitted script is too.
"""

from __future__ import annotations

from time import perf_counter
from typing import Optional, Union

from .. import perf
from ..core.commands import DeltaScript
from .builder import ScriptBuilder
from .rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    RollingHash,
    SparseSeedIndex,
    _seed_fingerprint_array,
    match_length,
    match_length_backward,
)

Buffer = Union[bytes, bytearray, memoryview]


def greedy_delta(
    reference: Buffer,
    version: Buffer,
    *,
    seed_length: int = DEFAULT_SEED_LENGTH,
    max_candidates: int = 64,
    index: Optional[Union[FullSeedIndex, SparseSeedIndex]] = None,
) -> DeltaScript:
    """Compute a delta script encoding ``version`` against ``reference``.

    ``seed_length`` is the minimum match length worth encoding as a copy;
    ``max_candidates`` caps how many same-fingerprint reference positions
    are tried per version offset (pathological inputs such as long zero
    runs otherwise degrade to quadratic time).

    Index construction is the dominant cost when one reference serves
    many versions, so it can be amortized: pass ``index``, a prebuilt
    :class:`FullSeedIndex` or :class:`SparseSeedIndex` over
    ``reference`` with matching ``seed_length`` (a caller that shares
    indexes across calls, such as the pipeline's reference cache,
    builds it).  For a given index tier the output script is
    byte-identical to the call that builds that tier itself.

    With a sparse index every verified match is additionally extended
    *backwards* over pending literal bytes (the sampled tier can only
    find a match starting at a sampled reference offset, so the true
    common string usually begins earlier); with a full index an
    exhaustive earlier scan position already claimed any such prefix,
    so backward extension is skipped and the output stays exactly what
    the classic greedy algorithm produces.
    """
    if seed_length <= 0:
        raise ValueError("seed_length must be positive, got %d" % seed_length)
    recorder = perf.active()
    started = perf_counter() if recorder is not None else 0.0
    builder = ScriptBuilder(version)
    n = len(version)
    script = None
    if n == 0:
        script = builder.finish()
    elif len(reference) < seed_length or n < seed_length:
        script = builder.finish()  # nothing can match; whole version is one add
    if script is not None:
        if recorder is not None:
            _report(recorder, started, reference, version, 0, 0, 0, False)
        return script

    if index is not None:
        if index.seed_length != seed_length:
            raise ValueError(
                "prebuilt index uses seed_length %d, call requested %d"
                % (index.seed_length, seed_length)
            )
    else:
        index = FullSeedIndex(reference, seed_length, max_candidates)

    # Sparse indexes sample the reference, so a found match may start
    # mid-string; extending backwards over pending literals recovers the
    # unsampled prefix.  Full indexes skip this (see the docstring).
    correct_back = getattr(index, "stride", 1) > 1
    probes = 0
    copies = 0
    copy_bytes = 0
    corrected_bytes = 0
    groups = getattr(index, "groups", None)
    fast = groups is not None
    if fast:
        # Bulk phase: fingerprint every version seed in one vectorized
        # pass and screen them all through the index's membership
        # filter.  The scan jumps over every matched region, so only
        # the positions it actually visits — and of those, only the
        # filter's hits — pay for a real candidate lookup.
        fps_v = _seed_fingerprint_array(version, seed_length)
        maybe = groups.membership(fps_v)
        lookup = groups.lookup
        pos = 0
        last = n - seed_length
        emit_copy = builder.emit_copy
        while pos <= last:
            if maybe[pos]:
                candidates = lookup(int(fps_v[pos]))
                if candidates:
                    probes += len(candidates)
                    best_len = 0
                    best_src = -1
                    for cand in candidates:
                        # Fingerprints can collide; match_length
                        # re-verifies bytes, so a bogus candidate just
                        # yields a short (or zero) match.
                        length = match_length(reference, cand, version, pos)
                        if length > best_len:
                            best_len = length
                            best_src = cand
                    if best_len >= seed_length:
                        back = 0
                        if correct_back:
                            back = match_length_backward(
                                reference, best_src, version, pos,
                                limit=min(best_src, pos - builder.add_start),
                            )
                        emit_copy(best_src - back, pos - back, back + best_len)
                        copies += 1
                        copy_bytes += back + best_len
                        corrected_bytes += back
                        pos += best_len
                        continue
            pos += 1
    else:
        roller = RollingHash(seed_length)
        pos = 0
        fingerprint = roller.reset(version, 0)
        while pos + seed_length <= n:
            best_len = 0
            best_src = -1
            for cand in index.candidates(fingerprint):
                probes += 1
                length = match_length(reference, cand, version, pos)
                if length > best_len:
                    best_len = length
                    best_src = cand
            if best_len >= seed_length:
                back = 0
                if correct_back:
                    back = match_length_backward(
                        reference, best_src, version, pos,
                        limit=min(best_src, pos - builder.add_start),
                    )
                builder.emit_copy(best_src - back, pos - back, back + best_len)
                copies += 1
                copy_bytes += back + best_len
                corrected_bytes += back
                pos += best_len
                if pos + seed_length <= n:
                    fingerprint = roller.reset(version, pos)
                continue
            if pos + seed_length < n:
                fingerprint = roller.update(version[pos], version[pos + seed_length])
            pos += 1
    script = builder.finish()
    if recorder is not None:
        _report(recorder, started, reference, version,
                probes, copies, copy_bytes, fast, corrected_bytes)
    return script


def _report(recorder, started, reference, version,
            probes, copies, copy_bytes, fast, corrected_bytes=0) -> None:
    recorder.merge({
        "diff.greedy.calls": 1,
        "diff.greedy.seconds": perf_counter() - started,
        "diff.greedy.reference_bytes": len(reference),
        "diff.greedy.version_bytes": len(version),
        "diff.greedy.candidates_probed": probes,
        "diff.greedy.copies": copies,
        "diff.greedy.copy_bytes": copy_bytes,
        "diff.greedy.corrected_bytes": corrected_bytes,
        "diff.greedy.fast_path": 1 if fast else 0,
    })
