"""Linear-time, constant-space differencing (Burns-Long, reference [5]).

The one-pass algorithm scans the reference and version files
*simultaneously* with two cursors, hashing the seed under each cursor
into a fixed-size, first-come-first-served table per file
(:class:`~repro.delta.rolling.SeedTable`).  A match is detected in either
direction:

* the version seed matches a previously-hashed reference seed, or
* the reference seed matches a previously-hashed version seed that still
  lies in the pending (not yet encoded) region of the version.

On a match the algorithm verifies the bytes (fingerprints may collide or
slots may hold stale colliding seeds), extends the match forward as far
as it runs, emits the pending literals and the copy, and jumps both
cursors past the matched strings.  Memory is bounded by the two tables
regardless of input size — the property that made [5] suitable for very
large files — at the cost of missing some matches the greedy algorithm
finds (notably transposed blocks), a trade the paper's section 2 notes
is experimentally small.

The table *contents* depend on scan order (inserts interleave with the
jumping cursors), so they cannot be precomputed — but the fingerprints
themselves are pure functions of each buffer.  The scan therefore
consumes two precomputed fingerprint lists (vectorized under the fast
paths, scalar rolling otherwise; bit-identical either way) and the loop
proper does only list indexing, table slot probes, and slice-compare
match extension.

Under the fast paths the scan goes further than hoisting the modulo
(:func:`repro.delta._kernels.scan_arrays`): because a table slot fills
at most once and never changes afterwards, a numpy mask over each block
of positions identifies every position that could possibly insert or
match — everywhere else the scalar loop is provably a no-op — and the
scan replays the exact scalar body only at those event positions,
falling back to a scalar walk for blocks where events are dense (tables
still filling, self-similar data).  Byte equality implies fingerprint
equality, so the event filter never changes a decision and the emitted
script stays bit-identical to the scalar scan (``REPRO_NO_FAST=1``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Union

from .. import perf
from ..core.commands import DeltaScript
from . import _kernels as _k
from .builder import ScriptBuilder
from .rolling import (
    DEFAULT_SEED_LENGTH,
    SeedTable,
    _seed_fingerprint_array,
    fast_paths_enabled,
    match_length,
    seed_fingerprints,
)

Buffer = Union[bytes, bytearray, memoryview]


def onepass_delta(
    reference: Buffer,
    version: Buffer,
    *,
    seed_length: int = DEFAULT_SEED_LENGTH,
    table_size: int = 1 << 16,
    fingerprints=None,
) -> DeltaScript:
    """Compute a delta script for ``version`` against ``reference``.

    ``table_size`` fixes the size of both seed tables and therefore the
    algorithm's memory footprint; smaller tables lose more matches on
    large inputs but never affect correctness.

    The seed *tables* are interleaved with the tandem scan and cannot be
    shared, but the reference-side fingerprints the scan hashes from are
    a pure function of the reference.  Pass ``fingerprints`` (the
    precomputed :func:`~repro.delta.rolling.seed_fingerprints` of
    ``reference`` at this ``seed_length``) to reuse them across every
    version diffed against the same reference; the output script is
    byte-identical to the call that computes them itself.
    """
    if seed_length <= 0:
        raise ValueError("seed_length must be positive, got %d" % seed_length)
    if table_size <= 0:
        raise ValueError("table_size must be positive, got %d" % table_size)
    recorder = perf.active()
    started = perf_counter() if recorder is not None else 0.0
    builder = ScriptBuilder(version)
    len_r, len_v = len(reference), len(version)
    if len_v == 0 or len_r < seed_length or len_v < seed_length:
        script = builder.finish()
        if recorder is not None:
            _report(recorder, started, reference, version, 0, 0)
        return script

    use_fast = fast_paths_enabled() and _k.HAVE_NUMPY
    if fingerprints is not None:
        if len(fingerprints) != len_r - seed_length + 1:
            raise ValueError(
                "prebuilt fingerprints cover %d seeds, reference has %d"
                % (len(fingerprints), len_r - seed_length + 1)
            )
        fps_r = fingerprints
    elif use_fast:
        # Array form: the fast scan converts to lists once anyway, so
        # the list round-trip of seed_fingerprints would be pure waste.
        fps_r = _seed_fingerprint_array(reference, seed_length)
    else:
        fps_r = seed_fingerprints(reference, seed_length)
    fps_v = _seed_fingerprint_array(version, seed_length) if use_fast \
        else seed_fingerprints(version, seed_length)

    table_r = SeedTable(table_size)
    table_v = SeedTable(table_size)
    # The scan indexes the slot lists directly: the FCFS inserts and
    # lookups below run once or twice per byte scanned, and going
    # through the SeedTable methods costs more than the table logic
    # itself.  Occupancy is written back before returning.
    slots_r = table_r._slots
    slots_v = table_v._slots
    occupied_r = 0
    occupied_v = 0
    emit_copy = builder.emit_copy

    last_r = len_r - seed_length  # rightmost offset with a whole seed
    last_v = len_v - seed_length
    rc = 0  # reference cursor
    vc = 0  # version cursor
    copies = 0
    copy_bytes = 0

    if use_fast:
        # Vectorized candidate-batch scan, identical decisions to the
        # scalar loop below.
        #
        # The tables only *fill* — a slot transitions empty -> occupied
        # at most once and never changes again — so once they are warm
        # the scan's per-position work collapses: a position where (a)
        # both slots under the cursors are already occupied and (b)
        # neither cursor's fingerprint equals the fingerprint stored in
        # the table it probes can produce no insert, no match, and no
        # state change at all.  The scan proceeds in blocks: a numpy
        # mask counts the *event* positions (possible insert or
        # fingerprint hit) per block; a dense block (tables still
        # filling, or adversarially self-similar data) runs the plain
        # scalar body over block-local lists, a sparse block visits
        # only its events and skips everything between them wholesale.
        #
        # ``fp_slots_*`` hold the fingerprint stored in each slot with
        # ``-1`` for empty, so one int compare decides both "occupied"
        # and "fingerprint equal"; byte equality implies fingerprint
        # equality, so the filter never changes a decision.  ``fpm_*``
        # are numpy mirrors of the same lists for the block masks,
        # updated on every insert.
        np = _k._np
        slot_arr_r, fps64_r = _k.scan_arrays(fps_r, table_size)
        slot_arr_v, fps64_v = _k.scan_arrays(fps_v, table_size)
        fp_slots_r = [-1] * table_size
        fp_slots_v = [-1] * table_size
        fpm_r = np.full(table_size, -1, dtype=np.int64)
        fpm_v = np.full(table_size, -1, dtype=np.int64)
        block = 8192
        # ``add_start`` mutates only inside ``emit_copy``, so the
        # attribute read is hoisted and refreshed after each emission.
        add_start = builder.add_start
        while rc <= last_r and vc <= last_v:
            nb = min(block, last_r - rc + 1, last_v - vc + 1)
            base_r, base_v = rc, vc
            wsr = slot_arr_r[base_r:base_r + nb]
            wfr = fps64_r[base_r:base_r + nb]
            wsv = slot_arr_v[base_v:base_v + nb]
            wfv = fps64_v[base_v:base_v + nb]
            # Event mask: any position whose slot (either side) is
            # still empty, or whose fingerprint equals the one stored
            # in the table it probes.  Everything else is a no-op in
            # the scalar scan: occupancy is monotone (an empty-at-
            # snapshot test over-approximates, and the body re-checks)
            # and an occupied slot's fingerprint never changes.
            ev_mask = ((fpm_r[wsr] == -1) | (fpm_v[wsv] == -1) |
                       (fpm_r[wsv] == wfv) | (fpm_v[wsr] == wfr))
            if int(np.count_nonzero(ev_mask)) > (nb >> 3):
                # Dense block: walk it with the scalar body over
                # block-local lists (cheaper than event bookkeeping).
                bsr = wsr.tolist()
                bfr = wfr.tolist()
                bsv = wsv.tolist()
                bfv = wfv.tolist()
                end_r = base_r + nb - 1
                end_v = base_v + nb - 1
                while rc <= end_r and vc <= end_v:
                    sr = bsr[rc - base_r]
                    if fp_slots_r[sr] < 0:
                        fp = bfr[rc - base_r]
                        fp_slots_r[sr] = fp
                        slots_r[sr] = rc
                        occupied_r += 1
                        fpm_r[sr] = fp
                    sv = bsv[vc - base_v]
                    if fp_slots_v[sv] < 0:
                        fp = bfv[vc - base_v]
                        fp_slots_v[sv] = fp
                        slots_v[sv] = vc
                        occupied_v += 1
                        fpm_v[sv] = fp
                    if fp_slots_r[sv] == bfv[vc - base_v]:
                        cand = slots_r[sv]
                        if reference[cand:cand + seed_length] == \
                                version[vc:vc + seed_length]:
                            length = seed_length + match_length(
                                reference, cand + seed_length,
                                version, vc + seed_length
                            )
                            emit_copy(cand, vc, length)
                            copies += 1
                            copy_bytes += length
                            vc += length
                            rc += length
                            add_start = builder.add_start
                            continue
                    if fp_slots_v[sr] == bfr[rc - base_r]:
                        cand = slots_v[sr]
                        if cand >= add_start and \
                                version[cand:cand + seed_length] == \
                                reference[rc:rc + seed_length]:
                            length = seed_length + match_length(
                                reference, rc + seed_length,
                                version, cand + seed_length
                            )
                            emit_copy(rc, cand, length)
                            copies += 1
                            copy_bytes += length
                            rc += length
                            add_start = builder.add_start
                            if add_start > vc:
                                vc = add_start
                            continue
                    rc += 1
                    vc += 1
                continue
            # Sparse block: visit only the event positions; the scalar
            # scan is a guaranteed no-op everywhere between them.  The
            # one mask staleness: a slot filled *during* this block can
            # satisfy probes later in the block that the snapshot could
            # not see — the rescan after each insert patches them in.
            events = np.flatnonzero(ev_mask).tolist()
            cur = 0  # block offset both cursors have advanced to
            k = 0
            restart = False
            while k < len(events):
                o = events[k]
                k += 1
                if o < cur:  # skipped by a match jump
                    continue
                pos_r = base_r + o
                pos_v = base_v + o
                sr = wsr[o].item()
                if fp_slots_r[sr] < 0:
                    fp = wfr[o].item()
                    fp_slots_r[sr] = fp
                    slots_r[sr] = pos_r
                    occupied_r += 1
                    fpm_r[sr] = fp
                    if o + 1 < nb:
                        hits = np.flatnonzero(
                            (wsv[o + 1:] == sr) & (wfv[o + 1:] == fp))
                        if hits.size:
                            events = events[:k] + sorted(
                                set(events[k:]) |
                                set((hits + (o + 1)).tolist()))
                sv = wsv[o].item()
                if fp_slots_v[sv] < 0:
                    fp = wfv[o].item()
                    fp_slots_v[sv] = fp
                    slots_v[sv] = pos_v
                    occupied_v += 1
                    fpm_v[sv] = fp
                    if o + 1 < nb:
                        hits = np.flatnonzero(
                            (wsr[o + 1:] == sv) & (wfr[o + 1:] == fp))
                        if hits.size:
                            events = events[:k] + sorted(
                                set(events[k:]) |
                                set((hits + (o + 1)).tolist()))
                if fp_slots_r[sv] == wfv[o].item():
                    cand = slots_r[sv]
                    if reference[cand:cand + seed_length] == \
                            version[pos_v:pos_v + seed_length]:
                        length = seed_length + match_length(
                            reference, cand + seed_length,
                            version, pos_v + seed_length
                        )
                        emit_copy(cand, pos_v, length)
                        copies += 1
                        copy_bytes += length
                        add_start = builder.add_start
                        cur = o + length  # both cursors jump in step
                        if cur >= nb:
                            break
                        continue
                if fp_slots_v[sr] == wfr[o].item():
                    cand = slots_v[sr]
                    if cand >= add_start and \
                            version[cand:cand + seed_length] == \
                            reference[pos_r:pos_r + seed_length]:
                        length = seed_length + match_length(
                            reference, pos_r + seed_length,
                            version, cand + seed_length
                        )
                        emit_copy(pos_r, cand, length)
                        copies += 1
                        copy_bytes += length
                        add_start = builder.add_start
                        # The cursors desynchronize (rc jumps, vc at
                        # most snaps to the pending-add start), so the
                        # block alignment is void: restart from here.
                        rc = pos_r + length
                        vc = pos_v if add_start <= pos_v else add_start
                        restart = True
                        break
            if restart:
                continue
            adv = cur if cur > nb else nb
            rc = base_r + adv
            vc = base_v + adv

        # Tail: one cursor ran off the end; finish with the sentinel
        # form of the same scan over just the remaining positions.
        if rc <= last_r or vc <= last_v:
            tbase_r, tbase_v = rc, vc
            tslot_r = slot_arr_r[rc:last_r + 1].tolist()
            tfpl_r = fps64_r[rc:last_r + 1].tolist()
            tslot_v = slot_arr_v[vc:last_v + 1].tolist()
            tfpl_v = fps64_v[vc:last_v + 1].tolist()
        while rc <= last_r or vc <= last_v:
            if rc <= last_r:
                sr = tslot_r[rc - tbase_r]
                if fp_slots_r[sr] < 0:
                    fp_slots_r[sr] = tfpl_r[rc - tbase_r]
                    slots_r[sr] = rc
                    occupied_r += 1
            else:
                sr = -1
            if vc <= last_v:
                sv = tslot_v[vc - tbase_v]
                if fp_slots_v[sv] < 0:
                    fp_slots_v[sv] = tfpl_v[vc - tbase_v]
                    slots_v[sv] = vc
                    occupied_v += 1
            else:
                sv = -1
            matched = False
            if sv >= 0 and fp_slots_r[sv] == tfpl_v[vc - tbase_v]:
                cand = slots_r[sv]
                if reference[cand:cand + seed_length] == \
                        version[vc:vc + seed_length]:
                    length = seed_length + match_length(
                        reference, cand + seed_length, version, vc + seed_length
                    )
                    emit_copy(cand, vc, length)
                    copies += 1
                    copy_bytes += length
                    vc += length
                    rc += length
                    matched = True
            if not matched and sr >= 0 and \
                    fp_slots_v[sr] == tfpl_r[rc - tbase_r]:
                cand = slots_v[sr]
                if cand >= builder.add_start and \
                        version[cand:cand + seed_length] == \
                        reference[rc:rc + seed_length]:
                    length = seed_length + match_length(
                        reference, rc + seed_length, version, cand + seed_length
                    )
                    emit_copy(rc, cand, length)
                    copies += 1
                    copy_bytes += length
                    rc += length
                    if builder.add_start > vc:
                        vc = builder.add_start
                    matched = True
            if matched:
                continue
            if rc <= last_r:
                rc += 1
            if vc <= last_v:
                vc += 1
    else:
        while rc <= last_r or vc <= last_v:
            # Hash the seeds under both cursors *before* the lookups, so
            # two cursors standing on the same string (the identical-
            # prefix case) see each other immediately.
            if rc <= last_r:
                fp_r = fps_r[rc]
                slot = fp_r % table_size
                if slots_r[slot] < 0:
                    slots_r[slot] = rc
                    occupied_r += 1
            if vc <= last_v:
                fp_v = fps_v[vc]
                slot = fp_v % table_size
                if slots_v[slot] < 0:
                    slots_v[slot] = vc
                    occupied_v += 1
            matched = False
            # Direction 1: the version seed matches reference data
            # already scanned.
            if vc <= last_v:
                cand = slots_r[fp_v % table_size]
                if cand >= 0 and \
                        reference[cand:cand + seed_length] == \
                        version[vc:vc + seed_length]:
                    length = seed_length + match_length(
                        reference, cand + seed_length, version, vc + seed_length
                    )
                    emit_copy(cand, vc, length)
                    copies += 1
                    copy_bytes += length
                    # Jump BOTH cursors past the matched substrings ([5]).
                    # The version cursor passes the encoded region; the
                    # reference cursor advances by the same amount,
                    # keeping the tandem scan aligned even when the table
                    # hit was an early repeated occurrence rather than
                    # the aligned one.
                    vc += length
                    rc += length
                    matched = True
            # Direction 2: the reference seed matches pending version data.
            if not matched and rc <= last_r:
                cand = slots_v[fp_r % table_size]
                if cand >= 0 and cand >= builder.add_start and \
                        version[cand:cand + seed_length] == \
                        reference[rc:rc + seed_length]:
                    length = seed_length + match_length(
                        reference, rc + seed_length, version, cand + seed_length
                    )
                    emit_copy(rc, cand, length)
                    copies += 1
                    copy_bytes += length
                    rc += length
                    if builder.add_start > vc:
                        vc = builder.add_start
                    matched = True
            if matched:
                continue
            # No match under either cursor: advance both one byte.
            if rc <= last_r:
                rc += 1
            if vc <= last_v:
                vc += 1

    table_r.occupied = occupied_r
    table_v.occupied = occupied_v
    script = builder.finish()
    if recorder is not None:
        _report(recorder, started, reference, version, copies, copy_bytes)
    return script


def _report(recorder, started, reference, version, copies, copy_bytes) -> None:
    recorder.merge({
        "diff.onepass.calls": 1,
        "diff.onepass.seconds": perf_counter() - started,
        "diff.onepass.reference_bytes": len(reference),
        "diff.onepass.version_bytes": len(version),
        "diff.onepass.copies": copies,
        "diff.onepass.copy_bytes": copy_bytes,
    })
