"""Correcting one-and-a-half-pass differencing (Ajtai et al., reference [1]).

The paper's experimental deltas were produced by the authors' then-
unpublished "compactly encoding arbitrary inputs" algorithm.  Its
published form is a *one-and-a-half-pass* scheme:

* **half pass** — hash every seed of the reference file into a fixed-size
  first-come-first-served table (constant space, like the one-pass
  algorithm, unlike the greedy algorithm's exhaustive index);
* **full pass** — scan the version file once; at each offset probe the
  table, verify the candidate against the actual bytes, and *correct*
  earlier decisions by extending a verified match **backwards** over
  bytes provisionally classed as literals, as well as forwards.

Backward correction is what distinguishes this algorithm: a seed match in
the middle of a long common string still recovers the whole string, so
compression approaches greedy quality while memory stays constant.

Both passes ride the fast paths when available: the half pass is a bulk
FCFS construction (:meth:`SeedTable.from_fingerprints`), and the full
pass batch-probes the table with *every* version fingerprint in one
vectorized pass (:func:`repro.delta._kernels.probe_table`) — the table
shares the reference's fingerprint array, so each occupied slot's full
fingerprint is known, and byte equality implies fingerprint equality,
so the scan loop only visits the positions whose probe survives the
fingerprint compare, byte-verifies those, and jumps between them.
Output scripts are bit-identical to the scalar rolling scan
(``REPRO_NO_FAST=1``).

Both passes start from the seed fingerprints of one file, a pure
function of its bytes.  A caller that diffs the same images many times
(:class:`~repro.pipeline.cache.ReferenceIndexCache` keeps one
fingerprint array per image) passes the reference's table as ``table``
and the version's fingerprints as ``version_fingerprints``, and the
call fingerprints nothing.
"""

from __future__ import annotations

from time import perf_counter
from typing import Tuple, Union

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
    match_length_backward,
    seed_fingerprints,
)

Buffer = Union[bytes, bytearray, memoryview]


def correcting_delta(
    reference: Buffer,
    version: Buffer,
    *,
    seed_length: int = DEFAULT_SEED_LENGTH,
    table_size: int = 1 << 16,
    table=None,
    version_fingerprints=None,
    return_version_table: bool = False,
) -> Union[DeltaScript, Tuple[DeltaScript, SeedTable]]:
    """Compute a delta script for ``version`` against ``reference``.

    Constant space: one fixed-size seed table over the reference.  Time
    linear in the inputs plus the lengths of verified matches.

    The half-pass table is a pure function of the reference, so when one
    reference serves many versions it can be built once: pass ``table``,
    a prebuilt :class:`~repro.delta.rolling.SeedTable` over
    ``reference`` with matching ``table_size``.  The full pass only
    reads the table, so a shared copy is never mutated and the output
    script is byte-identical to the call that builds the table itself.

    Likewise ``version_fingerprints``, the prebuilt seed fingerprints of
    ``version`` at this ``seed_length`` (the array or list
    :func:`~repro.delta.rolling.seed_fingerprints` computes, one per
    seed), replaces the full pass's own fingerprinting; a length that
    does not match the version's seed count raises ``ValueError``.

    In a release train each version is the next diff's reference.  With
    ``return_version_table=True`` the call returns ``(script,
    version_table)``: the half-pass table of ``version`` itself, built
    from the version fingerprints the full pass computes anyway and
    equal to the table a later call with ``reference=version`` would
    build, so that call can take it as ``table``.
    """
    if seed_length <= 0:
        raise ValueError("seed_length must be positive, got %d" % seed_length)
    if table_size <= 0:
        raise ValueError("table_size must be positive, got %d" % table_size)
    if table is not None and table.size != table_size:
        raise ValueError(
            "prebuilt table has size %d, call requested %d"
            % (table.size, table_size)
        )
    len_r, len_v = len(reference), len(version)
    fps_v = version_fingerprints
    seeds_v = max(0, len_v - seed_length + 1)
    if fps_v is not None and len(fps_v) != seeds_v:
        raise ValueError(
            "prebuilt version fingerprints cover %d seeds, version has %d"
            % (len(fps_v), seeds_v)
        )
    recorder = perf.active()
    started = perf_counter() if recorder is not None else 0.0
    builder = ScriptBuilder(version)
    if len_v == 0 or len_r < seed_length or len_v < seed_length:
        script = builder.finish()
        if recorder is not None:
            _report(recorder, started, reference, version, 0, 0, 0)
        if return_version_table:
            if fps_v is None:
                fps_v = _seed_fingerprint_array(version, seed_length)
            return script, SeedTable.from_fingerprints(fps_v, table_size)
        return script

    if table is None:
        # Half pass: fingerprint every reference seed into the FCFS table.
        table = SeedTable.from_fingerprints(
            _seed_fingerprint_array(reference, seed_length), table_size)

    # Full pass: scan the version, correcting backwards on each match.
    # The table is read-only here (it may be a cache-shared instance);
    # its slot list is bound locally for probe speed.
    emit_copy = builder.emit_copy
    pos = 0
    last_v = len_v - seed_length
    copies = 0
    copy_bytes = 0
    corrected_bytes = 0
    probe = table.probe_arrays() if fast_paths_enabled() and _k.HAVE_NUMPY \
        else None
    if probe is not None:
        # Fast scan: one vectorized probe of every version position at
        # once.  A position survives only when its slot is occupied by an
        # *equal* fingerprint, and byte equality implies fingerprint
        # equality, so the surviving positions are a superset of exactly
        # the positions the scalar scan byte-verifies successfully —
        # visiting only them (and re-verifying bytes, since equal
        # fingerprints can still collide) emits the identical script.
        if fps_v is None:
            fps_v = _seed_fingerprint_array(version, seed_length)
        hits, cands = _k.probe_table(probe[0], probe[1], fps_v)
        # Each visited hit is almost always a verified match that emits
        # a copy, and hits inside an emitted copy are skipped with one
        # bisection, so the loop reads only a few array elements.
        i, n_hits = 0, len(hits)
        while i < n_hits:
            p = int(hits[i])
            if p < pos:
                i = int(hits.searchsorted(pos))
                continue
            cand = int(cands[i])
            i += 1
            if reference[cand:cand + seed_length] == \
                    version[p:p + seed_length]:
                forward = seed_length + match_length(
                    reference, cand + seed_length, version, p + seed_length
                )
                back = match_length_backward(
                    reference, cand, version, p,
                    limit=min(cand, p - builder.add_start),
                )
                emit_copy(cand - back, p - back, back + forward)
                copies += 1
                copy_bytes += back + forward
                corrected_bytes += back
                pos = p + forward
    else:
        if fps_v is None:
            fps_v = seed_fingerprints(version, seed_length)
        slots = table._slots
        size = table.size
        while pos <= last_v:
            cand = slots[fps_v[pos] % size]
            if cand >= 0 and \
                    reference[cand:cand + seed_length] == \
                    version[pos:pos + seed_length]:
                forward = seed_length + match_length(
                    reference, cand + seed_length, version, pos + seed_length
                )
                # Correction: grow the match left over pending literal
                # bytes, limited by the committed boundary and the
                # reference start.
                back = match_length_backward(
                    reference, cand, version, pos,
                    limit=min(cand, pos - builder.add_start),
                )
                emit_copy(cand - back, pos - back, back + forward)
                copies += 1
                copy_bytes += back + forward
                corrected_bytes += back
                pos += forward
                continue
            pos += 1
    script = builder.finish()
    if recorder is not None:
        _report(recorder, started, reference, version,
                copies, copy_bytes, corrected_bytes)
    if return_version_table:
        return script, SeedTable.from_fingerprints(fps_v, table_size)
    return script


def _report(recorder, started, reference, version,
            copies, copy_bytes, corrected_bytes) -> None:
    recorder.merge({
        "diff.correcting.calls": 1,
        "diff.correcting.seconds": perf_counter() - started,
        "diff.correcting.reference_bytes": len(reference),
        "diff.correcting.version_bytes": len(version),
        "diff.correcting.copies": copies,
        "diff.correcting.copy_bytes": copy_bytes,
        "diff.correcting.corrected_bytes": corrected_bytes,
    })
