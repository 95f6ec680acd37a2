"""In-place reconstruction of delta compressed files.

A production-quality reproduction of Burns & Long, *In-Place
Reconstruction of Delta Compressed Files* (PODC 1998).  The library
computes binary deltas between file versions, post-processes them so the
new version can be rebuilt **in the storage the old version occupies**
(no scratch space), and applies them — plus the simulated
constrained-device substrate and benchmarks that reproduce the paper's
evaluation.

Quickstart::

    import repro

    delta = repro.diff(old_bytes, new_bytes)          # delta script
    result = repro.make_in_place(delta, old_bytes)    # in-place safe script
    buf = bytearray(old_bytes)
    repro.apply_in_place(result.script, buf)          # buf now == new_bytes

See ``examples/`` for end-to-end scenarios and ``DESIGN.md`` for the
system inventory.
"""

from __future__ import annotations

from typing import Union

from . import (
    analysis,
    bundle,
    core,
    delta,
    device,
    exceptions,
    fleet,
    pipeline,
    serve,
    store,
    workloads,
)
from .core import (
    AddCommand,
    FillCommand,
    SpillCommand,
    ConstantTimePolicy,
    ConversionReport,
    CopyCommand,
    CRWIDigraph,
    DeltaScript,
    InPlaceResult,
    Interval,
    LocallyMinimumPolicy,
    apply_delta,
    apply_in_place,
    build_crwi_digraph,
    check_in_place_safe,
    compose_chain,
    compose_scripts,
    diff_in_place_integrated,
    is_in_place_safe,
    make_in_place,
    optimize_script,
    reconstruct,
)
from .core import (
    preflight_in_place,
    storage_crc32,
    verify_reference,
)
from .delta import (
    ALGORITHMS,
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    WIRE_V1,
    WIRE_V2,
    correcting_delta,
    decode_delta,
    encode_delta,
    encoded_size,
    greedy_delta,
    onepass_delta,
)
from .exceptions import IntegrityError
from .pipeline import (
    EXECUTORS,
    BatchReport,
    DeltaPipeline,
    PipelineConfig,
    PipelineJob,
    PipelineReport,
    PipelineResult,
    ReferenceIndexCache,
)

__version__ = "1.0.0"

Buffer = Union[bytes, bytearray, memoryview]


def diff(reference: Buffer, version: Buffer, *, algorithm: str = "correcting",
         **kwargs) -> DeltaScript:
    """Compute a delta script encoding ``version`` against ``reference``.

    ``algorithm`` selects the differencing engine: ``"correcting"`` (the
    default, matching the paper's compressor), ``"greedy"`` (best
    compression, linear memory) or ``"onepass"`` (constant space).
    Remaining keyword arguments pass through to the engine.
    """
    try:
        engine = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(
            "unknown algorithm %r; choose from %s"
            % (algorithm, ", ".join(sorted(ALGORITHMS)))
        ) from None
    return engine(reference, version, **kwargs)


def diff_in_place(reference: Buffer, version: Buffer, *,
                  algorithm: str = "correcting", policy: str = "local-min",
                  **kwargs) -> InPlaceResult:
    """Diff and convert in one call: an in-place safe script for ``version``."""
    script = diff(reference, version, algorithm=algorithm, **kwargs)
    return make_in_place(script, reference, policy=policy)


def patch(reference: Buffer, payload: bytes) -> bytes:
    """Apply a serialized delta file to ``reference`` (two-space).

    ``IPD2`` payloads are integrity-checked (trailer, segment CRCs,
    reference digest) before any reconstruction happens.
    """
    script, header = decode_delta(payload)
    verify_reference(header, reference)
    return apply_delta(script, reference)


def patch_in_place(buffer: bytearray, payload: bytes) -> bytearray:
    """Apply a serialized in-place delta file to ``buffer``, mutating it.

    Runs the full verify-then-mutate gate first: the payload's wire
    integrity is checked by :func:`~repro.delta.decode_delta`, then
    :func:`~repro.core.preflight_in_place` verifies the reference
    digest and all command bounds — ``buffer`` is untouched unless
    every check passes.
    """
    script, header = decode_delta(payload)
    preflight_in_place(script, header, buffer)
    return apply_in_place(script, buffer, strict=True)


__all__ = [
    "ALGORITHMS",
    "AddCommand",
    "BatchReport",
    "Buffer",
    "CRWIDigraph",
    "ConstantTimePolicy",
    "ConversionReport",
    "CopyCommand",
    "DeltaPipeline",
    "DeltaScript",
    "EXECUTORS",
    "FORMAT_INPLACE",
    "FillCommand",
    "SpillCommand",
    "FORMAT_SEQUENTIAL",
    "InPlaceResult",
    "IntegrityError",
    "Interval",
    "WIRE_V1",
    "WIRE_V2",
    "LocallyMinimumPolicy",
    "PipelineConfig",
    "PipelineJob",
    "PipelineReport",
    "PipelineResult",
    "ReferenceIndexCache",
    "analysis",
    "apply_delta",
    "bundle",
    "apply_in_place",
    "build_crwi_digraph",
    "check_in_place_safe",
    "compose_chain",
    "compose_scripts",
    "core",
    "correcting_delta",
    "decode_delta",
    "delta",
    "device",
    "diff",
    "diff_in_place",
    "diff_in_place_integrated",
    "encode_delta",
    "encoded_size",
    "exceptions",
    "fleet",
    "greedy_delta",
    "is_in_place_safe",
    "make_in_place",
    "onepass_delta",
    "optimize_script",
    "patch",
    "patch_in_place",
    "pipeline",
    "preflight_in_place",
    "reconstruct",
    "serve",
    "storage_crc32",
    "store",
    "verify_reference",
    "workloads",
]
