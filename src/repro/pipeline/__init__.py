"""Batch delta serving: shared reference caches and the job pipeline.

One reference file usually serves many version files (fleet updates,
mirror sync).  This package amortizes the reference-side work across
that fan-out: :class:`ReferenceIndexCache` shares the per-reference
differencing state (seed indexes, tables, fingerprints) by content
digest, and :class:`DeltaPipeline` fans (reference, version) jobs across
``concurrent.futures`` pools, running diff -> in-place conversion ->
wire encoding per job and reporting per-stage timings plus cache
behaviour.
"""

from .cache import (
    ALGORITHM_KINDS,
    ARTIFACT_KEYWORDS,
    KIND_FINGERPRINTS,
    KIND_FULL_INDEX,
    KIND_SEED_TABLE,
    KIND_SPARSE_INDEX,
    CacheStats,
    ReferenceIndexCache,
)
from .executor import (
    EXECUTORS,
    PROCESS_EXECUTORS,
    RAW_REWRITE,
    BatchReport,
    DeltaPipeline,
    PipelineConfig,
    PipelineJob,
    PipelineReport,
    PipelineResult,
    classify_failure,
)
from .shm import (
    SegmentMapping,
    SharedBufferArena,
    SharedBufferDescriptor,
)

__all__ = [
    "ALGORITHM_KINDS",
    "ARTIFACT_KEYWORDS",
    "BatchReport",
    "CacheStats",
    "DeltaPipeline",
    "EXECUTORS",
    "KIND_FINGERPRINTS",
    "KIND_FULL_INDEX",
    "KIND_SEED_TABLE",
    "KIND_SPARSE_INDEX",
    "PROCESS_EXECUTORS",
    "PipelineConfig",
    "PipelineJob",
    "PipelineReport",
    "PipelineResult",
    "RAW_REWRITE",
    "ReferenceIndexCache",
    "SegmentMapping",
    "SharedBufferArena",
    "SharedBufferDescriptor",
    "classify_failure",
]
