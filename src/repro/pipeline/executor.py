"""Batch delta pipeline: fan (reference, version) jobs across workers.

The serving shape this targets is one reference diffed against many
versions (a release pushed to a fleet, a mirror syncing a directory of
histories).  Each :class:`PipelineJob` runs the full per-client path —
differencing, in-place conversion, wire encoding — and returns a
:class:`PipelineResult` whose :class:`PipelineReport` carries stage and
queue timings, the per-job cache outcome, and the converter's
:class:`~repro.core.convert.ConversionReport`.

Four executors:

* ``"serial"`` — inline, no pools; the baseline the benches compare
  against.
* ``"thread"`` — a differencing thread pool feeding a conversion thread
  pool, all workers sharing one
  :class:`~repro.pipeline.cache.ReferenceIndexCache`.  CPython's GIL
  serializes the pure-Python compute, so the win here is the cache (the
  reference index is built once per batch instead of once per job) plus
  overlap of any releasing operations.
* ``"process"`` — differencing in a process pool (true parallelism on
  multi-core hosts), conversion in a thread pool.  Each worker process
  holds its own cache, kept warm because the pool persists across
  :meth:`DeltaPipeline.run` calls; job payloads (reference and version
  bytes, then the resulting script) cross the process boundary by
  pickling.
* ``"process-shm"`` — the process pool fed zero-copy: reference and
  version buffers are published once into shared-memory segments (a
  ref-counted :class:`~repro.pipeline.shm.SharedBufferArena`), workers
  receive tiny ``(segment, offset, length, digest)`` descriptors and map
  the bytes read-only via ``memoryview``, and the per-worker cache keys
  on the descriptor's content digest — segment identity — so a batch of
  N versions against one reference builds the index once per worker
  instead of shipping and re-hashing the reference N times.  Segments
  are released (and unlinked) in a ``finally`` at the end of every
  batch and on :meth:`DeltaPipeline.close`, with an ``atexit`` sweep
  behind both, so no ``/dev/shm`` segment survives the process even
  under fault injection.

Construction takes a :class:`PipelineConfig` (the stable API).

Worker processes run their differencing under a local
:class:`~repro.perf.PerfRecorder` and ship the counter snapshot back
with the stage result; the parent merges it into whatever recorder its
batch runs under, so ``repro.perf`` telemetry from ``"process"`` and
``"process-shm"`` workers aggregates instead of being silently dropped.

**Fault isolation.**  A batch of N jobs always yields N
:class:`PipelineResult` objects: a job that fails — a raising differ, a
fault injected by a :class:`~repro.faults.FaultPlan`, a stage timeout —
is retried (``retries``, with exponential backoff and jitter), degraded
down a fallback chain of algorithms ending, if configured, in a
``"raw"`` full-rewrite delta, and finally *quarantined* into a
structured failure result rather than raised.  The per-job
``report.trace`` records every attempt, fault and fallback in a
timing-free format, so the same fault seed reproduces byte-identical
traces across runs and executor modes.

By default the pipeline prices evictions with
:func:`~repro.delta.varint.varint_size` — the pricing that matches the
varint wire format it encodes (``FORMAT_INPLACE``) — so every
``eviction_cost`` it reports is the exact encoded-size growth of the
conversion.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import perf
from ..core.apply import verify_reference
from ..core.commands import AddCommand, DeltaScript
from ..core.convert import ConversionReport, make_in_place
from ..delta import (
    ALGORITHMS,
    FORMAT_INPLACE,
    decode_delta,
    encode_delta,
    version_checksum,
)
from ..delta.varint import varint_size
from ..exceptions import ReproError
from ..faults import FaultPlan, backoff_delay, describe_failure
from .cache import (
    ALGORITHM_KINDS,
    KIND_FINGERPRINTS,
    KIND_FULL_INDEX,
    KIND_SEED_TABLE,
    KIND_SPARSE_INDEX,
    CacheStats,
    ReferenceIndexCache,
)
from .shm import SegmentMapping, SharedBufferArena, SharedBufferDescriptor

Buffer = Union[bytes, bytearray, memoryview]

EXECUTORS = ("serial", "thread", "process", "process-shm")

#: Executors whose differencing stage runs in worker *processes* (their
#: caches live per worker; the parent cannot observe them directly).
PROCESS_EXECUTORS = ("process", "process-shm")

#: Differ keyword accepting a prebuilt reference artifact, per artifact
#: kind — how the shared-memory path hands a digest-keyed cache artifact
#: to the algorithm without re-hashing the reference.  Both greedy index
#: tiers (``ReferenceIndexCache.greedy_index`` picks full vs sparse by
#: how the reference prices) travel through the same ``index=`` keyword.
_ARTIFACT_KWARGS = {
    KIND_FULL_INDEX: "index",
    KIND_SPARSE_INDEX: "index",
    KIND_SEED_TABLE: "table",
    KIND_FINGERPRINTS: "fingerprints",
}

#: Sentinel "algorithm" for the last link of a degradation chain: a
#: full-rewrite delta (one add covering the whole version).  It needs no
#: differencing and no reference, so it cannot fail at ``diff.worker``
#: — the guaranteed-progress floor of the chain.
RAW_REWRITE = "raw"

#: Longest sleep, in seconds, between two attempts of one job.
BACKOFF_CAP = 1.0

#: Failure types (the ``"Type: message"`` prefix produced by
#: :func:`~repro.faults.describe_failure`) that indicate bad *data*
#: rather than bad *luck*: retrying the same inputs deterministically
#: fails again, so a quarantine caused by one of these is classified
#: ``"corruption"`` rather than ``"transient"``.
_CORRUPTION_FAILURES = frozenset({
    "IntegrityError",
    "VerificationError",
    "DeltaFormatError",
    "DeltaRangeError",
    "WriteBeforeReadError",
})


def classify_failure(failure: str) -> str:
    """Classify a rendered failure string as corruption or transient."""
    if not failure:
        return ""
    kind = failure.split(":", 1)[0]
    return "corruption" if kind in _CORRUPTION_FAILURES else "transient"


@dataclass(frozen=True)
class PipelineJob:
    """One unit of batch work: encode ``version`` against ``reference``."""

    reference: bytes
    version: bytes
    name: str = ""


@dataclass
class PipelineReport:
    """Accounting for one job's trip through the pipeline."""

    name: str
    algorithm: str
    policy: str
    executor: str
    #: Whether the reference artifact was already cached when the diff
    #: stage picked the job up (best-effort under concurrency).
    cache_hit: bool = False
    #: Seconds the job waited between submission and the diff stage
    #: starting (wall clock, comparable across processes).
    queue_seconds: float = 0.0
    diff_seconds: float = 0.0
    convert_seconds: float = 0.0
    encode_seconds: float = 0.0
    #: Submission to encoded payload, wall clock.
    total_seconds: float = 0.0
    version_bytes: int = 0
    delta_bytes: int = 0
    #: The in-place converter's full report, rolled in.
    conversion: Optional[ConversionReport] = None
    #: Total attempts (across retries and fallback links) this job took.
    attempts: int = 1
    #: Every failure hit along the way, rendered ``"Type: message"``.
    faults: List[str] = field(default_factory=list)
    #: Chain link that finally produced the payload, ``""`` when the
    #: primary algorithm succeeded (``"raw"`` for a full rewrite).
    fallback: str = ""
    #: True when every chain link exhausted its retries; ``payload`` is
    #: empty and ``failure`` holds the last error.
    quarantined: bool = False
    failure: str = ""
    #: Post-encode self-check outcome: ``"verified"`` when the emitted
    #: payload decoded cleanly (trailer + segment CRCs) and its
    #: reference digest matched the job's reference, ``""`` when the
    #: job never produced a payload.
    integrity: str = ""
    #: Why a quarantined job was quarantined: ``"corruption"`` when the
    #: final failure was an integrity/format/verification error (the
    #: data is bad — retrying elsewhere won't help), ``"transient"``
    #: otherwise (injected fault, timeout, worker crash).  Empty for
    #: jobs that were not quarantined.
    quarantine_reason: str = ""
    #: Timing-free event log (attempts, faults, fallbacks, outcome):
    #: byte-identical across runs and executors for a fixed fault seed.
    trace: List[str] = field(default_factory=list)


@dataclass
class PipelineResult:
    """One job's outputs: the encoded delta, its script, and the report."""

    payload: bytes
    script: DeltaScript
    report: PipelineReport

    @property
    def ok(self) -> bool:
        """Whether the job produced a usable delta."""
        return not self.report.quarantined


@dataclass
class BatchReport:
    """Aggregate view of one :meth:`DeltaPipeline.run` call."""

    results: List[PipelineResult] = field(default_factory=list)
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_stats: Optional[CacheStats] = None

    @property
    def jobs(self) -> int:
        return len(self.results)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of jobs whose reference artifact was already cached."""
        return self.cache_hits / self.jobs if self.jobs else 0.0

    @property
    def total_version_bytes(self) -> int:
        return sum(r.report.version_bytes for r in self.results)

    @property
    def total_delta_bytes(self) -> int:
        return sum(r.report.delta_bytes for r in self.results)

    @property
    def compute_seconds(self) -> float:
        """Summed per-job stage time (exceeds wall time under overlap)."""
        return sum(
            r.report.diff_seconds + r.report.convert_seconds + r.report.encode_seconds
            for r in self.results
        )

    # -- resilience accounting ----------------------------------------

    @property
    def ok_jobs(self) -> int:
        """Jobs that produced a usable delta."""
        return sum(1 for r in self.results if r.ok)

    @property
    def retried(self) -> List[str]:
        """Names of jobs that succeeded but needed more than one attempt."""
        return [r.report.name for r in self.results
                if r.ok and r.report.attempts > 1]

    @property
    def fallbacks(self) -> List[str]:
        """Names of jobs served by a fallback link, not the primary."""
        return [r.report.name for r in self.results if r.report.fallback]

    @property
    def quarantined(self) -> List[str]:
        """Names of jobs that exhausted every chain link and retry."""
        return [r.report.name for r in self.results if r.report.quarantined]

    @property
    def fault_events(self) -> int:
        """Total failures hit across the batch (injected or organic)."""
        return sum(len(r.report.faults) for r in self.results)

    @property
    def corrupted(self) -> List[str]:
        """Names of jobs quarantined for corruption, not transient faults."""
        return [r.report.name for r in self.results
                if r.report.quarantine_reason == "corruption"]

    @property
    def verified(self) -> int:
        """Jobs whose emitted payload passed the post-encode self-check."""
        return sum(1 for r in self.results
                   if r.report.integrity == "verified")

    @property
    def trace(self) -> List[str]:
        """Per-job traces concatenated in submission order."""
        return [line for r in self.results for line in r.report.trace]

    def summary(self) -> Dict[str, object]:
        """Machine-readable batch summary (schema ``repro.pipeline.batch/1``).

        The same dictionary serves ``ipdelta pipeline --json`` and the
        fleet campaign's encode-phase section, so tooling parses one
        schema wherever a batch ran.  Everything in it is derived from
        per-job reports, so for a fixed fault seed it is identical
        across executor modes (wall/compute seconds excepted).
        """
        return {
            "schema": "repro.pipeline.batch/1",
            "jobs": self.jobs,
            "ok": self.ok_jobs,
            "retried": list(self.retried),
            "fallbacks": list(self.fallbacks),
            "quarantined": list(self.quarantined),
            "corrupted": list(self.corrupted),
            "fault_events": self.fault_events,
            "verified": self.verified,
            "cache_hits": self.cache_hits,
            "version_bytes": self.total_version_bytes,
            "delta_bytes": self.total_delta_bytes,
            "wall_seconds": self.wall_seconds,
            "compute_seconds": self.compute_seconds,
        }


# -- process-pool plumbing --------------------------------------------
#
# Worker processes keep a module-global cache so repeated jobs against
# one reference amortize index construction exactly like threads do,
# just per-process.  The pool persists across run() calls, so the
# caches stay warm for a pipeline's whole lifetime.

_PROCESS_CACHE: Optional[ReferenceIndexCache] = None


def _process_initializer(cache_bytes: int) -> None:
    global _PROCESS_CACHE
    _PROCESS_CACHE = ReferenceIndexCache(cache_bytes)


def _diff_stage(
    job: PipelineJob,
    algorithm: str,
    cache: Optional[ReferenceIndexCache],
    submitted_at: float,
    plan: Optional[FaultPlan] = None,
    attempt: int = 1,
    digest: Optional[str] = None,
) -> Tuple[DeltaScript, float, float, bool, float, List[str], Dict[str, float]]:
    """Run differencing; returns
    ``(script, queue_s, diff_s, cache_hit, submitted_at, faults, counters)``.

    ``plan`` fault sites: ``diff.worker`` fails the attempt;
    ``cache.lookup`` degrades it to cache-less differencing (the fault is
    recorded in ``faults`` but the attempt proceeds).  ``attempt`` is the
    job's 1-based diff call index — passed explicitly so fault decisions
    are identical whether this runs inline, in a thread, or in a worker
    process holding a pickled copy of the plan.

    ``digest`` is the reference's precomputed content digest (shipped in
    a shared-memory descriptor): when given, cache lookups key on it
    directly and the cached artifact is passed to the differ prebuilt,
    so the worker never re-hashes the reference bytes.

    The trailing ``counters`` dict is empty when this runs in the parent
    process (perf counters flow to the active recorder directly); the
    process-pool entry points fill it with the worker-side snapshot.
    """
    if cache is None:
        cache = _PROCESS_CACHE
    # Monotonic, not wall clock: submitted_at crosses process boundaries,
    # and CLOCK_MONOTONIC is system-wide on the supported platforms, so
    # queue/total durations stay immune to wall-clock jumps (NTP steps
    # were skewing the section-7 runtime benches).
    started_wall = time.perf_counter()
    queue_seconds = max(0.0, started_wall - submitted_at)
    faults: List[str] = []
    if plan is not None:
        plan.check("diff.worker", scope=job.name, index=attempt)
    kwargs: Dict[str, object] = {}
    cache_hit = False
    if cache is not None and algorithm in ALGORITHM_KINDS and plan is not None:
        try:
            plan.check("cache.lookup", scope=job.name, index=attempt)
        except ReproError as exc:
            faults.append(describe_failure(exc))
            cache = None  # degrade: diff without the shared index
    use_cache = cache is not None and algorithm in ALGORITHM_KINDS
    if use_cache:
        cache_hit = cache.has(algorithm, job.reference, digest=digest)
        if digest is None:
            kwargs["cache"] = cache
    t0 = time.perf_counter()
    if use_cache and digest is not None:
        # Fetched inside the timed window so diff_seconds accounts the
        # artifact build exactly like the cache-inside-the-differ path.
        kwargs[_ARTIFACT_KWARGS[ALGORITHM_KINDS[algorithm]]] = cache.artifact(
            algorithm, job.reference, digest=digest)
    script = ALGORITHMS[algorithm](job.reference, job.version, **kwargs)
    diff_seconds = time.perf_counter() - t0
    perf.add("pipeline.diff.seconds", diff_seconds)
    perf.add("pipeline.diff.jobs")
    return (script, queue_seconds, diff_seconds, cache_hit,
            submitted_at, faults, {})


def _process_diff_stage(payload: Tuple) -> Tuple:
    """Process-pool entry: run :func:`_diff_stage` with the worker-global
    cache, capturing worker-side perf counters into the result."""
    job, algorithm, submitted_at, plan, attempt = payload
    recorder = perf.PerfRecorder()
    with perf.recording(recorder):
        out = _diff_stage(job, algorithm, None, submitted_at, plan, attempt)
    return out[:6] + (recorder.counters,)


# Worker-side zero-copy mappings of *reference* segments, keyed by
# content digest.  Kept for the worker's lifetime: the cached reference
# artifacts (e.g. a FullSeedIndex) hold views into these mappings, and
# keying by digest lets a re-published identical reference (new segment
# name, same bytes) reuse the existing mapping instead of re-attaching.
# Version segments are mapped transiently per job and closed in the
# entry point's ``finally``.
_SHM_RETAINED: Dict[str, SegmentMapping] = {}


def _retained_reference(descriptor: SharedBufferDescriptor) -> Buffer:
    mapping = _SHM_RETAINED.get(descriptor.digest)
    if mapping is None:
        mapping = SegmentMapping(descriptor)
        _SHM_RETAINED[descriptor.digest] = mapping
    return mapping.buf


def _shm_diff_stage(payload: Tuple) -> Tuple:
    """Process-pool entry for ``"process-shm"``: map the job's buffers
    zero-copy from their shared-memory descriptors and diff.

    The descriptors replace the pickled buffers of ``"process"``; the
    reference digest they carry keys the worker cache, so N versions
    against one reference build the index once per worker.  The emitted
    script carries only materialized ``bytes`` (the builders copy add
    data), so it pickles back to the parent without referencing the
    mapping.
    """
    (name, ref_desc, ver_desc, algorithm,
     submitted_at, plan, attempt) = payload
    recorder = perf.PerfRecorder()
    with perf.recording(recorder):
        reference = _retained_reference(ref_desc)
        # The version is scanned byte-by-byte by the differ hot loops,
        # which run measurably faster on bytes than on a memoryview —
        # one memcpy out of the segment beats paying slice-object
        # overhead across the whole scan.  The multi-megabyte buffer
        # worth keeping zero-copy is the reference.
        version_mapping = SegmentMapping(ver_desc)
        try:
            version = bytes(version_mapping.buf)
        finally:
            version_mapping.close()
        job = PipelineJob(reference, version, name)
        out = _diff_stage(job, algorithm, None, submitted_at,
                          plan, attempt, digest=ref_desc.digest)
    return out[:6] + (recorder.counters,)


@dataclass(frozen=True)
class PipelineConfig:
    """The full serving configuration of a :class:`DeltaPipeline`.

    One frozen value object instead of seventeen keyword arguments:
    build it once, validate it once, share it (``dataclasses.replace``
    derives variants), and hand it to ``DeltaPipeline(config)``.
    ``PipelineConfig()`` reproduces ``DeltaPipeline()`` exactly.

    * ``algorithm``/``policy``/``ordering``/``scratch_budget``/
      ``varint_pricing`` — what to compute: the differencing algorithm
      and the in-place conversion strategy.
    * ``executor``/``diff_workers``/``convert_workers``/``cache``/
      ``cache_bytes`` — where to compute it: pool shape and cache
      budget (``diff_workers``/``convert_workers`` of ``None`` mean one
      per CPU).
    * ``retries``/``fallback``/``stage_timeout``/``backoff_*``/
      ``fault_plan`` — the resilience plane (see :class:`DeltaPipeline`).
    """

    algorithm: str = "correcting"
    policy: str = "local-min"
    ordering: str = "dfs"
    scratch_budget: int = 0
    varint_pricing: bool = True
    executor: str = "thread"
    diff_workers: Optional[int] = None
    convert_workers: Optional[int] = None
    cache: Optional[ReferenceIndexCache] = None
    cache_bytes: int = 128 << 20
    retries: int = 0
    fallback: Tuple[str, ...] = ()
    stage_timeout: Optional[float] = None
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        """Raise ``ValueError`` on any inconsistent field combination."""
        if self.algorithm not in ALGORITHMS:
            raise ValueError(
                "unknown algorithm %r; choose from %s"
                % (self.algorithm, ", ".join(sorted(ALGORITHMS)))
            )
        if self.executor not in EXECUTORS:
            raise ValueError(
                "unknown executor %r; choose from %s"
                % (self.executor, ", ".join(EXECUTORS))
            )
        if self.retries < 0:
            raise ValueError(
                "retries must be non-negative, got %d" % self.retries)
        if self.stage_timeout is not None and self.stage_timeout <= 0:
            raise ValueError("stage_timeout must be positive when set")
        for name in tuple(self.fallback or ()):
            if name != RAW_REWRITE and name not in ALGORITHMS:
                raise ValueError(
                    "unknown fallback %r; choose from %s or %r"
                    % (name, ", ".join(sorted(ALGORITHMS)), RAW_REWRITE)
                )

    def chain(self) -> Tuple[str, ...]:
        """The degradation chain: primary algorithm, then each fallback."""
        return (self.algorithm,) + tuple(self.fallback or ())


def _raw_rewrite_script(version: bytes) -> DeltaScript:
    """A full-rewrite delta: one add covering the whole version.

    Trivially in-place safe (it reads nothing), so it survives any
    differencing failure — the floor of the degradation chain.
    """
    if not version:
        return DeltaScript([], 0)
    return DeltaScript([AddCommand(0, bytes(version))], len(version))


class DeltaPipeline:
    """Fans batches of delta jobs across differencing/conversion pools.

    Construction takes a :class:`PipelineConfig` fixing the serving
    configuration (algorithm, cycle policy, ordering, scratch budget,
    pricing, pool shape, resilience plane); each :meth:`run` call
    processes one batch under it.  The pipeline owns its pools,
    cache and (for ``"process-shm"``) shared-memory arena: reuse one
    instance across batches to keep the cache warm, and close it (or
    use it as a context manager) when done.

    ``varint_pricing`` (default True) prices evictions with
    :func:`~repro.delta.varint.varint_size`, matching the varint wire
    format the pipeline emits; set it False for the paper's legacy
    fixed-4 cost model.

    Resilience knobs (all off by default, so the happy path is
    unchanged):

    * ``retries`` — extra attempts per chain link before moving on.
    * ``fallback`` — algorithm names tried, in order, after the primary
      exhausts its retries; the sentinel ``"raw"`` (see
      :data:`RAW_REWRITE`) emits a full-rewrite delta and cannot fail at
      the differencing stage.
    * ``stage_timeout`` — wall-clock budget per stage; an overrunning
      stage counts as a failed attempt (pooled stages abandon the wait,
      the serial watchdog flags the overrun after the fact).
    * ``backoff_base``/``backoff_factor``/``backoff_jitter`` —
      exponential backoff between a job's attempts, capped at
      :data:`BACKOFF_CAP` seconds; ``backoff_base=0`` (default) disables
      sleeping.  Jitter is a pure function of ``(seed, job name,
      attempt)`` via :func:`~repro.faults.backoff_delay` — the seed is
      the fault plan's when one is installed, else 0 — never shared
      mutable RNG state, so a job's retry timing is identical whichever
      executor (or worker) drives it.
    * ``fault_plan`` — a :class:`~repro.faults.FaultPlan` checked at the
      ``diff.worker``, ``cache.lookup`` and ``convert.evict`` sites.

    Every emitted payload is decoded — re-checking the ``IPD2``
    trailer, segment CRCs and reference digest — before it is handed
    out, recording ``report.integrity == "verified"``; a mismatch fails
    the attempt into the retry machinery.  Quarantined jobs carry
    ``report.quarantine_reason``
    (``"corruption"`` vs ``"transient"``) so operators can tell bad
    data from bad luck.

    Whatever happens, :meth:`run` returns one result per job: failures
    are quarantined into structured results, never raised.
    """

    def __init__(self, config: Optional[PipelineConfig] = None):
        config = config if config is not None else PipelineConfig()
        config.validate()
        self.config = config
        self.algorithm = config.algorithm
        self.policy = config.policy
        self.ordering = config.ordering
        self.scratch_budget = config.scratch_budget
        self.varint_pricing = config.varint_pricing
        self.executor = config.executor
        cpus = os.cpu_count() or 1
        self.diff_workers = config.diff_workers or max(1, cpus)
        self.convert_workers = config.convert_workers or max(1, cpus)
        self.cache_bytes = config.cache_bytes
        self.cache = (config.cache if config.cache is not None
                      else ReferenceIndexCache(config.cache_bytes))
        self.retries = config.retries
        self._chain: Tuple[str, ...] = config.chain()
        self.fallback_chain: Tuple[str, ...] = self._chain[1:]
        self.stage_timeout = config.stage_timeout
        self.backoff_base = config.backoff_base
        self.backoff_factor = config.backoff_factor
        self.backoff_jitter = config.backoff_jitter
        # Jitter derives from the fault plan's seed when one is set, so
        # a seeded fault scenario reproduces its retry timing exactly.
        self._backoff_seed = (config.fault_plan.seed
                              if config.fault_plan is not None else 0)
        self.fault_plan = config.fault_plan
        self._diff_pool: Optional[Executor] = None
        self._convert_pool: Optional[ThreadPoolExecutor] = None
        self._arena: Optional[SharedBufferArena] = None

    # -- pool lifecycle ------------------------------------------------

    def _pools(self) -> Tuple[Executor, ThreadPoolExecutor]:
        if self._diff_pool is None:
            if self.executor in PROCESS_EXECUTORS:
                self._diff_pool = ProcessPoolExecutor(
                    max_workers=self.diff_workers,
                    initializer=_process_initializer,
                    initargs=(self.cache_bytes,),
                )
            else:
                self._diff_pool = ThreadPoolExecutor(
                    max_workers=self.diff_workers,
                    thread_name_prefix="repro-diff",
                )
        if self._convert_pool is None:
            self._convert_pool = ThreadPoolExecutor(
                max_workers=self.convert_workers,
                thread_name_prefix="repro-convert",
            )
        return self._diff_pool, self._convert_pool

    def _ensure_arena(self) -> SharedBufferArena:
        if self._arena is None or self._arena.closed:
            self._arena = SharedBufferArena()
        return self._arena

    def close(self) -> None:
        """Shut down the worker pools and unlink any shared-memory
        segments still published (idempotent)."""
        if self._diff_pool is not None:
            self._diff_pool.shutdown(wait=True)
            self._diff_pool = None
        if self._convert_pool is not None:
            self._convert_pool.shutdown(wait=True)
            self._convert_pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "DeltaPipeline":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- warming -------------------------------------------------------

    def warm(self, references: Iterable[Buffer]) -> int:
        """Pre-build the in-process cache for ``references``.

        Returns the number of references now covered.  Warms the shared
        cache used by the serial and thread executors; the process
        executors' workers warm their own caches on first contact with
        each reference, so warming here does not reach them.
        """
        count = 0
        for reference in references:
            if self.cache.warm(self.algorithm, bytes(reference)):
                count += 1
        return count

    # -- execution -----------------------------------------------------

    def _convert_stage(
        self,
        job: PipelineJob,
        script: DeltaScript,
        queue_seconds: float,
        diff_seconds: float,
        cache_hit: bool,
        submitted_at: float,
    ) -> PipelineResult:
        pricing = varint_size if self.varint_pricing else 4
        t0 = time.perf_counter()
        converted = make_in_place(
            script,
            job.reference,
            policy=self.policy,
            ordering=self.ordering,
            scratch_budget=self.scratch_budget,
            offset_encoding_size=pricing,
        )
        convert_seconds = time.perf_counter() - t0
        perf.add("pipeline.convert.seconds", convert_seconds)
        t0 = time.perf_counter()
        payload = encode_delta(
            converted.script,
            FORMAT_INPLACE,
            version_crc32=version_checksum(job.version),
            reference=job.reference,
        )
        encode_seconds = time.perf_counter() - t0
        perf.add("pipeline.encode.seconds", encode_seconds)
        # Decode the bytes we are about to hand out: this re-checks the
        # trailer and every segment CRC, then the reference digest
        # against the job's own reference.  Any mismatch raises into the
        # retry machinery instead of shipping a payload that would brick
        # an in-place device.
        _script, header = decode_delta(payload)
        verify_reference(header, job.reference)
        report = PipelineReport(
            name=job.name,
            algorithm=self.algorithm,
            policy=self.policy,
            executor=self.executor,
            cache_hit=cache_hit,
            queue_seconds=queue_seconds,
            diff_seconds=diff_seconds,
            convert_seconds=convert_seconds,
            encode_seconds=encode_seconds,
            total_seconds=max(0.0, time.perf_counter() - submitted_at),
            version_bytes=len(job.version),
            delta_bytes=len(payload),
            conversion=converted.report,
            integrity="verified",
        )
        return PipelineResult(payload=payload, script=converted.script,
                              report=report)

    # -- resilience machinery ------------------------------------------

    def _overran(self, t0: float) -> bool:
        return (self.stage_timeout is not None
                and (time.perf_counter() - t0) > self.stage_timeout)

    def _timeout_failure(self, stage: str) -> str:
        return ("StageTimeoutError: %s stage exceeded %gs budget"
                % (stage, self.stage_timeout))

    def _backoff(self, attempt: int, scope: str) -> None:
        """Sleep before the next attempt (exponential, jittered).

        :func:`~repro.faults.backoff_delay` draws the jitter over
        ``(seed, scope, attempt)`` — a pure function, no shared RNG — so
        a job's retry schedule is byte-reproducible from its fault seed
        regardless of executor mode or sibling jobs' retries.
        """
        if self.backoff_base > 0.0:
            time.sleep(backoff_delay(
                attempt, self.backoff_base, self.backoff_factor,
                cap=BACKOFF_CAP, jitter=self.backoff_jitter,
                seed=self._backoff_seed, scope=scope))

    def _diff_attempt(self, job: PipelineJob, algorithm: str, index: int) -> Tuple:
        """One inline diff attempt; ``("ok", stage_tuple)`` or
        ``("error", failure_string)`` — never raises."""
        submitted = time.perf_counter()
        if algorithm == RAW_REWRITE:
            t0 = time.perf_counter()
            script = _raw_rewrite_script(job.version)
            return ("ok", (script, 0.0, time.perf_counter() - t0, False,
                           submitted, [], {}))
        t0 = time.perf_counter()
        try:
            out = _diff_stage(job, algorithm, self.cache, submitted,
                              self.fault_plan, index)
        except Exception as exc:
            return ("error", describe_failure(exc))
        if self._overran(t0):
            return ("error", self._timeout_failure("diff"))
        return ("ok", out)

    def _await_diff(self, fut) -> Tuple:
        """Resolve a pooled attempt-1 diff future into an outcome tuple."""
        try:
            if self.stage_timeout is not None:
                out = fut.result(timeout=self.stage_timeout)
            else:
                out = fut.result()
        except FuturesTimeoutError:
            return ("error", self._timeout_failure("diff"))
        except Exception as exc:
            return ("error", describe_failure(exc))
        return ("ok", out)

    def _drive_job(self, job: PipelineJob, first: Tuple) -> PipelineResult:
        """Take one job from its attempt-1 diff outcome to a result.

        Walks the degradation chain (primary, then each ``fallback``
        link), giving every link ``retries + 1`` attempts; each attempt
        re-diffs (except ``"raw"``, which is rebuilt for free) and then
        converts + encodes.  Exhausting the chain quarantines the job
        into a structured failure result.  Never raises.
        """
        trace: List[str] = []
        faults: List[str] = []
        attempts = 0
        diff_calls = 1  # attempt 1 of the primary was already issued
        convert_calls = 0
        last_failure = ""
        outcome: Optional[Tuple] = first
        for link_no, algo in enumerate(self._chain):
            if link_no:
                trace.append("%s: falling back %s -> %s"
                             % (job.name, self._chain[link_no - 1], algo))
            for _retry in range(self.retries + 1):
                attempts += 1
                if outcome is None:
                    if algo != RAW_REWRITE:
                        diff_calls += 1
                    outcome = self._diff_attempt(job, algo, diff_calls)
                kind, payload = outcome
                outcome = None
                if kind == "error":
                    last_failure = payload
                    faults.append(payload)
                    trace.append("%s: %s attempt %d diff failed: %s"
                                 % (job.name, algo, attempts, payload))
                    self._backoff(attempts, job.name)
                    continue
                (script, queue_s, diff_s, hit, submitted, stage_faults,
                 worker_counters) = payload
                perf.merge(worker_counters)
                for fault in stage_faults:
                    faults.append(fault)
                    trace.append("%s: cache bypassed: %s" % (job.name, fault))
                failure: Optional[str] = None
                result: Optional[PipelineResult] = None
                convert_calls += 1
                t0 = time.perf_counter()
                try:
                    if self.fault_plan is not None:
                        self.fault_plan.check("convert.evict", scope=job.name,
                                              index=convert_calls)
                    result = self._convert_stage(job, script, queue_s, diff_s,
                                                 hit, submitted)
                except Exception as exc:
                    failure = describe_failure(exc)
                if failure is None and self._overran(t0):
                    failure = self._timeout_failure("convert")
                if failure is not None:
                    last_failure = failure
                    faults.append(failure)
                    trace.append("%s: %s attempt %d convert failed: %s"
                                 % (job.name, algo, attempts, failure))
                    self._backoff(attempts, job.name)
                    continue
                trace.append("%s: ok via %s (attempt %d)"
                             % (job.name, algo, attempts))
                report = result.report
                report.attempts = attempts
                report.faults = faults
                report.fallback = algo if link_no else ""
                report.trace = trace
                return result
        reason = classify_failure(last_failure) or "transient"
        trace.append("%s: quarantined (%s) after %d attempts: %s"
                     % (job.name, reason, attempts, last_failure))
        report = PipelineReport(
            name=job.name,
            algorithm=self.algorithm,
            policy=self.policy,
            executor=self.executor,
            version_bytes=len(job.version),
            attempts=attempts,
            faults=faults,
            quarantined=True,
            failure=last_failure,
            quarantine_reason=reason,
            trace=trace,
        )
        return PipelineResult(payload=b"", script=DeltaScript(), report=report)

    def run(self, jobs: Sequence[PipelineJob]) -> BatchReport:
        """Process ``jobs`` and return per-job results plus batch stats.

        Results are returned in submission order regardless of
        completion order, one per job *unconditionally*: failing jobs
        come back quarantined, not raised.  Jobs flow diff -> convert ->
        encode with no barrier between stages: a job converts as soon as
        its own diff finishes.  Retry and fallback attempts run where
        the job's conversion runs (inline for the serial executor, in
        the conversion pool otherwise), so one poison job never stalls
        the rest of the batch's differencing.
        """
        jobs = list(jobs)
        batch = BatchReport()
        wall_start = time.perf_counter()
        pending: List = []
        published: List[SharedBufferDescriptor] = []
        arena: Optional[SharedBufferArena] = None
        try:
            if self.executor == "serial":
                for job in jobs:
                    first = self._diff_attempt(job, self.algorithm, 1)
                    batch.results.append(self._drive_job(job, first))
            else:
                diff_pool, convert_pool = self._pools()
                in_process = self.executor in PROCESS_EXECUTORS
                shared_cache = None if in_process else self.cache
                if self.executor == "process-shm":
                    arena = self._ensure_arena()
                first_futs = []
                for job in jobs:
                    submitted = time.perf_counter()
                    if self.executor == "process-shm":
                        # Publish once per distinct reference (the arena
                        # dedupes by content digest and refcounts), once
                        # per version; workers get tiny descriptors
                        # instead of the pickled buffers.
                        ref_desc = arena.publish(job.reference)
                        published.append(ref_desc)
                        ver_desc = arena.publish(job.version, dedupe=False)
                        published.append(ver_desc)
                        fut = diff_pool.submit(
                            _shm_diff_stage,
                            (job.name, ref_desc, ver_desc, self.algorithm,
                             submitted, self.fault_plan, 1),
                        )
                    elif self.executor == "process":
                        fut = diff_pool.submit(
                            _process_diff_stage,
                            (job, self.algorithm, submitted,
                             self.fault_plan, 1),
                        )
                    else:
                        fut = diff_pool.submit(
                            _diff_stage, job, self.algorithm,
                            shared_cache, submitted, self.fault_plan, 1,
                        )
                    pending.append(fut)
                    first_futs.append((job, fut))
                # Chain each diff into a driver task as it completes;
                # waiting on the diff future here (in submission order)
                # still lets later diffs and earlier conversions overlap
                # freely.
                drive_futs = []
                for job, fut in first_futs:
                    first = self._await_diff(fut)
                    dfut = convert_pool.submit(self._drive_job, job, first)
                    pending.append(dfut)
                    drive_futs.append(dfut)
                for dfut in drive_futs:
                    batch.results.append(dfut.result())
        finally:
            # A failure (or KeyboardInterrupt) mid-batch must not leave
            # orphaned work queued in the pools: cancel whatever has not
            # started so a subsequent close() cannot hang on it.
            for fut in pending:
                fut.cancel()
            # Drop every segment this batch published, whatever happened
            # above — quarantines, timeouts and injected faults included.
            # Workers only hold mappings, never names, so releasing to
            # refcount zero unlinks the segment; nothing survives in
            # /dev/shm past the batch.
            if arena is not None:
                for desc in published:
                    arena.release(desc)
        batch.wall_seconds = time.perf_counter() - wall_start
        batch.cache_hits = sum(1 for r in batch.results if r.report.cache_hit)
        if self.executor not in PROCESS_EXECUTORS:
            batch.cache_stats = self.cache.stats
        return batch

    def run_pairs(
        self,
        pairs: Iterable[Tuple[Buffer, Buffer]],
        names: Optional[Sequence[str]] = None,
    ) -> BatchReport:
        """Convenience wrapper: run a batch of (reference, version) tuples."""
        jobs = []
        for i, (reference, version) in enumerate(pairs):
            name = names[i] if names else "job-%d" % i
            jobs.append(PipelineJob(bytes(reference), bytes(version), name))
        return self.run(jobs)
