"""Batch delta pipeline: fan (reference, version) jobs across workers.

The serving shape this targets is one reference diffed against many
versions (a release pushed to a fleet, a mirror syncing a directory of
histories).  Each :class:`PipelineJob` runs the full per-client path —
differencing, in-place conversion, wire encoding, a decode self-check —
and returns a :class:`PipelineResult` whose :class:`PipelineReport`
carries stage and queue timings, the per-job cache outcome, and the
converter's :class:`~repro.core.convert.ConversionReport`.

One function, :func:`_run_job`, runs a job's whole life: every diff
attempt, conversion, encode, self-check, retry, fallback link, backoff
and quarantine.  Each of the four executors runs it as one task per
job, on at most one pool:

* ``"serial"`` — calls it inline, no pool; the baseline the benches
  compare against.
* ``"thread"`` — maps it over one thread pool whose workers share one
  :class:`~repro.pipeline.cache.ReferenceIndexCache`.  CPython's GIL
  serializes the pure-Python compute, so the win here is the cache (the
  reference index is built once per batch instead of once per job) plus
  overlap of any releasing operations.
* ``"process"`` — maps it over one process pool (true parallelism on
  multi-core hosts).  Each worker process holds its own cache, kept
  warm because the pool persists across :meth:`DeltaPipeline.run`
  calls; the job's reference and version bytes reach the worker by
  pickling, and its result comes back the same way.
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

Worker processes run each job under a local
:class:`~repro.perf.PerfRecorder` and ship the counter snapshot back
with the result; the parent merges it into whatever recorder its batch
runs under, so ``repro.perf`` telemetry from ``"process"`` and
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
traces across runs and executor modes.  A job whose worker process
dies counts the loss as its failed first attempt and runs its retries
and fallback inline in the parent; the broken pool is replaced for the
next batch.

By default the pipeline prices evictions with
:func:`~repro.delta.varint.varint_size` — the pricing that matches the
varint wire format it encodes (``FORMAT_INPLACE``) — so every
``eviction_cost`` it reports is the exact encoded-size growth of the
conversion.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from .. import perf
from ..core.apply import verify_reference
from ..core.commands import AddCommand, DeltaScript
from ..core.convert import ConversionReport, InPlaceResult, make_in_place
from ..delta import (
    ALGORITHMS,
    FORMAT_INPLACE,
    decode_delta,
    encode_delta,
    version_checksum,
)
from ..delta.varint import varint_size
from ..exceptions import ReproError, StageTimeoutError
from ..faults import FaultPlan, backoff_delay, describe_failure
from ..records import content_digest
from .cache import ARTIFACT_KEYWORDS, CacheStats, ReferenceIndexCache
from .shm import SegmentMapping, SharedBufferArena, SharedBufferDescriptor

Buffer = Union[bytes, bytearray, memoryview]

EXECUTORS = ("serial", "thread", "process", "process-shm")

#: Executors whose jobs run in worker *processes* (their caches live per
#: worker; the parent cannot observe them directly).
PROCESS_EXECUTORS = ("process", "process-shm")

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
    #: Whether the reference artifact was already cached when the
    #: successful diff started (best-effort under concurrency).
    cache_hit: bool = False
    #: Seconds between the job's submission and its start (wall clock,
    #: comparable across processes).
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
        per-job reports.  For a fixed fault seed it is identical across
        executor modes except ``wall_seconds``, ``compute_seconds`` and
        ``cache_hits``: each worker process fills its own cache, and
        jobs running side by side can all miss a reference none of them
        has built yet.
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


@dataclass(frozen=True)
class PipelineConfig:
    """The full serving configuration of a :class:`DeltaPipeline`.

    One frozen value object instead of fourteen keyword arguments:
    build it once, validate it once, share it (``dataclasses.replace``
    derives variants), and hand it to ``DeltaPipeline(config)``.
    ``PipelineConfig()`` reproduces ``DeltaPipeline()`` exactly.

    * ``algorithm``/``policy``/``ordering``/``scratch_budget``/
      ``varint_pricing`` — what to compute: the differencing algorithm
      and the in-place conversion strategy.
    * ``executor``/``workers``/``cache_bytes`` — where to compute it:
      pool shape and cache budget (``workers`` of ``None`` means one
      per CPU).
    * ``retries``/``fallback``/``stage_timeout``/``backoff_base``/
      ``fault_plan`` — the resilience plane (see :class:`DeltaPipeline`).
    """

    algorithm: str = "correcting"
    policy: str = "local-min"
    ordering: str = "dfs"
    scratch_budget: int = 0
    varint_pricing: bool = True
    executor: str = "thread"
    workers: Optional[int] = None
    cache_bytes: int = 128 << 20
    retries: int = 0
    fallback: Tuple[str, ...] = ()
    stage_timeout: Optional[float] = None
    backoff_base: float = 0.0
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


# -- one job, end to end -----------------------------------------------


def _check_budget(config: PipelineConfig, stage: str, t0: float) -> None:
    """Fail the attempt if ``stage``, started at ``t0``, overran
    ``stage_timeout``: checked after it returns, as nothing preempts it."""
    if (config.stage_timeout is not None
            and time.perf_counter() - t0 > config.stage_timeout):
        raise StageTimeoutError("%s stage exceeded %gs budget"
                                % (stage, config.stage_timeout))


def _diff(job: PipelineJob, algorithm: str, config: PipelineConfig,
          cache: Optional[ReferenceIndexCache], index: int,
          digest: Optional[str]) -> Tuple[DeltaScript, float, bool, List[str]]:
    """One diff attempt; returns ``(script, diff_s, cache_hit, bypassed)``.

    Fault sites: ``diff.worker`` fails the attempt; ``cache.lookup``
    degrades it to cache-less differencing (the fault lands in
    ``bypassed`` and the attempt proceeds).  ``index`` is the job's
    1-based diff call count, so fault decisions do not depend on where
    the job runs.

    ``"raw"`` builds a full-rewrite script instead: one add covering the
    whole version, in-place safe as it reads nothing, with no fault site.

    With a ``cache``, the differ takes the reference's artifact from it
    prebuilt (``index=``, ``table=`` or ``fingerprints=``), keyed by the
    reference's content digest: ``digest`` when given (a shared-memory
    descriptor carries it), else hashed here, once per attempt.  The
    correcting differ also takes the version's cached fingerprint array
    as ``version_fingerprints=``, so an image the cache has seen as
    either side of an earlier diff is not fingerprinted again.
    """
    t0 = time.perf_counter()
    if algorithm == RAW_REWRITE:
        adds = [AddCommand(0, bytes(job.version))] if job.version else []
        script = DeltaScript(adds, len(job.version))
        return script, time.perf_counter() - t0, False, []
    plan = config.fault_plan
    if plan is not None:
        plan.check("diff.worker", scope=job.name, index=index)
    bypassed: List[str] = []
    if algorithm not in ARTIFACT_KEYWORDS:
        cache = None
    if cache is not None and plan is not None:
        try:
            plan.check("cache.lookup", scope=job.name, index=index)
        except ReproError as exc:
            bypassed.append(describe_failure(exc))
            cache = None  # degrade: diff without the shared index
    cache_hit = False
    if cache is not None:
        digest = digest or content_digest(job.reference)
        cache_hit = cache.has(algorithm, job.reference, digest=digest)
    kwargs: Dict[str, object] = {}
    t_diff = time.perf_counter()
    if cache is not None:
        # Fetched inside the timed window, so diff_seconds includes a
        # cold artifact build.
        kwargs[ARTIFACT_KEYWORDS[algorithm]] = cache.artifact(
            algorithm, job.reference, digest=digest)
        if algorithm == "correcting":
            kwargs["version_fingerprints"] = cache.fingerprints(job.version)
    script = ALGORITHMS[algorithm](job.reference, job.version, **kwargs)
    diff_seconds = time.perf_counter() - t_diff
    perf.add("pipeline.diff.seconds", diff_seconds)
    perf.add("pipeline.diff.jobs")
    _check_budget(config, "diff", t0)
    return script, diff_seconds, cache_hit, bypassed


def _encode(job: PipelineJob, script: DeltaScript, config: PipelineConfig,
            index: int) -> Tuple[InPlaceResult, bytes, float, float]:
    """Convert ``script`` in place, encode it and decode it back; returns
    ``(converted, payload, convert_s, encode_s)``.  ``convert.evict``
    fails the attempt at the job's ``index``-th conversion."""
    t0 = time.perf_counter()
    if config.fault_plan is not None:
        config.fault_plan.check("convert.evict", scope=job.name, index=index)
    t_convert = time.perf_counter()
    converted = make_in_place(
        script,
        job.reference,
        policy=config.policy,
        ordering=config.ordering,
        scratch_budget=config.scratch_budget,
        offset_encoding_size=varint_size if config.varint_pricing else 4,
    )
    convert_seconds = time.perf_counter() - t_convert
    perf.add("pipeline.convert.seconds", convert_seconds)
    t_encode = time.perf_counter()
    payload = encode_delta(
        converted.script,
        FORMAT_INPLACE,
        version_crc32=version_checksum(job.version),
        reference=job.reference,
    )
    encode_seconds = time.perf_counter() - t_encode
    perf.add("pipeline.encode.seconds", encode_seconds)
    # Decode the bytes we are about to hand out: this re-checks the
    # trailer and every segment CRC, then the reference digest against
    # the job's own reference.  Any mismatch fails the attempt instead
    # of shipping a payload that would brick an in-place device.
    _script, header = decode_delta(payload)
    verify_reference(header, job.reference)
    _check_budget(config, "convert", t0)
    return converted, payload, convert_seconds, encode_seconds


def _run_job(job: PipelineJob, config: PipelineConfig,
             cache: Optional[ReferenceIndexCache], submitted_at: float,
             digest: Optional[str] = None, lost: str = "") -> PipelineResult:
    """Run one job's whole life and return its result; never raises.

    Walks the degradation chain (primary, then each ``fallback`` link),
    giving every link ``retries + 1`` attempts.  An attempt diffs,
    converts, encodes and decodes the payload back; a failure in any of
    them, or a stage that overran ``stage_timeout``, fails the attempt
    and backs off before the next; the last attempt waits for nothing.
    Exhausting the chain quarantines the job into a structured failure
    result.

    ``cache`` serves the diffs (``None`` diffs cold) and ``digest``, when
    given, keys it without hashing the reference (see :func:`_diff`).
    ``lost`` is the failure of a first attempt that a process pool lost
    with its worker: it is recorded as attempt 1 and the walk goes on
    from attempt 2.
    """
    # Monotonic, not wall clock: submitted_at crosses process boundaries,
    # and CLOCK_MONOTONIC is system-wide on the supported platforms, so
    # queue/total durations stay immune to wall-clock jumps (NTP steps
    # were skewing the section-7 runtime benches).
    queue_seconds = max(0.0, time.perf_counter() - submitted_at)
    plan = config.fault_plan
    chain = config.chain()
    trace: List[str] = []
    faults: List[str] = []
    attempts = diff_calls = convert_calls = 0
    last_attempt = len(chain) * (config.retries + 1)
    failure = ""
    for link_no, algo in enumerate(chain):
        if link_no:
            trace.append("%s: falling back %s -> %s"
                         % (job.name, chain[link_no - 1], algo))
        for _retry in range(config.retries + 1):
            attempts += 1
            if algo != RAW_REWRITE:
                diff_calls += 1
            stage, failure, lost = "diff", lost, ""
            if not failure:
                try:
                    script, diff_s, hit, bypassed = _diff(
                        job, algo, config, cache, diff_calls, digest)
                    for fault in bypassed:
                        faults.append(fault)
                        trace.append("%s: cache bypassed: %s"
                                     % (job.name, fault))
                    stage = "convert"
                    convert_calls += 1
                    converted, payload, convert_s, encode_s = _encode(
                        job, script, config, convert_calls)
                except Exception as exc:
                    failure = describe_failure(exc)
            if failure:
                faults.append(failure)
                trace.append("%s: %s attempt %d %s failed: %s"
                             % (job.name, algo, attempts, stage, failure))
                if config.backoff_base > 0.0 and attempts < last_attempt:
                    # Only a wait with an attempt after it.  Jitter is a
                    # pure function of (seed, job, attempt), with no
                    # shared RNG, so a job's retry schedule is the same
                    # on every executor and beside any sibling jobs.
                    time.sleep(backoff_delay(
                        attempts, config.backoff_base, BACKOFF_CAP,
                        seed=plan.seed if plan is not None else 0,
                        scope=job.name))
                continue
            trace.append("%s: ok via %s (attempt %d)"
                         % (job.name, algo, attempts))
            report = PipelineReport(
                job.name, config.algorithm, config.policy, config.executor,
                cache_hit=hit, queue_seconds=queue_seconds,
                diff_seconds=diff_s, convert_seconds=convert_s,
                encode_seconds=encode_s,
                total_seconds=max(0.0, time.perf_counter() - submitted_at),
                version_bytes=len(job.version), delta_bytes=len(payload),
                conversion=converted.report, attempts=attempts, faults=faults,
                fallback=algo if link_no else "", integrity="verified",
                trace=trace)
            return PipelineResult(payload, converted.script, report)
    reason = classify_failure(failure) or "transient"
    trace.append("%s: quarantined (%s) after %d attempts: %s"
                 % (job.name, reason, attempts, failure))
    report = PipelineReport(
        job.name, config.algorithm, config.policy, config.executor,
        version_bytes=len(job.version), attempts=attempts, faults=faults,
        quarantined=True, failure=failure, quarantine_reason=reason,
        trace=trace)
    return PipelineResult(b"", DeltaScript(), report)


# -- process-pool workers ----------------------------------------------
#
# Worker processes keep a module-global cache so repeated jobs against
# one reference amortize index construction exactly like threads do,
# just per-process.  The pool persists across run() calls, so the
# caches stay warm for a pipeline's whole lifetime.

_PROCESS_CACHE: Optional[ReferenceIndexCache] = None


def _process_initializer(cache_bytes: int) -> None:
    global _PROCESS_CACHE
    _PROCESS_CACHE = ReferenceIndexCache(cache_bytes)


def _process_job(job: PipelineJob, config: PipelineConfig,
                 submitted_at: float, digest: Optional[str] = None
                 ) -> Tuple[PipelineResult, Dict[str, float]]:
    """Process-pool entry for ``"process"``: run :func:`_run_job` with the
    worker-global cache; returns the result and the worker's counters."""
    recorder = perf.PerfRecorder()
    with perf.recording(recorder):
        result = _run_job(job, config, _PROCESS_CACHE, submitted_at, digest)
    return result, recorder.counters


# Worker-side zero-copy mappings of *reference* segments, keyed by
# content digest.  Kept for the worker's lifetime: the cached reference
# artifacts (e.g. a FullSeedIndex) hold views into these mappings, and
# keying by digest lets a re-published identical reference (new segment
# name, same bytes) reuse the existing mapping instead of re-attaching.
# Version segments are mapped transiently per job and closed in the
# entry point's ``finally``.
_SHM_RETAINED: Dict[str, SegmentMapping] = {}


def _shm_job(name: str, ref_desc: SharedBufferDescriptor,
             ver_desc: SharedBufferDescriptor, config: PipelineConfig,
             submitted_at: float) -> Tuple[PipelineResult, Dict[str, float]]:
    """Process-pool entry for ``"process-shm"``: map the job's buffers
    zero-copy from their shared-memory descriptors and run it.

    The descriptors replace the pickled buffers of ``"process"``; the
    reference digest they carry keys the worker cache, so N versions
    against one reference build the index once per worker.  The result
    carries only materialized ``bytes`` (the differs copy add data and
    the converter copies evicted reference bytes), so it pickles back to
    the parent without referencing the mapping.
    """
    mapping = _SHM_RETAINED.get(ref_desc.digest)
    if mapping is None:
        mapping = _SHM_RETAINED[ref_desc.digest] = SegmentMapping(ref_desc)
    # The version is scanned byte-by-byte by the differ hot loops,
    # which run measurably faster on bytes than on a memoryview — one
    # memcpy out of the segment beats paying slice-object overhead
    # across the whole scan.  The multi-megabyte buffer worth keeping
    # zero-copy is the reference.
    version_mapping = SegmentMapping(ver_desc)
    try:
        version = bytes(version_mapping.buf)
    finally:
        version_mapping.close()
    return _process_job(PipelineJob(mapping.buf, version, name), config,
                        submitted_at, ref_desc.digest)


class DeltaPipeline:
    """Runs batches of delta jobs, one task per job, on at most one pool.

    Construction takes a :class:`PipelineConfig` fixing the serving
    configuration (algorithm, cycle policy, ordering, scratch budget,
    pricing, pool shape, resilience plane); each :meth:`run` call
    processes one batch under it.  The pipeline owns its pool, cache
    and (for ``"process-shm"``) shared-memory arena: reuse one instance
    across batches to keep the cache warm, and close it (or use it as a
    context manager) when done.

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
    * ``stage_timeout`` — wall-clock budget per stage; a stage that
      overran it counts as a failed attempt.  The check runs where the
      stage ran, after it returns, on every executor.
    * ``backoff_base`` — first delay of the retry rule
      (:func:`~repro.faults.backoff_delay`) between a job's attempts,
      capped at :data:`BACKOFF_CAP` seconds; ``backoff_base=0``
      (default) disables sleeping.  Jitter is drawn from the fault
      plan's seed (0 without a plan), the job name and the attempt, so
      a job's retry timing is identical whichever executor (or worker)
      drives it.
    * ``fault_plan`` — a :class:`~repro.faults.FaultPlan` checked at the
      ``diff.worker``, ``cache.lookup`` and ``convert.evict`` sites.

    Every emitted payload is decoded — re-checking the ``IPD2``
    trailer, segment CRCs and reference digest — before it is handed
    out, recording ``report.integrity == "verified"``; a mismatch fails
    the attempt into the retry machinery.  Quarantined jobs carry
    ``report.quarantine_reason`` (``"corruption"`` vs ``"transient"``)
    so operators can tell bad data from bad luck.

    Whatever happens, :meth:`run` returns one result per job: failures
    are quarantined into structured results, never raised.
    """

    def __init__(self, config: Optional[PipelineConfig] = None):
        config = config if config is not None else PipelineConfig()
        config.validate()
        self.config = config
        self.executor = config.executor
        self.workers = config.workers or os.cpu_count() or 1
        self.cache = ReferenceIndexCache(config.cache_bytes)
        self._pool: Optional[Executor] = None
        self._arena: Optional[SharedBufferArena] = None

    def close(self) -> None:
        """Shut down the worker pool and unlink any shared-memory
        segments still published (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None

    def __enter__(self) -> "DeltaPipeline":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def warm(self, references: Iterable[Buffer]) -> int:
        """Pre-build the in-process cache for ``references``.

        Returns the number of references now covered.  Warms the shared
        cache used by the serial and thread executors; the process
        executors' workers warm their own caches on first contact with
        each reference, so warming here does not reach them.
        """
        count = 0
        for reference in references:
            if self.cache.warm(self.config.algorithm, bytes(reference)):
                count += 1
        return count

    def run(self, jobs: Sequence[PipelineJob]) -> BatchReport:
        """Process ``jobs`` and return per-job results plus batch stats.

        Results are returned in submission order regardless of
        completion order, one per job *unconditionally*: failing jobs
        come back quarantined, not raised.  Each job runs end to end —
        diff, convert, encode, self-check, every retry and fallback — as
        one task (see :func:`_run_job`), so a poison job holds one
        worker and never stalls the rest of the batch.
        """
        jobs = list(jobs)
        batch = BatchReport()
        wall_start = time.perf_counter()
        if self.executor == "serial":
            batch.results = [
                _run_job(job, self.config, self.cache, time.perf_counter())
                for job in jobs
            ]
        else:
            batch.results = self._run_pooled(jobs)
        batch.wall_seconds = time.perf_counter() - wall_start
        batch.cache_hits = sum(1 for r in batch.results if r.report.cache_hit)
        if self.executor not in PROCESS_EXECUTORS:
            batch.cache_stats = self.cache.stats
        return batch

    def _run_pooled(self, jobs: List[PipelineJob]) -> List[PipelineResult]:
        """Submit every job as one task, then collect in submission order.

        A job the pool loses (refused at submit or failed at result, as
        when its worker process dies) counts the loss as its failed first
        attempt and finishes inline; the next batch replaces a broken pool.
        """
        if self._pool is None:
            if self.executor in PROCESS_EXECUTORS:
                self._pool = ProcessPoolExecutor(
                    self.workers, initializer=_process_initializer,
                    initargs=(self.config.cache_bytes,))
            else:
                self._pool = ThreadPoolExecutor(
                    self.workers, thread_name_prefix="repro-pipeline")
        pool = self._pool
        if self.executor == "process-shm" and (
                self._arena is None or self._arena.closed):
            self._arena = SharedBufferArena()
        tasks: List[Tuple[PipelineJob, float, Future]] = []
        published: List[SharedBufferDescriptor] = []
        results: List[PipelineResult] = []
        broken = False
        try:
            for job in jobs:
                submitted = time.perf_counter()
                try:
                    if self.executor == "thread":
                        fut = pool.submit(_run_job, job, self.config,
                                          self.cache, submitted)
                    elif self.executor == "process":
                        fut = pool.submit(_process_job, job, self.config,
                                          submitted)
                    else:
                        # Publish once per distinct reference (the arena
                        # dedupes by content digest and refcounts), once
                        # per version; workers get tiny descriptors
                        # instead of the pickled buffers.
                        ref_desc = self._arena.publish(job.reference)
                        published.append(ref_desc)
                        ver_desc = self._arena.publish(job.version,
                                                       dedupe=False)
                        published.append(ver_desc)
                        fut = pool.submit(_shm_job, job.name, ref_desc,
                                          ver_desc, self.config, submitted)
                except Exception as exc:
                    fut = Future()
                    fut.set_exception(exc)
                tasks.append((job, submitted, fut))
            for job, submitted, fut in tasks:
                try:
                    result = fut.result()
                except Exception as exc:
                    broken = broken or isinstance(exc, BrokenExecutor)
                    result = _run_job(job, self.config, self.cache, submitted,
                                      lost=describe_failure(exc))
                else:
                    if self.executor in PROCESS_EXECUTORS:
                        result, counters = result
                        perf.merge(counters)
                results.append(result)
        finally:
            # A failure (or KeyboardInterrupt) mid-batch must not leave
            # orphaned work queued in the pool: cancel whatever has not
            # started so a subsequent close() cannot hang on it.
            for _job, _submitted, fut in tasks:
                fut.cancel()
            # Drop every segment this batch published, whatever happened
            # above — quarantines, timeouts and injected faults included.
            # Workers only hold mappings, never names, so releasing to
            # refcount zero unlinks the segment; nothing survives in
            # /dev/shm past the batch.
            for desc in published:
                self._arena.release(desc)
            if broken:
                self._pool = None
                pool.shutdown(wait=True)
        return results
