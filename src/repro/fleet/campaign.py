"""The campaign driver: push one release train to a whole fleet.

This is the paper's distribution scenario at operational scale: a
server holds release chains, a heterogeneous fleet (see
:mod:`repro.fleet.devices`) holds assorted stale versions, and the
campaign drives every device through the *real* update stack —
:func:`repro.device.updater.run_journaled_session` with its journaled,
power-cut-resumable applier — while a
:class:`~repro.faults.FaultPlan` injects mid-update power cuts,
corrupted/truncated downloads and flaky links.

Design for scale and determinism:

* **Cohorts, not devices, pay for encoding.**  Devices are grouped by
  ``(package, have)``; each cohort's payload is built once and replayed
  against every member.  The ``"compose"`` encode policy publishes the
  train into a :class:`~repro.store.VersionStore` (a throwaway
  :class:`~repro.store.PackStore` unless the caller passes one) and
  takes each payload from its :meth:`~repro.store.VersionStore.chain`,
  which collapses the stored per-hop deltas with
  :func:`repro.core.compose.compose_chain` (one composition per stale
  cohort, no O(versions²) diff matrix); the ``"direct"`` policy
  re-diffs ``have`` against ``want`` through a
  :class:`~repro.pipeline.DeltaPipeline`, whose
  :meth:`~repro.pipeline.BatchReport.summary` lands in the report —
  the same ``repro.pipeline.batch/1`` schema ``ipdelta pipeline
  --json`` emits.

* **Every fault decision is device-scoped and pure.**  A device's
  session uses its name as the fault scope and an RNG seeded from
  ``(seed, device, session)``; nothing reads shared mutable state, so
  the same seed yields identical per-device outcomes — and therefore
  identical aggregate counters — whether the stage runs serially, on a
  thread pool, or across worker processes.

* **Staged rollout with abort thresholds.**  Devices are shuffled
  deterministically and released in waves (``RolloutPolicy.stages``
  fractions); a wave whose quarantine rate exceeds
  ``abort_threshold`` stops the campaign and defers every remaining
  device with a structured reason.  Transient session failures retry
  up to ``retry_budget`` additional sessions before quarantining.

* **Zero silent failures.**  Every device ends ``updated`` (verified
  byte-exact against the release image), ``quarantined`` (structured
  reason + corruption/transient kind) or ``deferred`` (structured
  reason); the report's serializer enforces it.
"""

from __future__ import annotations

import random
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .. import perf
from ..delta import ALGORITHMS
from ..device.channel import get_channel
from ..device.updater import run_journaled_session
from ..exceptions import ReproError
from ..faults import FaultPlan, describe_failure
from ..pipeline import DeltaPipeline, PipelineConfig, PipelineJob
from ..store import PackStore, StoreConfig, VersionStore
from .devices import DeviceSpec
from .report import CampaignReport, DeviceOutcome, StageReport

#: Campaign executors.  ``"process"`` ships cohort chunks to worker
#: processes; determinism holds because per-device fault decisions are
#: pure functions of ``(plan seed, site, device name, index)``.
CAMPAIGN_EXECUTORS = ("serial", "thread", "process")

#: Devices per executor task: a wave's cohort is sliced into chunks of
#: at most this many devices, each run by one :func:`_run_chunk`.
CHUNK_DEVICES = 64

ENCODE_POLICIES = ("compose", "direct")


@dataclass(frozen=True)
class RolloutPolicy:
    """How a campaign releases, retries and gives up.

    ``stages`` are cumulative fleet fractions (the classic 1% canary /
    10% wave / full blast); ``abort_threshold`` is the stage quarantine
    rate that halts the rollout; ``retry_budget`` is how many *extra*
    full sessions a transiently-failing device gets; ``encode`` picks
    how stale cohorts get payloads (``"compose"`` collapses the hop
    deltas, ``"direct"`` re-diffs endpoint pairs through the pipeline).
    """

    name: str = "staged"
    stages: Tuple[float, ...] = (0.01, 0.10, 1.0)
    abort_threshold: float = 0.25
    retry_budget: int = 1
    encode: str = "compose"
    #: Per-session transmission attempts and boot budget.
    max_retries: int = 3
    max_boots: int = 16
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.25

    def validate(self) -> None:
        if not self.stages or sorted(self.stages) != list(self.stages) \
                or self.stages[-1] != 1.0 \
                or any(not (0.0 < s <= 1.0) for s in self.stages):
            raise ValueError(
                "stages must be ascending fractions ending at 1.0, got %r"
                % (self.stages,)
            )
        if self.encode not in ENCODE_POLICIES:
            raise ValueError(
                "unknown encode policy %r; choose from %s"
                % (self.encode, ", ".join(ENCODE_POLICIES))
            )
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if not (0.0 <= self.abort_threshold <= 1.0):
            raise ValueError("abort_threshold must be in [0, 1]")


@dataclass(frozen=True)
class _Cohort:
    """Shared work for all devices on one (package, have) pair."""

    package: str
    have: int
    want: int
    payload: bytes
    reference: bytes
    expected: bytes

    @property
    def key(self) -> str:
        return "%s@%d->%d" % (self.package, self.have, self.want)


def _run_device(
    cohort: _Cohort,
    device: DeviceSpec,
    plan: Optional[FaultPlan],
    policy: RolloutPolicy,
    seed: int,
    stage: int,
) -> DeviceOutcome:
    """One device's terminal outcome: sessions until success, quarantine
    or exhausted retry budget.  Pure in ``(arguments)`` — no global
    state — so it runs identically on any executor."""
    outcome = DeviceOutcome(
        device=device.name, package=device.package,
        have=device.have, want=cohort.want, status="quarantined",
        stage=stage, image_bytes=len(cohort.expected),
        payload_bytes=len(cohort.payload),
    )
    channel = get_channel(device.channel)
    last_failure = ""
    for session in range(policy.retry_budget + 1):
        # A fresh session draws fresh fault decisions: the scope gains a
        # retry suffix, exactly like a client re-enqueueing the job.
        scope = device.name if session == 0 else \
            "%s#r%d" % (device.name, session)
        rng = random.Random("%d|campaign|%s|%d" % (seed, device.name, session))
        result = run_journaled_session(
            cohort.payload, cohort.reference, cohort.expected,
            channel=channel, scope=scope,
            max_retries=policy.max_retries, max_boots=policy.max_boots,
            rng=rng, fault_plan=plan,
            backoff_base=policy.backoff_base,
            backoff_factor=policy.backoff_factor,
            backoff_jitter=policy.backoff_jitter,
            chunk_size=device.chunk_size,
        )
        outcome.sessions = session + 1
        outcome.attempts += result.attempts
        outcome.boots += result.boots
        outcome.power_cuts += result.power_cuts
        outcome.fault_events += len(result.faults)
        outcome.transfer_seconds += result.transfer_seconds
        if result.succeeded:
            outcome.status = "updated"
            outcome.reason = ""
            outcome.kind = ""
            return outcome
        last_failure = result.failure
        if result.corruption:
            # Detected corruption halts the device immediately: the
            # session already proved retransmission cannot cure it
            # (reference rot, failed resume digest, bad final checksum).
            outcome.status = "quarantined"
            outcome.reason = result.failure
            outcome.kind = "corruption"
            return outcome
        # Transient exhaustion (link never delivered, power cut every
        # boot): burn a campaign-level retry session if any remain.
    outcome.status = "quarantined"
    outcome.reason = ("retry budget exhausted after %d session(s): %s"
                      % (outcome.sessions, last_failure))
    outcome.kind = "transient"
    return outcome


def _run_chunk(
    payload: Tuple,
) -> List[DeviceOutcome]:
    """Executor task: run one cohort's device chunk.  Top-level (and
    taking one pickled tuple) so ``ProcessPoolExecutor`` can ship it."""
    cohort, devices, plan, policy, seed, stage = payload
    return [_run_device(cohort, dev, plan, policy, seed, stage)
            for dev in devices]


def _is_current(releases: Dict[str, List[bytes]], device: DeviceSpec) -> bool:
    """The device already holds its package's latest bytes: it is at
    the latest release, or at an older one the train repeats."""
    train = releases[device.package]
    return device.have >= len(train) - 1 or train[device.have] == train[-1]


def _chain_cohorts(
    releases: Dict[str, List[bytes]],
    needed: List[Tuple[str, int]],
    store: VersionStore,
    report: CampaignReport,
) -> Tuple[Dict[Tuple[str, int], _Cohort], Dict[Tuple[str, int], str]]:
    """The ``"compose"`` policy: publish the train into ``store`` and take
    every cohort payload from :meth:`~repro.store.VersionStore.chain`."""
    digests = {package: [store.publish(package, image) for image in train]
               for package, train in sorted(releases.items())}
    cohorts: Dict[Tuple[str, int], _Cohort] = {}
    failed: Dict[Tuple[str, int], str] = {}
    for package, have in needed:
        want = len(releases[package]) - 1
        cohort_key = "%s@%d->%d" % (package, have, want)
        try:
            payload = store.chain(package, digests[package][have],
                                  digests[package][want])
        except ReproError as exc:
            payload = None
            reason = "store chain failed: %s" % describe_failure(exc)
        else:
            reason = "store has no chain for cohort %s" % cohort_key
        if payload is None:
            failed[(package, have)] = reason
            report.cohorts[cohort_key] = -1
            continue
        perf.add("campaign.store_chain")
        cohorts[(package, have)] = _Cohort(
            package, have, want, payload,
            releases[package][have], releases[package][want])
        report.cohorts[cohort_key] = len(payload)
    return cohorts, failed


def _build_cohorts(
    releases: Dict[str, List[bytes]],
    fleet: Sequence[DeviceSpec],
    policy: RolloutPolicy,
    plan: Optional[FaultPlan],
    algorithm: str,
    report: CampaignReport,
    store: Optional[VersionStore] = None,
) -> Tuple[Dict[Tuple[str, int], _Cohort], Dict[Tuple[str, int], str]]:
    """Encode one payload per stale (package, have) cohort.

    Returns the built cohorts plus, for cohorts whose encode failed, a
    structured reason their devices are deferred with.

    The ``"compose"`` policy takes every payload from
    :meth:`~repro.store.VersionStore.chain`: the given ``store``, or a
    throwaway :class:`~repro.store.PackStore` in a temporary directory
    that is removed once the cohorts are built.
    """
    needed = sorted({(d.package, d.have) for d in fleet
                     if not _is_current(releases, d)})
    if policy.encode == "compose":
        if store is not None:
            return _chain_cohorts(releases, needed, store, report)
        config = StoreConfig(algorithm=algorithm, fsync=False)
        with tempfile.TemporaryDirectory() as tmp, \
                PackStore.init(tmp, config) as throwaway:
            return _chain_cohorts(releases, needed, throwaway, report)
    cohorts: Dict[Tuple[str, int], _Cohort] = {}
    failed: Dict[Tuple[str, int], str] = {}
    # "direct": endpoint re-diffs through the pipeline, quarantines and
    # all; the batch summary lands in the report (shared schema with
    # `ipdelta pipeline --json`).
    jobs = []
    for package, have in needed:
        want = len(releases[package]) - 1
        jobs.append(PipelineJob(
            reference=releases[package][have],
            version=releases[package][want],
            name="%s@%d->%d" % (package, have, want),
        ))
    config = PipelineConfig(algorithm=algorithm, executor="serial",
                            retries=1, fallback=("raw",), fault_plan=plan)
    with DeltaPipeline(config) as pipeline:
        batch = pipeline.run(jobs)
    report.encode_batches.append(batch.summary())
    for (package, have), result in zip(needed, batch.results):
        want = len(releases[package]) - 1
        if not result.ok:
            failed[(package, have)] = (
                "cohort encode quarantined (%s): %s"
                % (result.report.quarantine_reason, result.report.failure)
            )
            report.cohorts[result.report.name] = -1
            continue
        cohorts[(package, have)] = _Cohort(
            package, have, want, result.payload,
            releases[package][have], releases[package][want],
        )
        report.cohorts[result.report.name] = len(result.payload)
    return cohorts, failed


def _stage_bounds(total: int, fractions: Sequence[float]) -> List[int]:
    """Cumulative device counts per stage (last always = total)."""
    bounds = []
    for fraction in fractions:
        bounds.append(min(total, max(1, round(total * fraction))))
    if bounds:
        bounds[-1] = total
    return bounds


def run_campaign(
    releases: Dict[str, List[bytes]],
    fleet: Sequence[DeviceSpec],
    *,
    policy: Optional[RolloutPolicy] = None,
    fault_plan: Optional[FaultPlan] = None,
    seed: int = 0,
    executor: str = "serial",
    workers: Optional[int] = None,
    algorithm: str = "correcting",
    store: Optional[VersionStore] = None,
) -> CampaignReport:
    """Update every device in ``fleet`` to its package's latest release.

    Returns a :class:`~repro.fleet.report.CampaignReport` whose
    ``counters`` are identical for a given ``(releases, fleet, policy,
    fault_plan, seed)`` across all ``executor`` modes.  ``fault_plan``'s
    per-device scopes are the device names (retry sessions append
    ``#rN``); the encode phase uses cohort keys (``pkg@have->want``).

    ``store`` (``"compose"`` policy): publish the train into this
    :class:`~repro.store.VersionStore` instead of a throwaway
    :class:`~repro.store.PackStore`; either way every cohort payload is
    the store's collapsed delta chain, and a cohort whose ``chain``
    fails is deferred with the reason — see :func:`_build_cohorts`.
    Devices whose image already is the latest release's bytes (a train
    that repeats an image) count as updated without a session.
    """
    policy = policy or RolloutPolicy()
    policy.validate()
    if executor not in CAMPAIGN_EXECUTORS:
        raise ValueError(
            "unknown campaign executor %r; choose from %s"
            % (executor, ", ".join(CAMPAIGN_EXECUTORS))
        )
    if algorithm not in ALGORITHMS:
        raise ValueError(
            "unknown algorithm %r; choose from %s"
            % (algorithm, ", ".join(sorted(ALGORITHMS)))
        )
    wall_start = time.perf_counter()
    report = CampaignReport(
        seed=seed, executor=executor, policy=asdict(policy),
        packages={p: len(v) - 1 for p, v in sorted(releases.items())},
    )

    # -- encode phase: one payload per stale cohort ---------------------
    cohorts, encode_failed = _build_cohorts(
        releases, fleet, policy, fault_plan, algorithm, report, store)

    pending: List[DeviceSpec] = []
    for device in fleet:
        want = len(releases[device.package]) - 1
        if _is_current(releases, device):
            report.outcomes.append(DeviceOutcome(
                device=device.name, package=device.package,
                have=device.have, want=want, status="updated",
                image_bytes=len(releases[device.package][want]),
            ))
        elif (device.package, device.have) in encode_failed:
            report.outcomes.append(DeviceOutcome(
                device=device.name, package=device.package,
                have=device.have, want=want, status="deferred",
                reason=encode_failed[(device.package, device.have)],
                image_bytes=len(releases[device.package][want]),
            ))
        else:
            pending.append(device)

    # -- rollout phase: deterministic waves with abort thresholds -------
    order = sorted(pending, key=lambda d: d.name)
    random.Random("%d|rollout" % seed).shuffle(order)
    bounds = _stage_bounds(len(order), policy.stages)
    aborted_at: Optional[int] = None
    abort_reason = ""
    done = 0
    pool = None
    try:
        for stage_no, bound in enumerate(bounds, start=1):
            wave = order[done:bound]
            done = bound
            if not wave:
                report.stages.append(StageReport(
                    stage=stage_no, fraction=policy.stages[stage_no - 1],
                    devices=0, updated=0, quarantined=0, aborted=False))
                continue
            chunks: List[Tuple] = []
            for device in wave:
                cohort = cohorts[(device.package, device.have)]
                chunks.append((cohort, device))
            # Group the wave by cohort, then slice into executor tasks.
            by_cohort: Dict[str, Tuple[_Cohort, List[DeviceSpec]]] = {}
            for cohort, device in chunks:
                by_cohort.setdefault(cohort.key, (cohort, []))[1].append(device)
            tasks: List[Tuple] = []
            for cohort, members in by_cohort.values():
                for i in range(0, len(members), CHUNK_DEVICES):
                    tasks.append((cohort, tuple(members[i:i + CHUNK_DEVICES]),
                                  fault_plan, policy, seed, stage_no))
            if executor == "serial" or len(tasks) == 1:
                results = [_run_chunk(task) for task in tasks]
            else:
                if pool is None:
                    pool = (ThreadPoolExecutor(max_workers=workers)
                            if executor == "thread"
                            else ProcessPoolExecutor(max_workers=workers))
                results = list(pool.map(_run_chunk, tasks))
            wave_outcomes = [o for chunk in results for o in chunk]
            report.outcomes.extend(wave_outcomes)
            updated = sum(1 for o in wave_outcomes if o.status == "updated")
            quarantined = len(wave_outcomes) - updated
            rate = quarantined / len(wave_outcomes)
            aborted = rate > policy.abort_threshold
            report.stages.append(StageReport(
                stage=stage_no, fraction=policy.stages[stage_no - 1],
                devices=len(wave_outcomes), updated=updated,
                quarantined=quarantined, aborted=aborted))
            if aborted:
                aborted_at = stage_no
                abort_reason = (
                    "rollout aborted at stage %d: quarantine rate %.1f%% "
                    "exceeded threshold %.1f%%"
                    % (stage_no, 100.0 * rate,
                       100.0 * policy.abort_threshold)
                )
                break
    finally:
        if pool is not None:
            pool.shutdown(wait=True)
    if aborted_at is not None:
        for device in order[done:]:
            want = len(releases[device.package]) - 1
            report.outcomes.append(DeviceOutcome(
                device=device.name, package=device.package,
                have=device.have, want=want, status="deferred",
                reason=abort_reason, stage=aborted_at,
                image_bytes=len(releases[device.package][want]),
            ))
    report.wall_seconds = time.perf_counter() - wall_start
    return report


__all__ = [
    "CAMPAIGN_EXECUTORS",
    "ENCODE_POLICIES",
    "RolloutPolicy",
    "run_campaign",
]
