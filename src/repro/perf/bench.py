"""The ``ipdelta bench`` runner: a fixed suite, machine-readable artifacts.

Each benchmark operation runs against deterministically generated corpus
inputs (fixed seeds, so every machine measures the same work) and writes
one ``BENCH_<name>.json`` artifact::

    {
      "schema": "repro.perf.bench/1",
      "name": "diff_greedy_1536k",
      "op": "diff.greedy",
      "input_bytes": {"reference": ..., "version": ...},
      "wall_seconds": ...,          # best of `repeats`
      "throughput_mb_s": ...,       # processed bytes / wall / 1e6
      "repeats": ...,
      "counters": {...},            # repro.perf counters from the best run
      "meta": {"fast_paths": ..., "numpy": ..., "python": ...,
               "oracle_identical": ...}
    }

Differencing artifacts carry ``meta.oracle_identical``: when the fast
paths are on, the runner re-runs the diff with
:func:`repro.delta.rolling.use_fast_paths` disabled and asserts the
encoded delta is byte-identical — the bench never reports a throughput
win for output that drifted from the oracle.

``repro.perf.compare`` consumes two directories of these artifacts and
gates regressions; see ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import json
import platform
import random
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..core.apply import apply_delta, apply_in_place
from ..core.convert import make_in_place
from ..core.crwi import build_crwi_digraph
from ..core.policies import LocallyMinimumPolicy
from ..core.toposort import cycle_breaking_toposort
from ..delta import _kernels
from ..delta import encode_delta, greedy_delta, onepass_delta, correcting_delta
from ..delta.rolling import (
    DEFAULT_SEED_LENGTH,
    FullSeedIndex,
    SeedTable,
    _seed_fingerprint_array,
    fast_paths_enabled,
    seed_fingerprints,
    use_fast_paths,
)
from ..delta.varint import varint_size
from ..device.journal import CrashingStorage, Journal, JournaledApplier
from ..pipeline import DeltaPipeline, PipelineConfig, PipelineJob
from ..pipeline.cache import ARTIFACT_KEYWORDS, ReferenceIndexCache
from ..workloads.mutators import MutationProfile, mutate
from ..workloads.sources import make_binary_blob
from . import recording

SCHEMA = "repro.perf.bench/1"

#: Seed for the deterministic bench corpus (the paper's publication
#: venue date) — fixed so artifacts measure identical work everywhere.
_SEED = 19980601

#: The tentpole's ">= 1 MiB corpus input": a 1.5 MiB binary blob and a
#: realistically mutated successor (the corpus generator's binary
#: mutation profile).
LARGE_SIZE = 1_572_864
#: A smaller pair for the cheap operations.
SMALL_SIZE = 262_144

_DIFFERS = {
    "greedy": greedy_delta,
    "onepass": onepass_delta,
    "correcting": correcting_delta,
}


def bench_pair(size: int = LARGE_SIZE, seed: int = _SEED):
    """The deterministic (reference, version) pair of the bench suite."""
    rng = random.Random(seed)
    reference = make_binary_blob(rng, size)
    version = mutate(reference, rng,
                     MutationProfile(edits_per_kb=0.55, max_edit=768))
    return reference, version


class BenchOp:
    """One benchmark operation: a label, a body, and its byte volume."""

    def __init__(self, name: str, op: str, run: Callable[[], object],
                 input_bytes: Dict[str, int], processed_bytes: int,
                 quick: bool = False,
                 oracle: Optional[Callable[[object], bool]] = None,
                 cleanup: Optional[Callable[[], None]] = None,
                 min_seconds: float = 0.0):
        self.name = name
        self.op = op
        self.run = run
        self.input_bytes = input_bytes
        self.processed_bytes = processed_bytes
        #: Included in ``--quick`` runs.
        self.quick = quick
        #: Given the fast-path result, True when the oracle path agrees.
        self.oracle = oracle
        #: Teardown run after the suite (close pools, unlink segments).
        self.cleanup = cleanup
        #: Keep re-running (best-of) until this much timed wall has
        #: accumulated.  Sub-millisecond ops are pure scheduler noise at
        #: a handful of repeats; a small time budget pins their best run
        #: tightly enough to gate speedup floors on.  Zero keeps the
        #: plain ``repeats`` behavior of the long ops.
        self.min_seconds = min_seconds


def _diff_op(name_suffix: str, algorithm: str, reference, version,
             quick: bool, cache: Optional[ReferenceIndexCache] = None) -> BenchOp:
    """A differencing op; with ``cache``, each run takes the reference's
    artifact from it, and the correcting differ the version's
    fingerprints too (the lookups, hashing included, are timed)."""
    differ = _DIFFERS[algorithm]

    def call(cache):
        if cache is None:
            return differ(reference, version)
        kwargs = {ARTIFACT_KEYWORDS[algorithm]:
                  cache.artifact(algorithm, reference)}
        if algorithm == "correcting":
            kwargs["version_fingerprints"] = cache.fingerprints(version)
        return differ(reference, version, **kwargs)

    def oracle(script) -> bool:
        previous = use_fast_paths(False)
        try:
            # The scalar re-run is the cold diff, except that the cache
            # budget decides the greedy index *tier* (full vs sparse):
            # a cached greedy op re-runs through a same-budget cache, or
            # the comparison is between two different algorithms'
            # outputs.
            expected = call(
                ReferenceIndexCache(max_bytes=cache.max_bytes)
                if cache is not None and algorithm == "greedy" else None)
        finally:
            use_fast_paths(previous)
        return encode_delta(script) == encode_delta(expected) and \
            bytes(apply_delta(script, reference)) == bytes(version)

    return BenchOp(
        name="diff_%s_%s" % (algorithm, name_suffix),
        op="diff.%s" % algorithm,
        run=lambda: call(cache),
        input_bytes={"reference": len(reference), "version": len(version)},
        processed_bytes=len(version),
        quick=quick,
        oracle=oracle,
    )


def _convert_op(name_suffix: str, script, reference,
                input_bytes: Dict[str, int], processed_bytes: int) -> BenchOp:
    """An in-place conversion op with a byte-identity oracle.

    The oracle re-runs the conversion with the fast paths pinned off and
    requires the encoded in-place delta — and the report's accounting —
    to match exactly: the vectorized convert plane may only be faster,
    never different.
    """

    def run():
        return make_in_place(script, reference,
                             offset_encoding_size=varint_size)

    def oracle(result) -> bool:
        previous = use_fast_paths(False)
        try:
            expected = make_in_place(script, reference,
                                     offset_encoding_size=varint_size)
        finally:
            use_fast_paths(previous)
        got, want = result.report, expected.report
        return (
            encode_delta(result.script) == encode_delta(expected.script)
            and got.evicted_count == want.evicted_count
            and got.eviction_cost == want.eviction_cost
            and got.cycles_found == want.cycles_found
            and got.peeled == want.peeled
        )

    return BenchOp(
        name="convert_" + name_suffix,
        op="convert.in_place",
        run=run,
        input_bytes=input_bytes,
        processed_bytes=processed_bytes,
        quick=True,
        oracle=oracle,
        min_seconds=0.5,
    )


def _toposort_op() -> BenchOp:
    """Cycle-breaking toposort on a dense-edit 1.5 MiB digraph.

    A content-edit-heavy 4.5 edits/KiB profile (no block moves) yields
    a graph past ``ARRAY_PEEL_MIN`` whose cost is the acyclic peel, not
    the policy DFS — the stage the adaptive array/scalar hybrid covers.
    Such shift-driven graphs peel in narrow chain waves, the adversarial
    shape for a wave-batched kernel, so this op is the never-worse
    tripwire for the dispatch heuristics rather than a speedup
    showcase.  The digraph and costs are prebuilt (under whichever mode
    the run pins), so the clock sees the sorter alone.  The oracle
    replays graph build + sort on the scalar reference paths and
    requires the identical order, eviction set, and peel split.
    """
    rng = random.Random(_SEED + 2)
    reference = make_binary_blob(rng, LARGE_SIZE)
    version = mutate(reference, rng,
                     MutationProfile(edits_per_kb=4.5, max_edit=192,
                                     weights={"insert": 0.35, "delete": 0.3,
                                              "replace": 0.35}))
    script = greedy_delta(reference, version)
    graph = build_crwi_digraph(script)
    costs = graph.costs(varint_size)

    def run():
        return cycle_breaking_toposort(graph, LocallyMinimumPolicy(), costs)

    def oracle(result) -> bool:
        previous = use_fast_paths(False)
        try:
            oracle_graph = build_crwi_digraph(script)
            expected = cycle_breaking_toposort(
                oracle_graph, LocallyMinimumPolicy(),
                oracle_graph.costs(varint_size))
        finally:
            use_fast_paths(previous)
        return (
            result.order == expected.order
            and result.evicted == expected.evicted
            and result.cycles_found == expected.cycles_found
            and result.peeled == expected.peeled
        )

    return BenchOp(
        name="toposort_1536k",
        op="convert.toposort",
        run=run,
        input_bytes={"reference": len(reference), "version": len(version)},
        processed_bytes=len(version),
        quick=True,
        oracle=oracle,
        min_seconds=0.5,
    )


def build_suite(quick: bool) -> List[BenchOp]:
    """The benchmark suite; ``quick`` selects the CI smoke subset."""
    reference, version = bench_pair(LARGE_SIZE)
    ops: List[BenchOp] = []

    large = "1536k"
    ops.append(_diff_op(large, "greedy", reference, version, quick=True))
    ops.append(_diff_op(large, "correcting", reference, version, quick=True))
    ops.append(_diff_op(large, "onepass", reference, version, quick=True))

    # Differencing with a warm reference cache: the batch-serving shape,
    # where one reference index serves many versions.  The correcting
    # op's cache also holds the version's fingerprints, as a serving
    # cache does once that image has been diffed before.
    cache = ReferenceIndexCache()
    cache.warm("greedy", reference)
    ops.append(_diff_op(large + "_cached", "greedy", reference, version,
                        quick=False, cache=cache))
    cache = ReferenceIndexCache()
    cache.warm("correcting", reference)
    cache.fingerprints(version)
    ops.append(_diff_op(large + "_cached", "correcting", reference, version,
                        quick=True, cache=cache))

    ops.append(BenchOp(
        name="fingerprints_" + large,
        op="index.fingerprints",
        run=lambda: seed_fingerprints(reference, DEFAULT_SEED_LENGTH),
        input_bytes={"reference": len(reference)},
        processed_bytes=len(reference),
        quick=True,
    ))
    ops.append(BenchOp(
        name="full_index_" + large,
        op="index.full",
        run=lambda: FullSeedIndex(reference, DEFAULT_SEED_LENGTH, 64),
        input_bytes={"reference": len(reference)},
        processed_bytes=len(reference),
        quick=False,
    ))
    ops.append(BenchOp(
        name="seed_table_" + large,
        op="index.seed_table",
        run=lambda: SeedTable.from_fingerprints(
            _seed_fingerprint_array(reference, DEFAULT_SEED_LENGTH)),
        input_bytes={"reference": len(reference)},
        processed_bytes=len(reference),
        quick=False,
    ))

    # Conversion + application on the small pair (these stages are cheap
    # relative to differencing — the imbalance the tentpole attacks).
    small_ref, small_ver = bench_pair(SMALL_SIZE, seed=_SEED + 1)
    script = greedy_delta(small_ref, small_ver)
    converted = make_in_place(script, small_ref,
                              offset_encoding_size=varint_size)

    def run_apply_two_space():
        return apply_delta(script, small_ref)

    def run_apply_in_place():
        return apply_in_place(converted.script, bytearray(small_ref))

    def run_apply_journaled():
        storage = CrashingStorage(small_ref)
        journal = Journal()
        JournaledApplier(converted.script, journal).run(storage)
        return storage, journal

    small_sizes = {"reference": len(small_ref), "version": len(small_ver)}
    ops.append(_convert_op("256k", script, small_ref, small_sizes,
                           len(small_ver)))
    # Conversion at the tentpole's >= 1 MiB scale: the large pair's
    # greedy script through the full convert plane (CRWI build, pricing,
    # cycle breaking, emission).
    large_script = greedy_delta(reference, version)
    ops.append(_convert_op(large, large_script, reference,
                           {"reference": len(reference),
                            "version": len(version)},
                           len(version)))
    ops.append(_toposort_op())
    ops.append(BenchOp("apply_two_space_256k", "apply.two_space",
                       run_apply_two_space, small_sizes, len(small_ver),
                       quick=True, min_seconds=0.25,
                       oracle=lambda out: bytes(out) == bytes(small_ver)))
    ops.append(BenchOp("apply_in_place_256k", "apply.in_place",
                       run_apply_in_place, small_sizes, len(small_ver),
                       quick=True, min_seconds=0.25,
                       oracle=lambda out: bytes(out) == bytes(small_ver)))
    # The crash-safe apply every device pull runs, over the same script:
    # CI holds its throughput to a floor against the plain apply above.
    ops.append(BenchOp("apply_journaled_256k", "apply.journaled",
                       run_apply_journaled, small_sizes, len(small_ver),
                       quick=True, min_seconds=0.25,
                       oracle=lambda out: out[1].complete
                       and out[0].snapshot() == bytes(small_ver)))

    # Batch-pipeline transport comparison: one reference serving a batch
    # of small chunk updates, through the "process" executor (the
    # reference pickled to the workers per job) and "process-shm" (the
    # reference published once into shared memory, jobs carrying tiny
    # descriptors).  The compare gate holds their ratio; the executors
    # must agree byte-for-byte with a serial run.
    jobs = _pipeline_jobs(small_ref, count=16, version_bytes=32_768)
    ops.append(_pipeline_op("process", jobs, "256k", quick=False))
    ops.append(_pipeline_op("process-shm", jobs, "256k", quick=False))

    # Greedy over the sparse index tier: the 1.5 MiB reference's full
    # greedy index prices over the cache's budget share, so the cache
    # serves the retained SparseSeedIndex instead of rebuilding a full
    # index per job (the cache-thrash footgun this op gates).
    sparse_jobs = _pipeline_jobs(reference, count=8, version_bytes=32_768)
    ops.append(_pipeline_op("thread", sparse_jobs, large, quick=True,
                            algorithm="greedy",
                            name="pipeline_greedy_sparse_" + large))

    # Fleet campaign smoke: ~200 devices through the journaled updater
    # with the fault plan on.  The oracle is the robustness acceptance
    # bar itself — zero silent failures with faults actually firing.
    ops.append(_campaign_op())

    # Serving smoke: 200 concurrent pulls through the delta daemon under
    # a network fault storm.  Same acceptance-bar oracle, network plane.
    ops.append(_serve_op())

    # Pack-store chain collapse: a client 11 versions behind served one
    # composed in-place delta from stored chain hops.
    ops.append(_store_op())
    # The pack store's write path: a release train published in order.
    ops.append(_store_publish_op())

    if quick:
        return [op for op in ops if op.quick]
    return ops


def _pipeline_jobs(reference: bytes, count: int,
                   version_bytes: int) -> List[PipelineJob]:
    """``count`` small version files diffed against one big reference.

    Each version is a deterministically chosen chunk of the reference
    with realistic mutations — the fleet-serving shape where the
    reference dominates the bytes in flight, which is exactly where the
    executors' transport strategies diverge.
    """
    jobs = []
    for i in range(count):
        rng = random.Random(_SEED + 100 + i)
        start = rng.randrange(len(reference) - version_bytes)
        version = mutate(reference[start:start + version_bytes], rng,
                         MutationProfile(edits_per_kb=0.3, max_edit=512))
        jobs.append(PipelineJob(reference, version, "v%d" % i))
    return jobs


def _pipeline_op(executor: str, jobs: List[PipelineJob], size_label: str,
                 quick: bool, algorithm: str = "correcting",
                 name: Optional[str] = None) -> BenchOp:
    """One batch through a persistent pipeline on ``executor``.

    The pipeline (and so its process pool and per-worker caches) lives
    for the whole bench: the untimed warmup run absorbs pool spawn and
    cache fill, and the timed repeats measure the steady serving state —
    where the executors differ purely in how job buffers reach the
    workers.  The oracle re-runs the batch serially (same algorithm and
    default cache budget, so the same greedy index tier) and requires
    byte-identical payloads.
    """
    pipe = DeltaPipeline(PipelineConfig(
        algorithm=algorithm, executor=executor,
        workers=2,
    ))
    total_version_bytes = sum(len(j.version) for j in jobs)

    def run():
        return pipe.run(jobs)

    def oracle(batch) -> bool:
        if batch.ok_jobs != len(jobs):
            return False
        with DeltaPipeline(PipelineConfig(
                algorithm=algorithm, executor="serial")) as serial:
            expected = serial.run(jobs)
        return [r.payload for r in batch.results] == \
            [r.payload for r in expected.results]

    return BenchOp(
        name=name or "pipeline_%s_%s" % (executor.replace("-", "_"),
                                         size_label),
        op="pipeline.%s" % executor,
        run=run,
        input_bytes={"reference": len(jobs[0].reference),
                     "versions": total_version_bytes},
        processed_bytes=total_version_bytes,
        quick=quick,
        oracle=oracle,
        cleanup=pipe.close,
    )


def _campaign_op() -> BenchOp:
    """A 200-device fault-injected campaign through the real updater.

    Throughput is installed image bytes per second.  The oracle enforces
    the campaign's protocol invariant: every device lands in a terminal
    state (updated / quarantined-with-reason), no silent failures, and
    the fault plan actually fired — a campaign that dodged its faults
    measures nothing.
    """
    from ..faults import FaultPlan
    from ..fleet import RolloutPolicy, make_fleet, make_release_train, \
        run_campaign

    devices = 200
    train = make_release_train(("app", "kernel"), releases=3, size=32_768,
                               seed=_SEED)
    fleet = make_fleet(devices, train, seed=_SEED)
    plan = FaultPlan.parse(
        "device.power:p=0.08:fuel=4000; delta.truncate:p=0.05; "
        "delta.bitflip:p=0.05; channel.transmit:p=0.05",
        seed=_SEED,
    )
    image_bytes = sum(len(train[d.package][-1]) for d in fleet)

    def run():
        return run_campaign(train, fleet, policy=RolloutPolicy(),
                            fault_plan=plan, seed=_SEED, executor="serial")

    def oracle(report) -> bool:
        counters = report.counters
        return (
            not report.silent_failures()
            and counters["devices"] == devices
            and (counters["updated"] + counters["quarantined"]
                 + counters["deferred"]) == devices
            and counters["power_cuts"] > 0
            and counters["fault_events"] > 0
        )

    return BenchOp(
        name="campaign_smoke_200dev",
        op="fleet.campaign",
        run=run,
        input_bytes={"devices": devices, "images": image_bytes},
        processed_bytes=image_bytes,
        quick=True,
        oracle=oracle,
    )


def _serve_op() -> BenchOp:
    """200 concurrent pulls through the delta daemon under a fault storm.

    Throughput is applied image bytes per second across the whole run —
    encode, framed transfer, journaled in-place apply.  The oracle is
    the serving acceptance bar: every client terminal, applied means
    byte-exact, duplicate (reference, target) pairs coalesced to one
    encode each, and the injected faults actually fired.
    """
    from ..faults import FaultPlan
    from ..serve import run_load

    clients = 200
    size = 8_192
    server_plan = FaultPlan.parse(
        "serve.accept:p=0.05;serve.frame:p=0.02", seed=_SEED)
    client_plan = FaultPlan.parse("client.recv:p=0.03", seed=_SEED + 1)

    def run():
        return run_load(
            clients=clients,
            packages=3,
            releases=3,
            size=size,
            seed=_SEED,
            server_fault_plan=server_plan,
            client_fault_plan=client_plan,
            power_cut_client=17,
            power_cut_fuel=600,
            max_attempts=8,
            backoff_base=0.001,
            chunk_size=1 << 12,
        )

    def oracle(report) -> bool:
        return (
            not report.silent
            and report.terminal == clients
            and report.byte_exact == report.applied
            and report.applied >= clients * 0.95
            and report.counters.get("serve.encodes") == report.distinct_pairs
            and report.power_cuts > 0
            and report.client_faults > 0
        )

    return BenchOp(
        name="serve_smoke_200pull",
        op="serve.load",
        run=run,
        input_bytes={"clients": clients, "image": size},
        processed_bytes=clients * size,
        quick=True,
        oracle=oracle,
    )


def _store_op() -> BenchOp:
    """Chain collapse over a 12-version pack-store release history.

    A temp-dir :class:`~repro.store.PackStore` holds 12 mutate-derived
    256 KiB releases of one package as stored delta chains; the op is
    ``store.chain(first, latest)`` — fetch the 11 hop scripts, fold
    them with ``compose_chain``, convert for in-place application,
    encode one ``IPD2`` payload.  The untimed warm-up run fills the
    store's hop-script cache, so the timed repeats measure a warm
    store: no stored-hop decode and no re-diff, only cache hits,
    compose, convert and encode.  Throughput is the chain's image
    volume per second.  The oracle applies the payload in place over
    the first release and demands the latest, byte-exact.
    """
    import shutil
    import tempfile

    from ..store import PackStore, StoreConfig

    releases = 12
    size = SMALL_SIZE
    rng = random.Random(_SEED)
    root = tempfile.mkdtemp(prefix="ipdelta-bench-store-")
    store = PackStore.init(root, StoreConfig(fsync=False))
    image = make_binary_blob(rng, size)
    digests = []
    images = []
    for _ in range(releases):
        digests.append(store.publish("app", image))
        images.append(image)
        image = mutate(image, rng,
                       MutationProfile(edits_per_kb=0.55, max_edit=768))

    def run():
        return store.chain("app", digests[0], digests[-1])

    def oracle(payload) -> bool:
        from .. import patch_in_place
        if payload is None:
            return False
        buf = bytearray(images[0])
        patch_in_place(buf, payload)
        return bytes(buf) == images[-1]

    def cleanup():
        store.close()
        shutil.rmtree(root, ignore_errors=True)

    return BenchOp(
        name="store_chain_collapse",
        op="store.chain",
        run=run,
        input_bytes={"releases": releases, "image": size},
        processed_bytes=(releases - 1) * size,
        quick=True,
        oracle=oracle,
        cleanup=cleanup,
        min_seconds=0.25,
    )


def _store_publish_op() -> BenchOp:
    """A 12-release, 128 KiB train published into a fresh pack store.

    Each run initializes a new temp-dir :class:`~repro.store.PackStore`
    (fsync off, so the clock sees the program, not the disk) and
    publishes 12 mutate-derived releases of one package in order:
    similarity scoring, the correcting diff against the previous
    version (whose seed table the previous publish kept), encode,
    append and index rewrite.  Throughput is published image bytes per
    second.  The oracle reads every version of the last run back
    byte-exact and requires a clean ``fsck()``.
    """
    import shutil
    import tempfile

    from ..store import PackStore, StoreConfig

    releases = 12
    size = 128 * 1024
    rng = random.Random(_SEED + 3)
    images = [make_binary_blob(rng, size)]
    for _ in range(releases - 1):
        images.append(mutate(images[-1], rng,
                             MutationProfile(edits_per_kb=0.55,
                                             max_edit=768)))
    root = tempfile.mkdtemp(prefix="ipdelta-bench-publish-")
    runs = [0]

    def run():
        runs[0] += 1
        store = PackStore.init("%s/run%d" % (root, runs[0]),
                               StoreConfig(fsync=False))
        return store, [store.publish("app", image) for image in images]

    def oracle(result) -> bool:
        store, digests = result
        with store:
            return (all(store.get("app", digest) == image
                        for digest, image in zip(digests, images))
                    and store.fsck().ok)

    return BenchOp(
        name="store_publish_train",
        op="store.publish",
        run=run,
        input_bytes={"releases": releases, "image": size},
        processed_bytes=sum(len(image) for image in images),
        quick=True,
        oracle=oracle,
        cleanup=lambda: shutil.rmtree(root, ignore_errors=True),
        min_seconds=1.0,
    )


def run_op(op: BenchOp, repeats: int) -> Dict[str, object]:
    """Execute one op ``repeats`` times; artifact dict from the best run.

    One untimed warmup run precedes the timed repeats so one-time costs
    (power-table construction, allocator growth) do not pollute the
    measurement.  An op with ``min_seconds`` set keeps accumulating
    best-of repeats (capped at 10000) until its time budget is spent.
    """
    op.run()
    best_seconds = None
    best_counters: Dict[str, float] = {}
    result = None
    total = 0.0
    runs = 0
    while runs < max(1, repeats) or (total < op.min_seconds
                                     and runs < 10_000):
        with recording() as recorder:
            t0 = time.perf_counter()
            result = op.run()
            elapsed = time.perf_counter() - t0
        total += elapsed
        runs += 1
        if best_seconds is None or elapsed < best_seconds:
            best_seconds = elapsed
            best_counters = recorder.counters
    oracle_identical = None
    if op.oracle is not None:
        oracle_identical = bool(op.oracle(result))
    return {
        "schema": SCHEMA,
        "name": op.name,
        "op": op.op,
        "input_bytes": op.input_bytes,
        "wall_seconds": best_seconds,
        "throughput_mb_s": op.processed_bytes / best_seconds / 1e6
        if best_seconds else None,
        "repeats": runs,
        "counters": best_counters,
        "meta": {
            "fast_paths": fast_paths_enabled(),
            "numpy": _kernels.HAVE_NUMPY,
            "python": platform.python_version(),
            "seed_length": DEFAULT_SEED_LENGTH,
            "oracle_identical": oracle_identical,
        },
    }


def run_bench(
    output_dir: str = "bench_artifacts",
    *,
    quick: bool = False,
    fast: bool = True,
    repeats: Optional[int] = None,
    ops: Optional[List[str]] = None,
    echo: Callable[[str], None] = print,
) -> List[Path]:
    """Run the suite and write one ``BENCH_<name>.json`` per operation.

    ``fast=False`` pins the scalar reference paths for the whole run —
    the pre-optimization baseline (such artifacts skip the oracle
    cross-check; they *are* the oracle).  ``ops`` filters by artifact
    name substring.  Returns the paths written.
    """
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if repeats is None:
        repeats = 1 if quick else 3
    previous = use_fast_paths(fast)
    written: List[Path] = []
    suite: List[BenchOp] = []
    try:
        suite = build_suite(quick)
        selected = suite
        if ops:
            selected = [op for op in suite
                        if any(wanted in op.name for wanted in ops)]
        for op in selected:
            if not fast:
                op.oracle = None
            artifact = run_op(op, repeats)
            path = out / ("BENCH_%s.json" % op.name)
            path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
            written.append(path)
            identical = artifact["meta"]["oracle_identical"]
            suffix = "" if identical is None else \
                "  oracle=%s" % ("ok" if identical else "MISMATCH")
            echo("%-28s %8.3fs  %8.2f MB/s%s" % (
                op.name, artifact["wall_seconds"],
                artifact["throughput_mb_s"] or 0.0, suffix))
            if identical is False:
                raise AssertionError(
                    "%s: fast-path output differs from the oracle" % op.name)
    finally:
        use_fast_paths(previous)
        # Teardown covers the *whole* suite, not just the selected ops:
        # build_suite creates the pipeline pools either way.
        for op in suite:
            if op.cleanup is not None:
                op.cleanup()
    return written
