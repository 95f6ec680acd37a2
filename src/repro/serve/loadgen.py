"""Load generator: hundreds of concurrent pulls through a fault storm.

The serving analogue of :func:`repro.fleet.run_campaign`: build a small
release corpus, start a :class:`~repro.serve.daemon.DeltaServer`, and point
``clients`` concurrent :func:`~repro.serve.pull_async` calls at it —
mixed *distinct* and *duplicate* (reference, target) pairs, so
coalescing and the payload cache are exercised, under a server-side
fault plan (``serve.accept`` drops, ``serve.frame`` corruption), a
client-side plan (``client.recv`` drops), and optionally one mid-pull
power cut on a chosen client.

The report enforces the zero-silent-failure invariant at accounting
time, exactly like the fleet campaign's serializer: every client must
terminate ``applied`` (and then byte-exact against the published
target), ``failed`` with a non-empty structured reason, or ``refused``
by backpressure.  Anything else lands in :meth:`LoadReport.silent`.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import perf
from ..faults import FaultPlan, FaultSpec
from ..store import MemoryStore, VersionStore
from ..workloads import make_binary_blob, mutate
from .client import PullOutcome, pull_async
from .daemon import DeltaServer, ServeConfig

#: Fixed seed shared with the bench suite (the paper's publication date).
DEFAULT_SEED = 19980601


@dataclass(frozen=True)
class ClientSpec:
    """One simulated device: what it holds and what it pulls."""

    name: str
    package: str
    reference: bytes
    expected: bytes
    want: str
    #: The coalescing identity: clients sharing a pair share one encode.
    pair: Tuple[str, str, str]


@dataclass
class LoadReport:
    """Aggregate of one load run, with the invariant checks built in."""

    clients: int = 0
    applied: int = 0
    failed: int = 0
    refused: int = 0
    byte_exact: int = 0
    power_cuts: int = 0
    resumes: int = 0
    client_faults: int = 0
    distinct_pairs: int = 0
    #: Perf counters recorded across the run (server + clients).
    counters: Dict[str, float] = field(default_factory=dict)
    #: Server's always-on counters, snapshotted after the drain.
    server_counters: Dict[str, int] = field(default_factory=dict)
    outcomes: List[PullOutcome] = field(default_factory=list)
    #: Invariant violations: silent failures, wrong bytes, missing
    #: reasons.  Empty on a healthy run.
    silent: List[str] = field(default_factory=list)

    @property
    def terminal(self) -> int:
        return self.applied + self.failed + self.refused

    def summary(self) -> Dict[str, object]:
        return {
            "schema": "repro.serve.load/1",
            "clients": self.clients,
            "applied": self.applied,
            "failed": self.failed,
            "refused": self.refused,
            "byte_exact": self.byte_exact,
            "power_cuts": self.power_cuts,
            "resumes": self.resumes,
            "client_faults": self.client_faults,
            "distinct_pairs": self.distinct_pairs,
            "encodes": int(self.counters.get("serve.encodes", 0)),
            "coalesced": int(self.counters.get("serve.coalesced", 0)),
            "silent": list(self.silent),
        }


def build_corpus(*, packages: int = 3, releases: int = 3,
                 size: int = 8192, seed: int = DEFAULT_SEED,
                 store: Optional[VersionStore] = None
                 ) -> Tuple[VersionStore, Dict[str, List[Tuple[str, bytes]]]]:
    """A version store plus, per package, its (digest, bytes) chain.

    ``store`` chooses where the corpus lands — any
    :class:`~repro.store.VersionStore` (a persistent
    :class:`~repro.store.PackStore`, say); the default is a fresh
    in-memory :class:`~repro.store.MemoryStore`.
    """
    rng = random.Random(seed)
    if store is None:
        store = MemoryStore()
    chains: Dict[str, List[Tuple[str, bytes]]] = {}
    for p in range(packages):
        package = "pkg%03d" % p
        image = make_binary_blob(rng, size)
        chain = []
        for _ in range(releases):
            digest = store.publish(package, image)
            chain.append((digest, image))
            image = mutate(image, rng)
        chains[package] = chain
    return store, chains


def build_clients(chains: Dict[str, List[Tuple[str, bytes]]],
                  clients: int) -> List[ClientSpec]:
    """``clients`` specs cycling over every stale (package, release).

    Round-robin over all stale pairs guarantees the mix the acceptance
    test wants: with more clients than pairs, every pair is duplicated
    — those must coalesce — while the pairs themselves stay distinct.
    """
    pairs: List[Tuple[str, Tuple[str, bytes], Tuple[str, bytes]]] = []
    for package in sorted(chains):
        chain = chains[package]
        latest = chain[-1]
        for stale in chain[:-1]:
            pairs.append((package, stale, latest))
    if not pairs:
        raise ValueError("corpus has no stale releases to pull")
    specs = []
    for i in range(clients):
        package, (have_digest, reference), (want_digest, expected) = \
            pairs[i % len(pairs)]
        specs.append(ClientSpec(
            name="dev%04d" % i,
            package=package,
            reference=reference,
            expected=expected,
            want=want_digest,
            pair=(package, have_digest, want_digest),
        ))
    return specs


async def run_load_async(
    *,
    clients: int = 200,
    packages: int = 3,
    releases: int = 3,
    size: int = 8192,
    seed: int = DEFAULT_SEED,
    server_fault_plan: Optional[FaultPlan] = None,
    client_fault_plan: Optional[FaultPlan] = None,
    #: Index of one client whose apply is hit by a power cut (boot 1
    #: dies with ``power_cut_fuel`` write budget); ``None`` disables.
    power_cut_client: Optional[int] = None,
    power_cut_fuel: int = 600,
    max_inflight: int = 64,
    request_timeout: Optional[float] = 30.0,
    max_attempts: int = 6,
    backoff_base: float = 0.0,
    chunk_size: int = 1 << 14,
    io_timeout: Optional[float] = 30.0,
    #: Per-client start delay (seconds x client index); a small stagger
    #: makes drain-mid-storm runs realistic — early pulls are genuinely
    #: in flight at the server when the drain lands.
    stagger: float = 0.0,
    drain_after: Optional[int] = None,
    store: Optional[VersionStore] = None,
) -> LoadReport:
    """Drive ``clients`` concurrent pulls; return the checked report.

    ``drain_after``, when set, requests a server drain as soon as that
    many pulls have *started* — the remaining in-flight pulls must still
    complete (the SIGTERM-drains-gracefully guarantee), while pulls
    connecting after the drain land on a closed socket and terminate as
    structured failures.

    ``store``, when given, receives the corpus and backs the server —
    the way the storm is pointed at a persistent
    :class:`~repro.store.PackStore` instead of the in-memory default.
    """
    store, chains = build_corpus(packages=packages, releases=releases,
                                 size=size, seed=seed, store=store)
    specs = build_clients(chains, clients)
    report = LoadReport(clients=clients,
                        distinct_pairs=len({s.pair for s in specs}))

    config = ServeConfig(
        port=0,
        max_inflight=max_inflight,
        request_timeout=request_timeout,
        chunk_size=chunk_size,
        fault_plan=server_fault_plan,
    )
    server = DeltaServer(store, config)
    started = {"count": 0}

    async def one_pull(i: int, spec: ClientSpec) -> PullOutcome:
        if stagger > 0.0:
            await asyncio.sleep(i * stagger)
        started["count"] += 1
        if drain_after is not None and started["count"] == drain_after:
            server.request_drain()
        plan = client_fault_plan
        if i == power_cut_client:
            # This one device loses power mid-apply: its plan carries a
            # device.power spec on top of whatever storm the rest get.
            specs_ = (plan.specs if plan is not None else ()) + (
                FaultSpec(site="device.power", nth=1, error="power",
                          fuel=power_cut_fuel),)
            plan = FaultPlan(specs_, seed=plan.seed if plan else seed)
        try:
            return await pull_async(
                server.host, server.port, spec.package, spec.reference,
                want=spec.want,
                scope=spec.name,
                fault_plan=plan,
                max_attempts=max_attempts,
                backoff_base=backoff_base,
                chunk_size=chunk_size,
                io_timeout=io_timeout,
            )
        except Exception as exc:  # pragma: no cover - invariant breach
            # A pull that *raises* instead of returning a structured
            # outcome is itself a silent-failure bug; surface it as one.
            outcome = PullOutcome(package=spec.package)
            outcome.status = "crashed"
            outcome.reason = "%s: %s" % (type(exc).__name__, exc)
            return outcome

    with perf.recording() as recorder:
        await server.start()
        try:
            outcomes = await asyncio.gather(
                *(one_pull(i, spec) for i, spec in enumerate(specs)))
        finally:
            await server.drain()
    report.counters = dict(recorder.counters)
    report.server_counters = dict(server.counters)
    report.outcomes = list(outcomes)

    # -- the zero-silent-failure invariant, enforced at accounting ------
    for spec, outcome in zip(specs, outcomes):
        report.power_cuts += outcome.power_cuts
        report.resumes += outcome.resumes
        report.client_faults += len(outcome.faults)
        if outcome.status == "applied":
            report.applied += 1
            if outcome.image == spec.expected or (
                    outcome.reason == "already up to date"):
                report.byte_exact += 1
            else:
                report.silent.append(
                    "%s: applied but bytes differ from the published "
                    "target" % spec.name)
        elif outcome.status == "failed":
            report.failed += 1
            if not outcome.reason:
                report.silent.append(
                    "%s: failed with an empty reason" % spec.name)
        elif outcome.status == "refused":
            report.refused += 1
        else:
            report.silent.append(
                "%s: non-terminal status %r (%s)"
                % (spec.name, outcome.status, outcome.reason))
    return report


def run_load(**kwargs) -> LoadReport:
    """Synchronous wrapper around :func:`run_load_async`."""
    return asyncio.run(run_load_async(**kwargs))


__all__ = [
    "ClientSpec",
    "DEFAULT_SEED",
    "LoadReport",
    "build_clients",
    "build_corpus",
    "run_load",
    "run_load_async",
]
