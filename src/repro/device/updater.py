"""End-to-end software update sessions: server, channel, device.

This orchestrates the paper's motivating scenario.  An
:class:`UpdateServer` holds the released versions of an image; when a
device on release *k* requests release *k+1*, the server differences the
two, post-processes the delta for in-place reconstruction, serializes it
with a checksum, and ships it over a :class:`~repro.device.channel.Channel`.
The :class:`~repro.device.memory.ConstrainedDevice` applies it in the
storage the old image occupies.

:func:`run_update` compares the four distribution strategies the
update-time bench sweeps:

* ``"full"`` — send the whole new image (no compression);
* ``"delta"`` — send a conventional delta; the device needs scratch RAM
  for the new version (fails on small devices);
* ``"in-place"`` — send a converted delta, staged in RAM then applied in
  the storage the old image occupies;
* ``"in-place-stream"`` — the same converted delta consumed directly off
  the wire: RAM independent of both image and delta size (the smallest
  possible footprint, beyond what the paper required).

Corrupted deliveries are detected by checksum and retransmitted, up to
``max_retries``; a :class:`~repro.faults.FaultPlan` can inject
deterministic link failures (``channel.transmit``) that every session
survives by retransmitting (the journaled one after an exponential
backoff), and power cuts (``device.power``) that
:func:`run_journaled_update` rides out by resuming from the journal.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.apply import preflight_in_place, storage_crc32
from ..core.convert import make_in_place
from ..delta import ALGORITHMS
from ..delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    decode_delta,
    encode_delta,
    version_checksum,
)
from ..delta.wrapper import is_sealed, seal, unseal
from ..exceptions import (
    DeltaFormatError,
    DeltaRangeError,
    IntegrityError,
    OutOfMemoryError,
    ReproError,
    StorageBoundsError,
    TransmissionError,
    VerificationError,
)
from ..faults import FaultPlan, backoff_delay, describe_failure
from .channel import Channel, Delivery
from .journal import CrashingStorage, Journal, JournaledApplier, PowerFailureError
from .memory import ConstrainedDevice

STRATEGIES = ("full", "delta", "in-place", "in-place-stream")


@dataclass
class UpdateOutcome:
    """Record of one update attempt."""

    strategy: str
    payload_bytes: int
    image_bytes: int
    transfer_seconds: float
    attempts: int = 1
    succeeded: bool = False
    failure: str = ""
    #: Transient failures survived along the way (``"Type: message"``).
    faults: List[str] = field(default_factory=list)

    @property
    def compression_ratio(self) -> float:
        """Payload size relative to the full image (lower is better)."""
        if self.image_bytes == 0:
            return 1.0
        return self.payload_bytes / self.image_bytes


class UpdateServer:
    """Holds released images and builds update payloads on demand."""

    def __init__(self, *, algorithm: str = "correcting", policy: str = "local-min",
                 scratch_budget: int = 0, transport_compress: bool = False):
        self.algorithm = algorithm
        self.policy = policy
        #: Apply the zlib transport envelope to every payload built.
        self.transport_compress = transport_compress
        #: Device scratch bytes the server may assume (bounded-scratch
        #: extension); evictions route through scratch up to this budget.
        self.scratch_budget = scratch_budget
        self._releases: Dict[str, List[bytes]] = {}

    def publish(self, package: str, image: bytes) -> int:
        """Append a new release of ``package``; returns its release number."""
        releases = self._releases.setdefault(package, [])
        releases.append(bytes(image))
        return len(releases) - 1

    def release(self, package: str, number: int) -> bytes:
        """The bytes of one published release."""
        return self._releases[package][number]

    def latest_release(self, package: str) -> int:
        """Highest release number published for ``package``."""
        if package not in self._releases or not self._releases[package]:
            raise KeyError("no releases published for %r" % package)
        return len(self._releases[package]) - 1

    def build_payload(self, package: str, have: int, want: int, strategy: str) -> bytes:
        """Serialize the update from release ``have`` to ``want``."""
        wrap = seal if self.transport_compress else (lambda p: p)
        new = self.release(package, want)
        if strategy == "full":
            return wrap(new)
        old = self.release(package, have)
        script = ALGORITHMS[self.algorithm](old, new)
        if strategy == "delta":
            return wrap(encode_delta(
                script, FORMAT_SEQUENTIAL,
                version_crc32=version_checksum(new), reference=old,
            ))
        if strategy in ("in-place", "in-place-stream"):
            converted = make_in_place(script, old, policy=self.policy,
                                      scratch_budget=self.scratch_budget)
            # The self-verifying IPD2 container: in-place application is
            # destructive, so the payload carries the reference digest
            # the device checks before the first overwrite.
            return wrap(encode_delta(
                converted.script, FORMAT_INPLACE,
                version_crc32=version_checksum(new), reference=old,
            ))
        raise ValueError(
            "unknown strategy %r; choose from %s" % (strategy, ", ".join(STRATEGIES))
        )


def run_update(
    server: UpdateServer,
    device: ConstrainedDevice,
    channel: Channel,
    package: str,
    *,
    have: int,
    want: Optional[int] = None,
    strategy: str = "in-place",
    max_retries: int = 3,
    rng: Optional[random.Random] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> UpdateOutcome:
    """Run one update session end to end and report what happened.

    The outcome records payload size and cumulative (simulated) transfer
    time including retransmissions; ``succeeded=False`` outcomes carry
    the failure reason (out of memory, exhausted retries, ...) so benches
    can tabulate strategy viability per device class.

    A :class:`~repro.faults.FaultPlan` is checked at the
    ``channel.transmit`` site once per attempt (scope = package name):
    an injected :class:`TransmissionError` — like one raised by the
    channel itself — costs an attempt and is retransmitted.
    """
    if want is None:
        want = server.latest_release(package)
    payload = server.build_payload(package, have, want, strategy)
    image_bytes = len(server.release(package, want))
    outcome = UpdateOutcome(
        strategy=strategy,
        payload_bytes=len(payload),
        image_bytes=image_bytes,
        transfer_seconds=0.0,
    )

    appliers: Dict[str, Callable[[bytes], None]] = {
        "full": device.install_full_image,
        "delta": device.apply_delta_two_space,
        "in-place": device.apply_delta_in_place,
        "in-place-stream": device.apply_delta_streaming,
    }
    apply_payload = appliers[strategy]

    for attempt in range(1, max_retries + 1):
        outcome.attempts = attempt
        try:
            if fault_plan is not None:
                fault_plan.check("channel.transmit", scope=package,
                                 index=attempt)
            delivery: Delivery = channel.transmit(payload, rng)
        except TransmissionError as exc:
            # The link dropped the payload outright (injected or real):
            # retransmit — the device saw nothing, so every strategy
            # survives this.
            outcome.faults.append(describe_failure(exc))
            continue
        outcome.transfer_seconds += delivery.seconds
        try:
            apply_payload(delivery.payload)
        except DeltaFormatError:
            # Corruption caught while parsing, before any byte of the
            # image changed: safe to retransmit under every strategy.
            continue
        except IntegrityError as exc:
            if exc.kind in ("trailer", "segment") and \
                    strategy != "in-place-stream":
                # The delivered delta itself is corrupt.  The buffered
                # strategies verify it before mutating anything, so a
                # retransmission is safe (and the only cure).
                outcome.faults.append(describe_failure(exc))
                continue
            # A reference digest mismatch is deterministic — the device
            # holds the wrong (or already corrupted) base image and no
            # retransmission fixes that.  For the streaming strategy a
            # trailer/segment failure surfaces mid-apply, after writes.
            suffix = (" (image may be damaged)"
                      if strategy == "in-place-stream" and
                      exc.kind in ("trailer", "segment") else "")
            outcome.failure = describe_failure(exc) + suffix
            return outcome
        except (OutOfMemoryError, StorageBoundsError) as exc:
            # Deterministic device constraints: retrying cannot help.
            outcome.failure = "%s: %s" % (type(exc).__name__, exc)
            return outcome
        except ReproError as exc:
            # Two-space strategies commit only on success, so any other
            # failure (bad ranges, checksum mismatch) is retryable.  The
            # in-place strategy mutates the image as it goes: a failure
            # past the parse stage may have damaged it, and recovery
            # would need a full re-image — report it.
            if strategy in ("in-place", "in-place-stream"):
                outcome.failure = "%s: %s (image may be damaged)" % (
                    type(exc).__name__, exc,
                )
                return outcome
            continue
        expected = server.release(package, want)
        if device.image != expected:
            outcome.failure = "reconstructed image differs from release %d" % want
            return outcome
        outcome.succeeded = True
        return outcome
    outcome.failure = "exhausted %d transmission attempts" % max_retries
    return outcome


@dataclass
class JournaledUpdateOutcome:
    """Record of one journaled, power-cut-resilient update session."""

    payload_bytes: int = 0
    image_bytes: int = 0
    transfer_seconds: float = 0.0
    #: Transmission attempts (retransmissions after link faults count).
    attempts: int = 0
    #: Boots the apply phase took (1 = no power cut).
    boots: int = 0
    power_cuts: int = 0
    #: Largest durable journal footprint observed across boots.
    journal_peak_bytes: int = 0
    succeeded: bool = False
    failure: str = ""
    #: True when the session halted because corruption was *detected*
    #: (bad trailer, reference mismatch, failed resume digest, failed
    #: final checksum) — as opposed to transient faults or exhausted
    #: budgets.  A corrupt halt means no garbage was silently installed.
    corruption: bool = False
    faults: List[str] = field(default_factory=list)


def run_journaled_session(
    payload: bytes,
    reference: bytes,
    expected: Optional[bytes],
    *,
    channel: Channel,
    scope: str = "update",
    max_retries: int = 3,
    max_boots: int = 16,
    rng: Optional[random.Random] = None,
    fault_plan: Optional[FaultPlan] = None,
    backoff_base: float = 0.0,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.0,
    chunk_size: int = 4096,
) -> JournaledUpdateOutcome:
    """Drive one pre-built in-place payload through transfer and
    journaled apply.

    This is the device-side half of :func:`run_journaled_update`,
    factored out so the fleet campaign can build a payload *once* per
    stale cohort (a collapsed chain from
    :meth:`~repro.store.VersionStore.chain`) and replay it against
    thousands of simulated devices, each with its own fault ``scope``.
    All fault decisions — transmit drops, delivery truncation/bit flips,
    per-boot power fuel, storage rot — are pure functions of
    ``(fault_plan.seed, site, scope, index)``, so the same arguments
    produce the same outcome on any executor.

    ``reference`` seeds the device's storage (the bytes the stale device
    holds); ``expected`` — when given — is the oracle the reconstructed
    image is compared against after the delta's own checksum passes.
    Backoff jitter is drawn from the fault seed (see
    :func:`repro.faults.backoff_delay`), never from global randomness.
    """
    seed = fault_plan.seed if fault_plan is not None else 0
    outcome = JournaledUpdateOutcome(
        payload_bytes=len(payload),
        image_bytes=len(expected) if expected is not None else 0,
    )

    # -- transfer phase: retry link faults and corrupt deliveries -------
    script = None
    header = None
    for attempt in range(1, max_retries + 1):
        outcome.attempts = attempt
        try:
            if fault_plan is not None:
                fault_plan.check("channel.transmit", scope=scope,
                                 index=attempt)
            delivery = channel.transmit(payload, rng)
        except TransmissionError as exc:
            outcome.faults.append(describe_failure(exc))
            if backoff_base > 0.0:
                time.sleep(backoff_delay(
                    attempt, backoff_base, backoff_factor,
                    jitter=backoff_jitter, seed=seed, scope=scope))
            continue
        outcome.transfer_seconds += delivery.seconds
        received = delivery.payload
        if fault_plan is not None:
            spec = fault_plan.corruption("delta.truncate", scope, attempt)
            if spec is not None and len(received) > 1:
                cut = spec.offset if spec.offset is not None else \
                    fault_plan.draw_offset("delta.truncate", scope,
                                           attempt, len(received) - 1) + 1
                cut = min(cut, len(received) - 1)
                received = received[:cut]
                outcome.faults.append(
                    "TruncatedDelivery: delta cut to %d of %d bytes "
                    "(attempt %d)" % (cut, outcome.payload_bytes, attempt)
                )
            spec = fault_plan.corruption("delta.bitflip", scope, attempt)
            if spec is not None and received:
                # A corrupted download: one bit of the delivered delta
                # flipped in flight.  The IPD2 trailer/segment CRCs must
                # catch this at parse time, before any image byte moves.
                offset = spec.offset if spec.offset is not None else \
                    fault_plan.draw_offset("delta.bitflip", scope,
                                           attempt, len(received))
                offset = min(offset, len(received) - 1)
                flipped = bytearray(received)
                flipped[offset] ^= 0x01
                received = bytes(flipped)
                outcome.faults.append(
                    "CorruptedDelivery: delta bit flipped at offset %d "
                    "(attempt %d)" % (offset, attempt)
                )
        try:
            if is_sealed(received):
                received = unseal(received)
            script, header = decode_delta(received)
        except ReproError as exc:
            # Corruption caught at parse time — for IPD2, the trailer
            # CRC is checked before a single command is even parsed:
            # nothing applied yet, so a retransmission is always safe.
            outcome.faults.append(describe_failure(exc))
            if backoff_base > 0.0:
                time.sleep(backoff_delay(
                    attempt, backoff_base, backoff_factor,
                    jitter=backoff_jitter, seed=seed, scope=scope))
            continue
        break
    if script is None:
        outcome.failure = "exhausted %d transmission attempts" % max_retries
        return outcome

    # -- apply phase: journaled, resumable across power cuts ------------
    storage = CrashingStorage(reference)
    journal = Journal()
    for boot in range(1, max_boots + 1):
        outcome.boots = boot
        if fault_plan is not None:
            # Simulated flash rot: flips happen silently while the
            # device is down; detection is the integrity plane's job.
            spec = fault_plan.corruption("storage.bitflip", scope, boot)
            if spec is not None and len(storage):
                offset = spec.offset if spec.offset is not None else \
                    fault_plan.draw_offset("storage.bitflip", scope,
                                           boot, len(storage))
                storage.flip(min(offset, len(storage) - 1))
                outcome.faults.append(
                    "BitFlip: storage bit flipped at offset %d (boot %d)"
                    % (min(offset, len(storage) - 1), boot)
                )
        if boot > 1:
            # Reboot: the journal is reread from its durable sector.
            # Round-tripping through the serialized form exercises the
            # record CRCs and torn-tail recovery on every resume.
            try:
                journal = Journal.from_bytes(journal.to_bytes())
            except IntegrityError as exc:
                outcome.corruption = True
                outcome.failure = describe_failure(exc)
                return outcome
        try:
            if boot == 1:
                # Verify-then-mutate: bounds and the reference digest
                # are checked against pristine storage before the first
                # destructive write.  (Later boots resume mid-mutation;
                # JournaledApplier re-verifies applied regions instead.)
                preflight_in_place(script, header, storage)
        except (IntegrityError, DeltaRangeError) as exc:
            outcome.corruption = True
            outcome.failure = describe_failure(exc)
            return outcome
        fuel = (fault_plan.power_fuel(scope, boot)
                if fault_plan is not None else None)
        storage.fuel = fuel
        try:
            JournaledApplier(script, journal).run(storage,
                                                  chunk_size=chunk_size)
        except PowerFailureError as exc:
            outcome.power_cuts += 1
            outcome.faults.append(describe_failure(exc))
            outcome.journal_peak_bytes = max(outcome.journal_peak_bytes,
                                             journal.size_bytes)
            continue  # reboot: the journal resumes the interrupted command
        except IntegrityError as exc:
            # Resume verification found rot in an already-applied
            # region: halt with the report rather than install garbage.
            outcome.corruption = True
            outcome.failure = describe_failure(exc)
            outcome.journal_peak_bytes = max(outcome.journal_peak_bytes,
                                             journal.size_bytes)
            return outcome
        break
    outcome.journal_peak_bytes = max(outcome.journal_peak_bytes,
                                     journal.size_bytes)
    if not journal.complete:
        outcome.failure = ("power failed on every one of %d boots"
                           % outcome.boots)
        return outcome
    if header.has_checksum:
        # The device-real final gate: the version checksum carried in
        # the delta.  (Bit flips in not-yet-applied regions propagate
        # into the image and are caught here if nowhere earlier.)
        actual = storage_crc32(storage)
        if actual != header.version_crc32:
            outcome.corruption = True
            outcome.failure = (
                "reconstructed image checksum 0x%08x != delta's 0x%08x"
                % (actual, header.version_crc32)
            )
            return outcome
    if expected is not None and storage.snapshot() != expected:
        outcome.failure = "reconstructed image differs from expected bytes"
        return outcome
    outcome.succeeded = True
    return outcome


def run_journaled_update(
    server: UpdateServer,
    channel: Channel,
    package: str,
    *,
    have: int,
    want: Optional[int] = None,
    max_retries: int = 3,
    max_boots: int = 16,
    rng: Optional[random.Random] = None,
    fault_plan: Optional[FaultPlan] = None,
    backoff_base: float = 0.0,
    backoff_factor: float = 2.0,
    backoff_jitter: float = 0.0,
    chunk_size: int = 4096,
) -> JournaledUpdateOutcome:
    """One in-place update that survives both link faults and power cuts.

    The session transfers an in-place payload (retrying
    :class:`TransmissionError` and corrupt deliveries with backoff),
    then applies it through the crash-safe
    :class:`~repro.device.journal.JournaledApplier`.  A
    :class:`~repro.faults.FaultPlan` drives the adversity
    deterministically: the ``channel.transmit`` site is checked once per
    transmission (scope = package), delivered payloads pass the
    ``delta.truncate`` / ``delta.bitflip`` corruption sites, and each
    boot ``b`` of the apply phase asks ``plan.power_fuel(package, b)``
    for a write budget — a firing ``device.power`` spec cuts power after
    ``fuel`` written bytes, and the next boot resumes from the journal
    instead of starting over (re-running the delta would corrupt the
    image, since in-place copies destroy their sources).

    This is a thin wrapper over :func:`run_journaled_session` that
    builds the payload from the server's releases; the fleet campaign
    calls the session function directly with cohort-cached payloads.
    """
    if want is None:
        want = server.latest_release(package)
    payload = server.build_payload(package, have, want, "in-place")
    outcome = run_journaled_session(
        payload,
        server.release(package, have),
        server.release(package, want),
        channel=channel,
        scope=package,
        max_retries=max_retries,
        max_boots=max_boots,
        rng=rng,
        fault_plan=fault_plan,
        backoff_base=backoff_base,
        backoff_factor=backoff_factor,
        backoff_jitter=backoff_jitter,
        chunk_size=chunk_size,
    )
    if outcome.failure == "reconstructed image differs from expected bytes":
        outcome.failure = "reconstructed image differs from release %d" % want
    return outcome
