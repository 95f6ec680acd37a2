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
survives by retransmitting, and power cuts (``device.power``) that
:func:`run_journaled_session` rides out by resuming from the journal.
The sessions retransmit at once: the channel is simulated, so there is
nothing real to wait on (the loops that do wait, the batch pipeline and
the pull client, sleep by :func:`repro.faults.backoff_delay`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.apply import preflight_in_place, verify_version
from ..core.convert import make_in_place
from ..delta import ALGORITHMS
from ..delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    decode_delta,
    encode_delta,
    version_checksum,
)
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
from ..faults import FaultPlan, describe_failure
from .channel import Channel, Delivery
from .journal import CrashingStorage, Journal, PowerFailureError, run_boots
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


class UpdateServer:
    """Holds released images and builds update payloads on demand."""

    def __init__(self, *, algorithm: str = "correcting", policy: str = "local-min",
                 scratch_budget: int = 0):
        self.algorithm = algorithm
        self.policy = policy
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
        new = self.release(package, want)
        if strategy == "full":
            return new
        old = self.release(package, have)
        script = ALGORITHMS[self.algorithm](old, new)
        if strategy == "delta":
            return encode_delta(
                script, FORMAT_SEQUENTIAL,
                version_crc32=version_checksum(new), reference=old,
            )
        if strategy in ("in-place", "in-place-stream"):
            converted = make_in_place(script, old, policy=self.policy,
                                      scratch_budget=self.scratch_budget)
            # The self-verifying IPD2 container: in-place application is
            # destructive, so the payload carries the reference digest
            # the device checks before the first overwrite.
            return encode_delta(
                converted.script, FORMAT_INPLACE,
                version_crc32=version_checksum(new), reference=old,
            )
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
    chunk_size: int = 4096,
) -> JournaledUpdateOutcome:
    """One in-place update that survives both link faults and power cuts.

    The session transfers a pre-built in-place ``payload``
    (retransmitting after :class:`TransmissionError` and corrupt
    deliveries), then applies it through the crash-safe
    :class:`~repro.device.journal.JournaledApplier`.  A
    :class:`~repro.faults.FaultPlan` drives the adversity
    deterministically: the ``channel.transmit`` site is checked once per
    transmission, delivered payloads pass the ``delta.truncate`` /
    ``delta.bitflip`` corruption sites, and each boot ``b`` of the apply
    phase asks ``plan.power_fuel(scope, b)`` for a write budget — a
    firing ``device.power`` spec cuts power after ``fuel`` written
    bytes, and the next boot resumes from the journal instead of
    starting over (re-running the delta would corrupt the image, since
    in-place copies destroy their sources).

    The fleet campaign builds a payload *once* per stale cohort (a
    collapsed chain from :meth:`~repro.store.VersionStore.chain`) and
    replays it against thousands of simulated devices, each with its own
    fault ``scope``.  All fault decisions — transmit drops, delivery
    truncation/bit flips, per-boot power fuel, storage rot — are pure
    functions of ``(fault_plan.seed, site, scope, index)``, so the same
    arguments produce the same outcome on any executor.

    ``reference`` seeds the device's storage (the bytes the stale device
    holds); ``expected`` — when given — is the oracle the reconstructed
    image is compared against after the delta's own checksum passes.
    A failed transmission is retransmitted at once, without a sleep.
    """
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
            offset = fault_plan.flip_offset("delta.bitflip", scope,
                                            attempt, len(received))
            if offset is not None:
                # A corrupted download: one bit of the delivered delta
                # flipped in flight.  The IPD2 trailer/segment CRCs must
                # catch this at parse time, before any image byte moves.
                flipped = bytearray(received)
                flipped[offset] ^= 0x01
                received = bytes(flipped)
                outcome.faults.append(
                    "CorruptedDelivery: delta bit flipped at offset %d "
                    "(attempt %d)" % (offset, attempt)
                )
        try:
            script, header = decode_delta(received)
        except ReproError as exc:
            # Corruption caught at parse time — for IPD2, the trailer
            # CRC is checked before a single command is even parsed:
            # nothing applied yet, so a retransmission is always safe.
            outcome.faults.append(describe_failure(exc))
            continue
        break
    if script is None:
        outcome.failure = "exhausted %d transmission attempts" % max_retries
        return outcome

    # -- apply phase: journaled, resumable across power cuts ------------
    storage = CrashingStorage(reference)

    def rot(boot: int) -> None:
        # Simulated flash rot: flips happen silently while the device is
        # down; detection is the integrity plane's job.
        if fault_plan is None:
            return
        offset = fault_plan.flip_offset("storage.bitflip", scope, boot,
                                        len(storage))
        if offset is not None:
            storage.flip(offset)
            outcome.faults.append(
                "BitFlip: storage bit flipped at offset %d (boot %d)"
                % (offset, boot)
            )

    def peak(journal: Journal) -> None:
        outcome.journal_peak_bytes = max(outcome.journal_peak_bytes,
                                         journal.size_bytes)

    outcome.boots = 1  # boot 1 rots, runs the preflight, then the loop
    rot(1)
    try:
        # Verify-then-mutate: bounds and the reference digest are
        # checked against pristine storage before the first destructive
        # write.  (Later boots resume mid-mutation; JournaledApplier
        # re-verifies applied regions instead.)
        preflight_in_place(script, header, storage)
        journal = run_boots(script, storage, Journal(), outcome,
                            fault_plan=fault_plan, scope=scope,
                            max_boots=max_boots, chunk_size=chunk_size,
                            on_reboot=rot, on_cut=peak)
    except (IntegrityError, DeltaRangeError) as exc:
        # A rotted reference, a failed journal reread or rot found
        # under already-applied regions: halt with the report rather
        # than install garbage.
        outcome.corruption = True
        outcome.failure = describe_failure(exc)
        return outcome
    except PowerFailureError as exc:
        outcome.failure = str(exc)
        return outcome
    peak(journal)
    try:
        # The device-real final gate: the version checksum carried in
        # the delta.  (Bit flips in not-yet-applied regions propagate
        # into the image and are caught here if nowhere earlier.)
        verify_version(header, storage)
    except VerificationError as exc:
        outcome.corruption = True
        outcome.failure = str(exc)
        return outcome
    if expected is not None and storage.snapshot() != expected:
        outcome.failure = "reconstructed image differs from expected bytes"
        return outcome
    outcome.succeeded = True
    return outcome
