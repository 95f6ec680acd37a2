"""Deterministic, seedable fault injection for the delta pipeline.

The paper targets devices that cannot afford failure — no scratch
space, lossy links — so the execution layers above the core algorithms
(the batch pipeline, the update sessions) must be *provably* resilient.
Proving resilience needs reproducible adversity: this module provides a
:class:`FaultPlan`, a schedule of named fault *sites* with
count/probability/nth-call triggers whose every decision is a pure
function of ``(seed, site, scope, call index)``.

That purity is the load-bearing design choice.  A decision keyed only
by global call order would drift between the serial, thread and process
executors (and between runs, under scheduler jitter); keying it by the
*scope* (typically the job name) and the per-scope call index makes the
same plan fire identically whether the check runs inline, in a worker
thread, or in a forked process holding a pickled copy of the plan.  The
draw itself comes from an explicit ``random.Random`` seeded from those
four values — never from process-global state.

Sites wired into the library:

``diff.worker``
    In the differencing stage, before the differ runs (one check per
    diff attempt).
``cache.lookup``
    Before the reference-index cache is consulted.  A fault here does
    not fail the attempt: the stage degrades to cache-less differencing
    and records the fault.
``convert.evict``
    In the conversion stage, before in-place post-processing.
``channel.transmit``
    In :func:`~repro.device.updater.run_update` and
    :func:`~repro.device.updater.run_journaled_session`, before each
    simulated transfer (error kind ``transmission`` is retransmitted at
    once: nothing real is waited on).
``device.power``
    In :func:`~repro.device.journal.run_boots`, the boot loop that
    :func:`~repro.device.updater.run_journaled_session` and the
    :func:`repro.serve.pull` client both run, once per boot, where a
    firing spec's ``fuel`` bounds the bytes written before the
    simulated power cut.
``storage.bitflip``
    In :func:`~repro.device.updater.run_journaled_session`, once per
    boot (boot 1 before the preflight, later boots before the journal
    is reread): a firing spec flips one storage bit at a
    deterministically drawn (or spec-pinned) offset before the boot's
    apply resumes — simulated flash rot the integrity plane must
    catch, not an exception.
``delta.truncate``
    In :func:`~repro.device.updater.run_journaled_session`, once per
    transmission attempt: a firing spec truncates the delivered delta
    at a drawn (or pinned) offset, which the self-verifying ``IPD2``
    trailer must detect at parse time.
``delta.bitflip``
    In :func:`~repro.device.updater.run_journaled_session`, once per
    transmission attempt: a firing spec flips one bit of the delivered
    delta at a drawn (or pinned) offset — the corrupted-download shape
    fleet campaigns inject; the ``IPD2`` trailer/segment CRCs must
    catch it before a byte of the image changes.
``serve.accept``
    In the :mod:`repro.serve` daemon, once per accepted connection: a
    firing spec drops the connection before the request is read — the
    client sees a truncated stream and must retry with backoff.
``serve.frame``
    In the daemon's frame-send path, once per outbound frame per
    request scope: a firing mutation spec flips one bit of the encoded
    frame on the wire, which the client's frame CRC must detect as a
    structured ``IntegrityError`` (kind ``frame``), never a hang.
``client.recv``
    In the :func:`repro.serve.pull` client, once per inbound frame: a
    firing spec simulates the connection dropping mid-download (error
    kind ``transmission``); the client resumes from its verified byte
    offset on the next attempt.

``storage.bitflip``/``delta.truncate``/``delta.bitflip``/``serve.frame``
are *mutation* sites: instead of raising, the plan tells the caller
where to corrupt its own state.  The three bit-flip sites ask
:meth:`FaultPlan.flip_offset` for the byte to flip; ``delta.truncate``
asks :meth:`FaultPlan.corruption` for the firing spec and cuts at a
length of its own choosing.  Detection — not avoidance — is what is
under test.

Retries wait by one rule, :func:`backoff_delay`: exponential growth by
:data:`BACKOFF_FACTOR` from a caller's base delay up to its cap, plus
up to :data:`BACKOFF_JITTER` of itself again, drawn from the plan's
seed.  Only loops that wait on something real sleep it: the batch
pipeline between a job's attempts and the pull client between
downloads.  The simulated update sessions retry without sleeping.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Type

from ..exceptions import (
    InjectedFault,
    StageTimeoutError,
    TransmissionError,
    VerificationError,
)

#: Site names the library checks.  A plan may name others (callers can
#: run their own checks); these are the ones wired in.
KNOWN_SITES = (
    "diff.worker",
    "cache.lookup",
    "convert.evict",
    "channel.transmit",
    "device.power",
    "storage.bitflip",
    "delta.truncate",
    "delta.bitflip",
    "serve.accept",
    "serve.frame",
    "client.recv",
)

#: Error kinds a spec may raise, by name (kept picklable: classes are
#: module-level).  ``power`` is handled specially by the journaled
#: updater (it sets write fuel instead of raising here).
ERROR_KINDS: Dict[str, Type[Exception]] = {
    "injected": InjectedFault,
    "timeout": StageTimeoutError,
    "transmission": TransmissionError,
    "verify": VerificationError,
}

#: Kinds handled by mutating state rather than raising: ``power`` sets
#: write fuel, ``bitflip``/``truncate`` corrupt storage or a payload in
#: flight (see :meth:`FaultPlan.corruption`).
MUTATION_KINDS = ("power", "bitflip", "truncate")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: a site plus a trigger and an error kind.

    Triggers compose with OR: the spec fires at call ``index`` (1-based,
    per ``(site, scope)``) when ``index == nth``, or ``index <= count``,
    or a deterministic Bernoulli draw at ``probability`` succeeds.
    """

    site: str
    #: Fire exactly on this 1-based call index (0 disables).
    nth: int = 0
    #: Fire on each of the first ``count`` calls (0 disables).
    count: int = 0
    #: Fire with this probability per call, drawn deterministically from
    #: ``(seed, site, scope, index)`` (0.0 disables).
    probability: float = 0.0
    #: Key into :data:`ERROR_KINDS` naming the exception raised.
    error: str = "injected"
    message: str = ""
    #: For ``device.power`` specs: bytes the storage may still write in
    #: the boot this spec fires on (``None`` = no power cut).
    fuel: Optional[int] = None
    #: For mutation specs (``bitflip``/``truncate``): the byte offset to
    #: corrupt at.  ``None`` draws one deterministically from
    #: ``(seed, site, scope, index)`` via :meth:`FaultPlan.draw_offset`.
    offset: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.site:
            raise ValueError("a fault spec needs a site name")
        if self.error not in ERROR_KINDS and self.error not in MUTATION_KINDS:
            raise ValueError(
                "unknown error kind %r; choose from %s"
                % (self.error,
                   ", ".join(sorted(ERROR_KINDS) + sorted(MUTATION_KINDS)))
            )
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError("probability must be in [0, 1]")
        if self.nth < 0 or self.count < 0:
            raise ValueError("nth and count must be non-negative")
        if self.offset is not None and self.offset < 0:
            raise ValueError("offset must be non-negative")
        if not (self.nth or self.count or self.probability):
            raise ValueError(
                "spec for %r never fires: set nth, count or probability"
                % self.site
            )

    def fires(self, seed: int, scope: str, index: int) -> bool:
        """Whether this spec fires at call ``index`` — a pure function."""
        if self.nth and index == self.nth:
            return True
        if self.count and index <= self.count:
            return True
        if self.probability > 0.0:
            draw = random.Random(
                "%d|%s|%s|%d" % (seed, self.site, scope, index)
            ).random()
            if draw < self.probability:
                return True
        return False

    def build_error(self, scope: str, index: int) -> Exception:
        """The exception this spec injects (never raised here)."""
        message = self.message or (
            "fault at %s (kind=%s, scope=%r, call %d)"
            % (self.site, self.error, scope, index)
        )
        kind = ERROR_KINDS.get(self.error, InjectedFault)
        if kind is InjectedFault:
            return InjectedFault(message, site=self.site, index=index)
        return kind(message)


@dataclass(frozen=True)
class FaultRecord:
    """One fault that actually fired (local process only)."""

    site: str
    scope: str
    index: int
    error: str

    def describe(self) -> str:
        return "%s[%s] call %d -> %s" % (self.site, self.scope, self.index,
                                         self.error)


class FaultPlan:
    """A seeded schedule of faults, checked at named sites.

    Call :meth:`check` at a site; it raises the scheduled exception when
    a spec fires, else returns.  Pass ``index`` explicitly wherever the
    caller knows its own attempt number (the pipeline and updater do) —
    that keeps decisions identical across executors and across the
    process boundary, where each worker holds an independent pickled
    copy of the plan.  Without an explicit index the plan falls back to
    an internal per-``(site, scope)`` counter (thread-safe, but local to
    the process holding the plan).

    ``records`` collects the faults that fired *in this process*; the
    pipeline reconstructs cross-process traces from structured results
    instead of relying on it.
    """

    def __init__(self, specs: Sequence[FaultSpec] = (), seed: int = 0):
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.records: List[FaultRecord] = []
        self._counts: Dict[Tuple[str, str], int] = {}
        self._lock = threading.Lock()

    # -- pickling: locks don't cross the process boundary ---------------

    def __getstate__(self):
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._lock = threading.Lock()

    # -- decisions ------------------------------------------------------

    def _next_index(self, site: str, scope: str) -> int:
        with self._lock:
            key = (site, scope)
            self._counts[key] = self._counts.get(key, 0) + 1
            return self._counts[key]

    def firing_spec(self, site: str, scope: str, index: int) -> Optional[FaultSpec]:
        """First spec firing at ``(site, scope, index)``, else ``None``."""
        for spec in self.specs:
            if spec.site == site and spec.fires(self.seed, scope, index):
                return spec
        return None

    def check(self, site: str, scope: str = "", index: Optional[int] = None) -> int:
        """Evaluate ``site``; raise the scheduled error if a spec fires.

        Returns the call index used, so callers relying on the internal
        counter can log it.
        """
        if index is None:
            index = self._next_index(site, scope)
        spec = self.firing_spec(site, scope, index)
        if spec is not None:
            with self._lock:
                self.records.append(
                    FaultRecord(site, scope, index, spec.error)
                )
            raise spec.build_error(scope, index)
        return index

    def corruption(self, site: str, scope: str, index: int) -> Optional[FaultSpec]:
        """Firing mutation spec at a corruption site, recorded, else ``None``.

        Unlike :meth:`check` this never raises: mutation sites model
        silent corruption, so the caller applies the damage itself and
        the system under test must *detect* it.
        """
        spec = self.firing_spec(site, scope, index)
        if spec is None:
            return None
        with self._lock:
            self.records.append(FaultRecord(site, scope, index, spec.error))
        return spec

    def flip_offset(self, site: str, scope: str, index: int,
                    size: int) -> Optional[int]:
        """Byte of a ``size``-byte target a bit-flip site corrupts, else ``None``.

        The one strike rule of the bit-flip sites (``delta.bitflip``,
        ``storage.bitflip``, ``serve.frame``): the firing spec's pinned
        ``offset``, or one drawn by :meth:`draw_offset`, clamped to the
        last byte.  A firing spec is recorded exactly as
        :meth:`corruption` records it, even when the target is empty
        and there is no byte to flip (``None``).
        """
        spec = self.corruption(site, scope, index)
        if spec is None or size <= 0:
            return None
        offset = spec.offset if spec.offset is not None else \
            self.draw_offset(site, scope, index, size)
        return min(offset, size - 1)

    def draw_offset(self, site: str, scope: str, index: int, size: int) -> int:
        """Deterministic corruption offset in ``[0, size)``.

        A pure function of ``(seed, site, scope, index)`` — the same
        plan corrupts the same byte in every run and every executor,
        which is what makes corruption tests replayable.
        """
        if size <= 0:
            return 0
        return random.Random(
            "%d|%s|%s|%d|offset" % (self.seed, site, scope, index)
        ).randrange(size)

    def power_fuel(self, scope: str, boot: int) -> Optional[int]:
        """Write budget for boot ``boot`` of a ``device.power`` schedule.

        Returns the firing spec's ``fuel`` (``None`` = power stays on).
        A firing spec with no fuel set means "die before the first
        write" (fuel 0).
        """
        spec = self.firing_spec("device.power", scope, boot)
        if spec is None:
            return None
        with self._lock:
            self.records.append(
                FaultRecord("device.power", scope, boot, "power")
            )
        return spec.fuel if spec.fuel is not None else 0

    # -- bookkeeping ----------------------------------------------------

    def reset(self) -> None:
        """Drop counters and records; the schedule itself is immutable."""
        with self._lock:
            self._counts.clear()
            self.records.clear()

    def describe(self) -> List[str]:
        """Human-readable schedule, one line per spec."""
        lines = []
        for spec in self.specs:
            triggers = []
            if spec.nth:
                triggers.append("nth=%d" % spec.nth)
            if spec.count:
                triggers.append("count=%d" % spec.count)
            if spec.probability:
                triggers.append("p=%g" % spec.probability)
            lines.append("%s: %s -> %s" % (spec.site, ", ".join(triggers),
                                           spec.error))
        return lines

    def __len__(self) -> int:
        return len(self.specs)

    # -- parsing (the CLI's --fault-plan) -------------------------------

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse ``site:key=value[:key=value...]`` specs into a plan.

        Specs are separated by ``;`` or ``,``.  Keys: ``nth``, ``count``,
        ``p``/``probability``, ``error``, ``fuel``, ``message``.
        Example::

            diff.worker:count=2:error=timeout;channel.transmit:p=0.5
        """
        specs = []
        for chunk in text.replace(";", ",").split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            site = parts[0].strip()
            if site not in KNOWN_SITES:
                # The constructor allows custom sites (callers may run
                # their own checks); parsed plans only ever reach the
                # wired-in sites, so a typo here would silently never fire.
                raise ValueError(
                    "unknown fault site %r in %r; choose from %s"
                    % (site, chunk, ", ".join(KNOWN_SITES))
                )
            kwargs: Dict[str, object] = {}
            for part in parts[1:]:
                if "=" not in part:
                    raise ValueError(
                        "bad fault spec field %r in %r (want key=value)"
                        % (part, chunk)
                    )
                key, _, value = part.partition("=")
                key = key.strip()
                value = value.strip()
                if key in ("nth", "count", "fuel", "offset"):
                    kwargs[key] = int(value)
                elif key in ("p", "probability"):
                    kwargs["probability"] = float(value)
                elif key == "error":
                    kwargs["error"] = value
                elif key == "message":
                    kwargs["message"] = value
                else:
                    raise ValueError(
                        "unknown fault spec key %r in %r" % (key, chunk)
                    )
            if site == "device.power" and "error" not in kwargs:
                kwargs["error"] = "power"
            if site in ("channel.transmit", "serve.accept", "client.recv") \
                    and "error" not in kwargs:
                kwargs["error"] = "transmission"
            if site in ("storage.bitflip", "delta.bitflip", "serve.frame") \
                    and "error" not in kwargs:
                kwargs["error"] = "bitflip"
            if site == "delta.truncate" and "error" not in kwargs:
                kwargs["error"] = "truncate"
            try:
                specs.append(FaultSpec(site=site, **kwargs))
            except (TypeError, ValueError) as exc:
                raise ValueError("bad fault spec %r: %s" % (chunk, exc)) from None
        if not specs:
            raise ValueError("fault plan %r contains no specs" % text)
        return cls(specs, seed=seed)


#: Growth of the retry backoff per attempt.
BACKOFF_FACTOR = 2.0

#: Largest share of a backoff delay its jitter adds on top.
BACKOFF_JITTER = 0.25


def jitter_draw(seed: int, scope: str, attempt: int) -> float:
    """Deterministic uniform ``[0, 1)`` draw for retry-backoff jitter.

    A pure function of ``(seed, scope, attempt)``, exactly like fault
    decisions: every retry loop derives its backoff jitter through
    :func:`backoff_delay` (seeded from the job's fault plan), so retry
    timing — and with it every trace — is byte-reproducible across the
    serial, thread and process executors instead of drifting with
    whichever worker happened to consume a process-global RNG first.
    """
    return random.Random(
        "%d|backoff|%s|%d" % (seed, scope, attempt)
    ).random()


def backoff_delay(attempt: int, base: float, cap: float, *, seed: int = 0,
                  scope: str = "") -> float:
    """Seconds to wait before retry ``attempt + 1``: the one retry rule.

    ``min(cap, base * BACKOFF_FACTOR ** (attempt - 1))``, plus up to
    :data:`BACKOFF_JITTER` of itself again, drawn by :func:`jitter_draw`
    from ``(seed, scope, attempt)``.  The pipeline (capped at its
    ``BACKOFF_CAP``) and the pull client (capped at its own) wait this
    long; each skips the sleep when ``base`` is 0.
    """
    delay = min(cap, base * (BACKOFF_FACTOR ** (attempt - 1)))
    return delay + delay * BACKOFF_JITTER * jitter_draw(seed, scope, attempt)


def describe_failure(exc: BaseException) -> str:
    """Canonical one-line rendering used by traces everywhere.

    Keeping this in one place is what makes failure traces byte-identical
    across executors: the serial path, the thread pool and the process
    pool all format a caught exception through here.
    """
    return "%s: %s" % (type(exc).__name__, exc)


__all__ = [
    "BACKOFF_FACTOR",
    "BACKOFF_JITTER",
    "ERROR_KINDS",
    "MUTATION_KINDS",
    "FaultPlan",
    "FaultRecord",
    "FaultSpec",
    "KNOWN_SITES",
    "backoff_delay",
    "describe_failure",
    "jitter_draw",
]
