"""The pull client: download, verify, and apply a delta in place.

:func:`pull` is the device-side half of the serving story — the same
role :func:`~repro.device.updater.run_journaled_session` plays for the
simulated channel, speaking the daemon's framed TCP protocol instead.
The headline property is *zero silent failures*: every pull terminates
in exactly one of three structured states —

``"applied"``
    The image was reconstructed byte-exact (delta trailer, segment
    CRCs, reference digest, and the carried version checksum all
    passed).
``"failed"``
    A structured reason explains what went wrong (exhausted retries, a
    corrupt payload, a server-side error, power failed on every boot).
``"refused"``
    The daemon's backpressure said come back later (RETRY frame) on
    every attempt, or once with a hint longer than :data:`BACKOFF_CAP`;
    ``retry_after`` carries the server's hint, and the caller decides
    when to come back.

Resume works at both planes.  *Download* resume: an interrupted
transfer retries with ``offset=<verified bytes>``, so a connection
dropped by ``client.recv``/``serve.accept`` faults (or a bit-flipped
frame caught by the frame CRC) costs backoff plus the missing tail, not
the whole payload.  *Apply* resume: the pull runs the updater's boot
loop, :func:`repro.device.journal.run_boots`, so it rides out
``device.power`` cuts exactly as the updater does — each reboot
round-trips the journal through its serialized form and re-verifies
already-applied regions via ``applied_crc`` before a single new byte is
written.  With a :class:`PullState` directory both planes survive
process death too: a re-invoked pull picks up the saved payload,
journal, and partially-mutated storage and completes byte-exact.

Between attempts the pull waits by the one retry rule,
:func:`repro.faults.backoff_delay` from ``backoff_base`` up to
:data:`BACKOFF_CAP`, with jitter drawn from its fault seed, so a pull's
retry timing is byte-reproducible.  A RETRY hint up to the same cap is
waited out before the next attempt; a longer one ends the pull
``"refused"`` at once, so a RETRY delays the next attempt by at most
the cap, on top of the backoff.
"""

from __future__ import annotations

import asyncio
import json
import sys
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.apply import preflight_in_place, storage_crc32
from ..delta.encode import decode_delta
from ..device.journal import (
    CrashingStorage,
    Journal,
    PowerFailureError,
    run_boots,
)
from ..exceptions import (
    DeltaFormatError,
    DeltaRangeError,
    IntegrityError,
    ReproError,
    TransmissionError,
)
from ..faults import FaultPlan, backoff_delay, describe_failure
from ..records import content_digest, encode_record, scan_records, write_atomic
from .protocol import (
    ERR_UP_TO_DATE,
    T_DATA,
    T_END,
    T_ERROR,
    T_META,
    T_PULL,
    T_RETRY,
    decode_msg,
    encode_msg,
    read_frame,
    write_frame,
)

#: Module-level alias so tests can monkeypatch the client's sleeps the
#: same way tests/test_fleet.py patches the pipeline's ``time.sleep``.
_async_sleep = asyncio.sleep

#: Longest wait, in seconds, between two download attempts (before
#: jitter), and the longest RETRY hint a pull waits out.
BACKOFF_CAP = 5.0

Buffer = Union[bytes, bytearray, memoryview]


class _Refused(Exception):
    """Server backpressure: RETRY frame received."""

    def __init__(self, retry_after: float):
        super().__init__("refused by backpressure")
        self.retry_after = retry_after


class _ServerError(Exception):
    """Structured ERROR frame received — a terminal server answer."""

    def __init__(self, code: str, message: str):
        super().__init__("%s: %s" % (code, message))
        self.code = code
        self.message = message


def _count(value: object) -> bool:
    """A non-negative JSON integer (``true`` is not one)."""
    return type(value) is int and value >= 0


def _seconds(value: object) -> bool:
    """A non-negative JSON number a float holds (not NaN, not infinite)."""
    return type(value) in (int, float) and 0 <= value <= sys.float_info.max


#: The fields the pull acts on in each control record, with the check
#: each must pass before it is used.
_CONTROL_FIELDS = {
    "META": {"length": _count, "crc32": _count, "offset": _count,
             "want": lambda value: type(value) is str},
    "RETRY": {"retry_after": _seconds},
}


def _control(record: str, msg: object) -> Dict[str, object]:
    """``msg`` once every field the pull reads from a ``record`` passes.

    A missing or mistyped field is a peer speaking another dialect:
    :class:`IntegrityError` with ``kind="frame"``, which the download
    loop retries like a damaged frame and reports once retries run out.
    """
    if not isinstance(msg, dict):
        raise IntegrityError("%s record is %s, not an object"
                             % (record, type(msg).__name__), kind="frame")
    for name, valid in _CONTROL_FIELDS[record].items():
        if not valid(msg.get(name)):
            raise IntegrityError("%s field %r is %r"
                                 % (record, name, msg.get(name)),
                                 kind="frame")
    return msg


@dataclass
class PullOutcome:
    """Everything one pull did, ending in a structured terminal state."""

    package: str
    #: ``"applied"`` | ``"failed"`` | ``"refused"`` — never anything else.
    status: str = "failed"
    #: Structured reason for ``failed``/``refused`` terminals.
    reason: str = ""
    #: Digest of the version the pull targeted (once known).
    want: str = ""
    #: Download attempts made (connections opened).
    attempts: int = 0
    #: Boots the journaled apply took (1 = no power cut).
    boots: int = 0
    power_cuts: int = 0
    #: Times a retry resumed a partial download instead of restarting.
    resumes: int = 0
    #: Bytes skipped across resumed downloads (already-verified prefix).
    resumed_bytes: int = 0
    payload_bytes: int = 0
    #: CRC32 of the downloaded delta payload (0 until downloaded):
    #: coalesced pulls of the same pair must agree here byte-for-byte.
    payload_crc32: int = 0
    #: Server's backpressure hint, for ``refused`` terminals.
    retry_after: float = 0.0
    #: Every fault survived along the way, rendered ``"Type: message"``.
    faults: List[str] = field(default_factory=list)
    #: The reconstructed image, for ``applied`` terminals.
    image: Optional[bytes] = None

    @property
    def ok(self) -> bool:
        return self.status == "applied"

    def summary(self) -> Dict[str, object]:
        return {
            "package": self.package,
            "status": self.status,
            "reason": self.reason,
            "want": self.want,
            "attempts": self.attempts,
            "boots": self.boots,
            "power_cuts": self.power_cuts,
            "resumes": self.resumes,
            "resumed_bytes": self.resumed_bytes,
            "payload_bytes": self.payload_bytes,
            "payload_crc32": self.payload_crc32,
            "faults": list(self.faults),
        }


#: Record kinds of the saved apply state (``apply.bin``).
_REC_STORAGE = 0x01
_REC_JOURNAL = 0x02


class PullState:
    """Durable pull progress in a directory: crash-safe across processes.

    Three files, each written through :func:`repro.records.write_atomic`
    (tmp + fsync + rename, then a directory fsync, so a power cut
    leaves the old or the new file, never a torn one): the downloaded
    payload, its META record, and the apply state.  The apply state
    holds the partially-mutated storage image and the journal sector as
    two :mod:`repro.records` records of one file, so the image and the
    journal that describes it are replaced together.  A pull handed a
    state directory saves after every completed download and every
    power-cut boot; a later pull (same process or a fresh one) resumes
    from whatever survived and :meth:`clear`\\ s on success.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._payload = self.root / "payload.bin"
        self._meta = self.root / "meta.json"
        self._apply = self.root / "apply.bin"

    def load_payload(self) -> Tuple[bytearray, Optional[Dict[str, object]]]:
        if not (self._payload.exists() and self._meta.exists()):
            return bytearray(), None
        try:
            meta = json.loads(self._meta.read_text())
        except ValueError:
            return bytearray(), None
        return bytearray(self._payload.read_bytes()), meta

    def save_payload(self, payload: bytes, meta: Dict[str, object]) -> None:
        write_atomic(str(self._payload), bytes(payload))
        write_atomic(str(self._meta),
                     json.dumps(meta, sort_keys=True).encode())

    def load_apply(self) -> Tuple[Optional[bytes], Optional[bytes]]:
        """(storage bytes, journal bytes) of an interrupted apply.

        A file that is not those two intact records has rotted (a save
        never tears it): :class:`~repro.exceptions.IntegrityError`.
        """
        if not self._apply.exists():
            return None, None
        records, bad = scan_records(self._apply.read_bytes())
        if bad is not None or [r.kind for r in records] != [
                _REC_STORAGE, _REC_JOURNAL]:
            raise IntegrityError("saved apply state is damaged",
                                 kind="journal")
        return records[0].payload, records[1].payload

    def save_apply(self, storage: bytes, journal: bytes) -> None:
        write_atomic(str(self._apply), encode_record(_REC_STORAGE, storage)
                     + encode_record(_REC_JOURNAL, journal))

    def clear(self) -> None:
        for path in (self._payload, self._meta, self._apply):
            try:
                path.unlink()
            except FileNotFoundError:
                pass


async def pull_async(
    host: str,
    port: int,
    package: str,
    reference: Buffer,
    *,
    want: str = "latest",
    scope: Optional[str] = None,
    fault_plan: Optional[FaultPlan] = None,
    max_attempts: int = 5,
    max_boots: int = 16,
    backoff_base: float = 0.0,
    chunk_size: int = 4096,
    state: Optional[PullState] = None,
    io_timeout: Optional[float] = 30.0,
) -> PullOutcome:
    """One end-to-end pull: request, download (resumable), apply in place.

    ``reference`` is the image bytes the client currently holds; its
    digest is what the daemon encodes against.  See the module docstring
    for the terminal-state contract.
    """
    reference = bytes(reference)
    scope = scope if scope is not None else package
    seed = fault_plan.seed if fault_plan is not None else 0
    outcome = PullOutcome(package=package)
    have = content_digest(reference)

    async def backoff(attempt: int) -> None:
        if backoff_base > 0.0:
            await _async_sleep(backoff_delay(
                attempt, backoff_base, BACKOFF_CAP, seed=seed, scope=scope))

    # -- resume artifacts from a previous (crashed) pull ----------------
    buf = bytearray()
    meta: Optional[Dict[str, object]] = None
    if state is not None:
        buf, meta = state.load_payload()
        if meta is not None:
            try:
                outcome.want = _control("META", meta)["want"]
            except IntegrityError:
                # Discarded like unparsable JSON: the download starts over.
                buf, meta = bytearray(), None

    # A counter shared by every receive across every attempt: the
    # ``client.recv`` fault site indexes its pure draws by frames
    # received this pull, so a plan like ``client.recv:nth=3`` cuts the
    # connection at exactly the third frame no matter how attempts
    # split them.
    recv_state = {"index": 0}

    async def recv(reader: asyncio.StreamReader) -> Tuple[int, bytes]:
        if fault_plan is not None:
            recv_state["index"] += 1
            fault_plan.check("client.recv", scope=scope,
                             index=recv_state["index"])
        return await read_frame(reader)

    def payload_complete() -> bool:
        return (meta is not None and len(buf) == meta["length"]
                and (zlib.crc32(bytes(buf)) & 0xFFFFFFFF) == meta["crc32"])

    async def download_once() -> None:
        nonlocal meta
        reader, writer = await asyncio.open_connection(host, port)
        try:
            offset = len(buf)
            if offset:
                outcome.resumes += 1
                outcome.resumed_bytes += offset
            await write_frame(writer, T_PULL, encode_msg({
                "package": package, "have": have, "want": want,
                "offset": offset,
            }))
            ftype, payload = await recv(reader)
            if ftype == T_RETRY:
                hint = _control("RETRY", decode_msg(payload))
                raise _Refused(float(hint["retry_after"]))
            if ftype == T_ERROR:
                err = decode_msg(payload)
                raise _ServerError(str(err.get("code", "")),
                                   str(err.get("message", "")))
            if ftype != T_META:
                raise IntegrityError(
                    "expected META, got frame type 0x%02x" % ftype,
                    kind="frame")
            got = _control("META", decode_msg(payload))
            if meta is not None and (got["want"] != meta["want"]
                                     or got["crc32"] != meta["crc32"]):
                # The target moved (or re-encoded differently) since the
                # partial download: the buffered prefix is for a payload
                # that no longer exists.  Start over.
                del buf[:]
                meta = got
                raise IntegrityError(
                    "server payload changed under a resumed download",
                    kind="frame")
            meta = got
            if got["offset"] != offset:
                raise IntegrityError(
                    "server echoed offset %s, requested %d"
                    % (got["offset"], offset), kind="frame")
            while True:
                ftype, payload = await recv(reader)
                if ftype == T_DATA:
                    buf.extend(payload)
                    if len(buf) > meta["length"]:
                        del buf[:]
                        raise IntegrityError(
                            "server sent more bytes than META declared",
                            kind="frame")
                elif ftype == T_END:
                    break
                elif ftype == T_ERROR:
                    err = decode_msg(payload)
                    raise _ServerError(str(err.get("code", "")),
                                       str(err.get("message", "")))
                else:
                    raise IntegrityError(
                        "unexpected frame type 0x%02x mid-download" % ftype,
                        kind="frame")
            if len(buf) != meta["length"]:
                raise TransmissionError(
                    "stream ended at %d of %d payload bytes"
                    % (len(buf), meta["length"]))
            crc = zlib.crc32(bytes(buf)) & 0xFFFFFFFF
            if crc != meta["crc32"]:
                del buf[:]
                raise IntegrityError(
                    "payload CRC 0x%08x != META's 0x%08x"
                    % (crc, meta["crc32"]),
                    kind="trailer", expected=meta["crc32"], actual=crc)
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    # -- download phase -------------------------------------------------
    # A saved mid-apply image is only valid together with its saved
    # payload; no complete payload means any apply state is stale.
    resuming = payload_complete()
    if not resuming:
        done = False
        refused_last = False
        for attempt in range(1, max_attempts + 1):
            outcome.attempts = attempt
            try:
                # The per-attempt deadline is what makes a silent peer —
                # a daemon that accepted the TCP connection but will
                # never answer (e.g. it drained with this connection
                # still in the kernel's accept backlog) — a structured,
                # retryable fault instead of a hang.
                if io_timeout is not None:
                    await asyncio.wait_for(download_once(),
                                           timeout=io_timeout)
                else:
                    await download_once()
                done = True
                break
            except _Refused as exc:
                # Backpressure: wait out a hint within the cap, then try
                # again; a longer hint is the caller's to schedule.
                # Otherwise only *sustained* refusal — every attempt
                # refused through the last — ends the pull "refused".
                refused_last = True
                outcome.retry_after = exc.retry_after
                outcome.faults.append(
                    "Refused: backpressure (retry after %.3gs)"
                    % exc.retry_after)
                if exc.retry_after > BACKOFF_CAP:
                    outcome.status = "refused"
                    outcome.reason = ("refused by backpressure: hint "
                                      "beyond the %gs cap" % BACKOFF_CAP)
                    return outcome
                if attempt < max_attempts:
                    if exc.retry_after > 0.0:
                        await _async_sleep(exc.retry_after)
                    await backoff(attempt)
                continue
            except _ServerError as exc:
                if exc.code == ERR_UP_TO_DATE:
                    outcome.status = "applied"
                    outcome.reason = "already up to date"
                    outcome.image = reference
                    outcome.boots = 0
                    if state is not None:
                        state.clear()
                    return outcome
                outcome.status = "failed"
                outcome.reason = "server error %s" % exc
                return outcome
            except (IntegrityError, TransmissionError, OSError,
                    asyncio.TimeoutError) as exc:
                refused_last = False
                outcome.faults.append(describe_failure(exc))
                if attempt < max_attempts:
                    await backoff(attempt)
        if not done:
            if refused_last:
                outcome.status = "refused"
                outcome.reason = ("refused by backpressure on all %d "
                                  "attempts" % max_attempts)
                return outcome
            outcome.reason = ("exhausted %d download attempts (last: %s)"
                              % (max_attempts,
                                 outcome.faults[-1] if outcome.faults
                                 else "none"))
            return outcome
        if state is not None:
            state.save_payload(bytes(buf), meta)
    outcome.payload_bytes = len(buf)
    outcome.payload_crc32 = zlib.crc32(bytes(buf)) & 0xFFFFFFFF
    outcome.want = meta["want"]

    # -- apply phase: journaled, resumable across power cuts ------------
    payload = bytes(buf)
    try:
        script, header = decode_delta(payload)
    except ReproError as exc:
        # The payload CRC matched META, so a re-download returns the
        # same bytes: a payload the container layer rejects is terminal.
        outcome.reason = "payload rejected: %s" % describe_failure(exc)
        return outcome

    journal = Journal()
    try:
        saved_storage, saved_journal = (state.load_apply() if resuming
                                        else (None, None))
        if saved_journal is not None:
            journal = Journal.from_bytes(saved_journal)
    except (IntegrityError, DeltaFormatError) as exc:
        outcome.reason = "saved journal corrupt: %s" % describe_failure(exc)
        return outcome
    storage = CrashingStorage(reference if saved_journal is None
                              else saved_storage)

    outcome.boots = 1  # boot 1 runs the preflight, then the loop
    if saved_journal is None:
        # Verify-then-mutate: nothing applied yet, so the reference
        # digest and every command's bounds are checked against
        # pristine storage before the first destructive write.  (A
        # resume re-enters mid-mutation, where the journaled applier
        # re-verifies applied regions via applied_crc instead.)
        try:
            preflight_in_place(script, header, storage)
        except (IntegrityError, DeltaRangeError) as exc:
            outcome.reason = ("preflight rejected payload: %s"
                              % describe_failure(exc))
            return outcome

    def save(journal: Journal) -> None:
        state.save_apply(storage.snapshot(), journal.to_bytes())

    try:
        run_boots(script, storage, journal, outcome, fault_plan=fault_plan,
                  scope=scope, max_boots=max_boots, chunk_size=chunk_size,
                  on_cut=save if state is not None else None)
    except IntegrityError as exc:
        # A journal that fails its CRCs, or rot in an applied region:
        # halt with the report rather than install garbage.
        outcome.reason = describe_failure(exc)
        return outcome
    except PowerFailureError as exc:
        outcome.reason = str(exc)
        return outcome
    if header.has_checksum:
        actual = storage_crc32(storage)
        if actual != header.version_crc32:
            outcome.reason = (
                "reconstructed image checksum 0x%08x != delta's 0x%08x"
                % (actual, header.version_crc32))
            return outcome
    outcome.image = storage.snapshot()
    outcome.status = "applied"
    outcome.reason = ""
    if state is not None:
        state.clear()
    return outcome


def pull(host: str, port: int, package: str, reference: Buffer,
         **kwargs) -> PullOutcome:
    """Synchronous wrapper around :func:`pull_async`."""
    return asyncio.run(pull_async(host, port, package, reference, **kwargs))


__all__ = [
    "PullOutcome",
    "PullState",
    "pull",
    "pull_async",
]
