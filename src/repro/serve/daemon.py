"""The delta-serving daemon: a long-running encoder behind a socket.

This turns the batch :class:`~repro.pipeline.DeltaPipeline` into the
paper's distribution story made literal: devices connect, say "I hold
the version with digest X, bring me up to date", and receive an IPD2
in-place delta encoded against the exact reference bytes they hold.
The :class:`~repro.pipeline.ReferenceIndexCache` stays warm across
requests, so a fleet of devices on the same stale release costs one
index build, and the payload cache plus request coalescing collapse
duplicate (reference, target) pairs to a single encode.

Robustness invariants the tests hold the daemon to:

* A malformed, truncated, or bit-flipped request frame produces a
  structured ERROR response (or a closed connection) — never an
  unhandled exception in the accept loop and never a wedged handler.
* Load beyond ``max_inflight`` concurrent requests is *refused* with a
  RETRY frame carrying ``retry_after`` — explicit backpressure instead
  of an unbounded queue.
* Every request runs under a deadline; a deadline hit is a structured
  ERROR, and the handler that hit it cleans up after itself.
* Draining (SIGTERM) stops accepting new connections, lets in-flight
  requests finish, then returns — the load generator asserts pulls that
  were mid-flight at drain time still complete byte-exact.

Fault sites (see :mod:`repro.faults`): ``serve.accept`` drops an
accepted connection before the request is read; ``serve.frame`` flips
one bit of an outbound frame on the wire, which the client's frame CRC
must catch.
"""

from __future__ import annotations

import asyncio
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import perf
from ..exceptions import IntegrityError, ReproError
from ..faults import FaultPlan, describe_failure
from ..lru import LRU
from ..pipeline import DeltaPipeline, PipelineConfig, PipelineJob
from ..store import VersionStore
from . import protocol
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_DEADLINE,
    ERR_DRAINING,
    ERR_ENCODE_FAILED,
    ERR_UNKNOWN_PACKAGE,
    ERR_UNKNOWN_VERSION,
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
)


#: Byte budget of the encoded-payload LRU.
PAYLOAD_CACHE_BYTES = 64 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of one :class:`DeltaServer` (frozen, shareable)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``server.port``.
    port: int = 0
    algorithm: str = "correcting"
    #: Concurrent requests admitted before backpressure refuses with
    #: RETRY.  Refusal, not queueing: an overloaded daemon tells clients
    #: when to come back instead of silently growing a queue.
    max_inflight: int = 64
    #: Seconds one request may take end to end before a structured
    #: deadline error (``None`` disables).
    request_timeout: Optional[float] = 30.0
    #: DATA frame payload size.
    chunk_size: int = 1 << 16
    #: Seconds a refused client is told to wait before retrying.
    retry_after: float = 0.05
    encode_workers: int = 2
    fault_plan: Optional[FaultPlan] = None

    def validate(self) -> None:
        if self.max_inflight <= 0:
            raise ValueError("max_inflight must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self.encode_workers <= 0:
            raise ValueError("encode_workers must be positive")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be positive when set")


class _EncodeFailed(ReproError):
    """An encode request quarantined inside the pipeline."""


class DeltaServer:
    """The asyncio TCP daemon answering digest-addressed pull requests.

    One server owns one warm :class:`DeltaPipeline` (serial executor —
    encodes are dispatched to a small thread pool here, so the event
    loop never blocks on a multi-second index build) and one
    :class:`~repro.store.VersionStore` — the in-memory
    :class:`~repro.store.MemoryStore`, the persistent
    :class:`~repro.store.PackStore`, or anything satisfying the
    protocol.  When the store can answer :meth:`~repro.store.VersionStore.chain`
    (a collapsed delta chain it already holds), that payload is served
    instead of a fresh pipeline encode — ``counters["chain_served"]``
    tracks how often.  Use as::

        server = DeltaServer(store, ServeConfig(port=0))
        await server.start()        # server.port now holds the bound port
        ...
        await server.drain()        # in-flight finish, accepts refused
    """

    def __init__(self, store: VersionStore,
                 config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.config.validate()
        self.store = store
        self._pipeline = DeltaPipeline(PipelineConfig(
            algorithm=self.config.algorithm,
            executor="serial",
            fallback=("raw",),
            retries=1,
        ))
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._encode_pool = None  # lazily built ThreadPoolExecutor
        self._conn_tasks: "set" = set()
        #: (package, have, want) -> in-flight encode task, the
        #: coalescing map: every concurrent request for the same pair
        #: awaits the same task.
        self._inflight_encodes: Dict[Tuple[str, str, str], asyncio.Task] = {}
        #: (package, have, want) -> encoded payload.
        self._payload_cache = LRU(PAYLOAD_CACHE_BYTES,
                                  evictions="serve.payload.evictions")
        self._active_requests = 0
        self._accepts = 0
        #: Per-scope outbound frame counters, indexing ``serve.frame``
        #: corruption draws deterministically per request scope.
        self._frame_indices: Dict[str, int] = {}
        self._draining = False
        # Created inside the running loop (3.9 binds primitives to the
        # loop current at construction time).
        self._drained: Optional[asyncio.Event] = None
        self.port: Optional[int] = None
        self.host: Optional[str] = None
        #: Always-on counters (perf mirrors them when recording).
        self.counters: Dict[str, int] = {
            "connections": 0,
            "requests": 0,
            "served": 0,
            "refused": 0,
            "errors": 0,
            "deadline": 0,
            "encodes": 0,
            "chain_served": 0,
            "coalesced": 0,
            "payload_hits": 0,
            "accept_faults": 0,
            "frame_corruptions": 0,
        }

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns ``(host, port)``."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._drained = asyncio.Event()
        self._encode_pool = ThreadPoolExecutor(
            max_workers=self.config.encode_workers,
            thread_name_prefix="repro-serve-encode",
        )
        self._server = await asyncio.start_server(
            self._on_connection, self.config.host, self.config.port)
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    @property
    def draining(self) -> bool:
        return self._draining

    def request_drain(self) -> None:
        """Begin a graceful drain; safe to call from a signal handler
        thread (hops onto the loop via ``call_soon_threadsafe``)."""
        if self._loop is None:
            return
        self._loop.call_soon_threadsafe(
            lambda: self._loop.create_task(self.drain()))

    async def drain(self) -> None:
        """Refuse new accepts, let in-flight requests finish, shut down.

        Idempotent: concurrent callers all wait for the same drain to
        complete.
        """
        if self._drained is None:
            self._drained = asyncio.Event()
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # In-flight connection handlers run to completion — this is the
        # "SIGTERM drains, in-flight pulls complete" guarantee.
        while self._conn_tasks:
            await asyncio.gather(*tuple(self._conn_tasks),
                                 return_exceptions=True)
        for task in list(self._inflight_encodes.values()):
            if not task.done():
                await asyncio.gather(task, return_exceptions=True)
        if self._encode_pool is not None:
            self._encode_pool.shutdown(wait=True)
            self._encode_pool = None
        self._pipeline.close()
        self._drained.set()
        perf.add("serve.drained")

    async def wait_drained(self) -> None:
        """Block until a drain (requested from anywhere) completes."""
        if self._drained is None:
            self._drained = asyncio.Event()
        await self._drained.wait()

    async def __aenter__(self) -> "DeltaServer":
        await self.start()
        return self

    async def __aexit__(self, *_exc) -> None:
        await self.drain()

    # -- connection handling --------------------------------------------

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._handle_connection(reader, writer)
        except Exception:
            # The accept loop must survive anything a connection throws;
            # per-connection damage is contained here.
            self.counters["errors"] += 1
            perf.add("serve.handler.errors")
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self.counters["connections"] += 1
        perf.add("serve.connections")
        plan = self.config.fault_plan
        if plan is not None:
            self._accepts += 1
            try:
                plan.check("serve.accept", scope="serve", index=self._accepts)
            except ReproError:
                # Injected accept fault: the connection drops before the
                # request is read.  The client sees a truncated stream.
                self.counters["accept_faults"] += 1
                perf.add("serve.accept.faults")
                return
        if self._draining:
            await self._send_error(writer, "", ERR_DRAINING,
                                   "server is draining")
            return
        try:
            ftype, payload = await read_frame(reader)
        except IntegrityError as exc:
            # Truncated or corrupt request frame: answer structurally if
            # the socket still works, then drop the connection.
            perf.add("serve.frame.errors")
            await self._send_error(writer, "", ERR_BAD_REQUEST,
                                   describe_failure(exc))
            return
        if ftype != T_PULL:
            await self._send_error(writer, "", ERR_BAD_REQUEST,
                                   "expected PULL, got frame type 0x%02x"
                                   % ftype)
            return

        # Explicit backpressure: over the inflight ceiling the request
        # is refused with a structured RETRY — clients back off and
        # come back; nothing queues.
        if self._active_requests >= self.config.max_inflight:
            self.counters["refused"] += 1
            perf.add("serve.refused")
            await self._send_frame(writer, "", T_RETRY, encode_msg(
                {"retry_after": self.config.retry_after}))
            return

        self._active_requests += 1
        try:
            self.counters["requests"] += 1
            perf.add("serve.requests")
            if self.config.request_timeout is not None:
                try:
                    await asyncio.wait_for(
                        self._serve_pull(writer, payload),
                        timeout=self.config.request_timeout)
                except asyncio.TimeoutError:
                    self.counters["deadline"] += 1
                    perf.add("serve.deadline")
                    await self._send_error(writer, "", ERR_DEADLINE,
                                           "request deadline exceeded")
            else:
                await self._serve_pull(writer, payload)
        finally:
            self._active_requests -= 1

    async def _serve_pull(self, writer: asyncio.StreamWriter,
                          payload: bytes) -> None:
        try:
            msg = decode_msg(payload)
        except IntegrityError as exc:
            await self._send_error(writer, "", ERR_BAD_REQUEST,
                                   describe_failure(exc))
            return
        package = msg.get("package")
        have = msg.get("have")
        want = msg.get("want", "latest")
        offset = msg.get("offset", 0)
        if not isinstance(package, str) or not isinstance(have, str) \
                or not isinstance(want, str) or not isinstance(offset, int) \
                or offset < 0:
            await self._send_error(writer, "", ERR_BAD_REQUEST,
                                   "malformed pull request fields")
            return
        scope = "%s|%s" % (package, have[:12])
        if package not in self.store:
            await self._send_error(writer, scope, ERR_UNKNOWN_PACKAGE,
                                   "unknown package %r" % package)
            return
        try:
            reference = self.store.get(package, have)
        except KeyError:
            await self._send_error(
                writer, scope, ERR_UNKNOWN_VERSION,
                "package %r has no version with digest %s" % (package, have))
            return
        if want == "latest":
            want_digest, _target = self.store.latest(package)
        else:
            want_digest = want
            try:
                self.store.get(package, want_digest)
            except KeyError:
                await self._send_error(
                    writer, scope, ERR_UNKNOWN_VERSION,
                    "package %r has no version with digest %s"
                    % (package, want_digest))
                return
        if want_digest == have:
            await self._send_error(writer, scope, ERR_UP_TO_DATE,
                                   "client already holds %s" % want_digest)
            return

        try:
            delta = await self._payload_for(package, have, want_digest)
        except _EncodeFailed as exc:
            await self._send_error(writer, scope, ERR_ENCODE_FAILED, str(exc))
            return
        if offset > len(delta):
            await self._send_error(
                writer, scope, ERR_BAD_REQUEST,
                "resume offset %d beyond payload of %d bytes"
                % (offset, len(delta)))
            return

        meta = {
            "length": len(delta),
            "crc32": zlib.crc32(delta) & 0xFFFFFFFF,
            "want": want_digest,
            "offset": offset,
            "algorithm": self.config.algorithm,
        }
        await self._send_frame(writer, scope, T_META, encode_msg(meta))
        chunk = self.config.chunk_size
        for start in range(offset, len(delta), chunk):
            await self._send_frame(writer, scope, T_DATA,
                                   delta[start:start + chunk])
        await self._send_frame(writer, scope, T_END, encode_msg(
            {"crc32": meta["crc32"]}))
        self.counters["served"] += 1
        perf.add("serve.served")
        perf.add("serve.bytes", len(delta) - offset)

    # -- encoding with coalescing ---------------------------------------

    async def _payload_for(self, package: str, have: str,
                           want: str) -> bytes:
        """The encoded delta for one (package, have, want) pair.

        Cache first; then the coalescing map — concurrent requests for
        the same pair share one encode task (awaited through
        ``shield``, so one waiter hitting its deadline cannot cancel
        the encode out from under the rest); a cold pair dispatches the
        pipeline onto the encode thread pool.
        """
        key = (package, have, want)
        cached = self._payload_cache.get(key)
        if cached is not None:
            self.counters["payload_hits"] += 1
            perf.add("serve.payload.hits")
            return cached
        task = self._inflight_encodes.get(key)
        if task is None:
            task = self._loop.create_task(self._encode(key))
            self._inflight_encodes[key] = task

            def _finished(_t: "asyncio.Task", _key=key) -> None:
                self._inflight_encodes.pop(_key, None)
                if not _t.cancelled():
                    # Consume the exception: if every waiter was
                    # cancelled by its deadline, nobody else retrieves
                    # it and asyncio would log a spurious warning.
                    _t.exception()

            task.add_done_callback(_finished)
        else:
            self.counters["coalesced"] += 1
            perf.add("serve.coalesced")
        return await asyncio.shield(task)

    async def _encode(self, key: Tuple[str, str, str]) -> bytes:
        package, have, want = key
        # A store holding the versions as a delta chain can usually
        # collapse it into one payload far cheaper than a fresh diff;
        # the pipeline is the fallback, not the default.  Runs on the
        # encode pool — composition is CPU work too.
        try:
            chained = await self._loop.run_in_executor(
                self._encode_pool, self.store.chain, package, have, want)
        except ReproError:
            # A damaged chain must not take the serving path down; the
            # pipeline below re-diffs from the materialized images (and
            # surfaces its own error if those are unreadable too).
            chained = None
        if chained is not None:
            self.counters["chain_served"] += 1
            perf.add("serve.chain_served")
            self._payload_cache.put(key, chained, len(chained))
            return chained
        reference = self.store.get(package, have)
        target = self.store.get(package, want)
        job = PipelineJob(reference=reference, version=target,
                          name="%s:%s->%s" % (package, have[:8], want[:8]))
        self.counters["encodes"] += 1
        perf.add("serve.encodes")
        result = await self._loop.run_in_executor(
            self._encode_pool, self._encode_sync, job)
        if result.report.quarantined:
            raise _EncodeFailed(result.report.failure
                                or "encode quarantined")
        self._payload_cache.put(key, result.payload, len(result.payload))
        return result.payload

    def _encode_sync(self, job: PipelineJob):
        return self._pipeline.run([job]).results[0]

    # -- frame sending (the serve.frame corruption site) ----------------

    async def _send_frame(self, writer: asyncio.StreamWriter, scope: str,
                          ftype: int, payload: bytes) -> None:
        data = protocol.encode_frame(ftype, payload)
        plan = self.config.fault_plan
        if plan is not None:
            index = self._frame_indices.get(scope, 0) + 1
            self._frame_indices[scope] = index
            offset = plan.flip_offset("serve.frame", scope, index,
                                      len(data))
            if offset is not None:
                # One bit flipped on the wire; the client's frame CRC
                # must report it as IntegrityError(kind="frame").
                corrupt = bytearray(data)
                corrupt[offset] ^= 0x01
                data = bytes(corrupt)
                self.counters["frame_corruptions"] += 1
                perf.add("serve.frame.corruptions")
        try:
            writer.write(data)
            await writer.drain()
        except (ConnectionError, OSError):
            # The peer went away mid-response (dropped, or gave up).
            # Its pull client will retry and resume; nothing to do here.
            pass

    async def _send_error(self, writer: asyncio.StreamWriter, scope: str,
                          code: str, message: str) -> None:
        self.counters["errors"] += 1
        perf.add("serve.errors")
        await self._send_frame(writer, scope, T_ERROR, encode_msg(
            {"code": code, "message": message}))


__all__ = [
    "DeltaServer",
    "ServeConfig",
]
