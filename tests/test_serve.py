"""End-to-end serve/pull suite: the daemon's robustness contract.

Every test drives a real :class:`~repro.serve.DeltaServer` on an
ephemeral loopback port and real :func:`~repro.serve.pull_async`
clients — the full framed protocol, the warm pipeline, the journaled
apply.  Covered here: byte-exact pulls, request coalescing (K identical
pulls, exactly one encode), explicit backpressure, per-request
deadlines, structured server errors, graceful drain with in-flight
pulls completing, download resume under injected frame corruption and
connection drops, power-cut resume via the journal, crash-safe resume
from a :class:`~repro.serve.PullState` directory, and the
``backoff_delay`` retry backoff (byte-reproducible, shared with the
pipeline and the updater).  Control frames the client cannot use come
from a throwaway server that speaks the framing but not the daemon's
fields.
"""

import asyncio
import os
import random
import time
import zlib

import pytest

from repro import perf
from repro.faults import FaultPlan, jitter_draw
from repro.pipeline import ReferenceIndexCache
from repro.serve import (
    DeltaServer,
    PullState,
    ServeConfig,
    pull_async,
)
from repro.serve.protocol import (
    T_DATA,
    T_END,
    T_META,
    T_RETRY,
    encode_msg,
    read_frame,
    write_frame,
)
import repro.serve.client as client_module
from repro.store import MemoryStore
from repro.workloads import make_binary_blob, mutate

SEED = 19980601


def _corpus(size=16384, releases=2, seed=SEED):
    rng = random.Random(seed)
    store = MemoryStore()
    old = make_binary_blob(rng, size)
    chain = [old]
    store.publish("pkg", old)
    for _ in range(releases - 1):
        chain.append(mutate(chain[-1], rng))
        store.publish("pkg", chain[-1])
    return store, chain


def _server(store, **overrides):
    return DeltaServer(store, ServeConfig(port=0, **overrides))


class TestReleaseStore:
    """The daemon's in-memory release ledger, :class:`MemoryStore`."""

    def test_publish_resolve_latest(self):
        store, chain = _corpus(size=2048, releases=3)
        digest, latest = store.latest("pkg")
        assert latest == chain[-1]
        assert digest == ReferenceIndexCache.digest(chain[-1])
        assert store.get("pkg", MemoryStore.digest(chain[0])) == chain[0]

    def test_republish_moves_to_head(self):
        store = MemoryStore()
        store.publish("pkg", b"alpha")
        store.publish("pkg", b"beta")
        store.publish("pkg", b"alpha")
        _digest, latest = store.latest("pkg")
        assert latest == b"alpha"


class TestEndToEnd:
    def test_pull_applies_byte_exact(self):
        store, chain = _corpus()

        async def go():
            async with _server(store) as server:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0])

        outcome = asyncio.run(go())
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.boots == 1 and outcome.power_cuts == 0
        assert outcome.want == MemoryStore.digest(chain[-1])
        assert outcome.payload_bytes > 0

    def test_pull_explicit_want_digest(self):
        store, chain = _corpus(releases=3)
        middle = MemoryStore.digest(chain[1])

        async def go():
            async with _server(store) as server:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], want=middle)

        outcome = asyncio.run(go())
        assert outcome.status == "applied"
        assert outcome.image == chain[1]

    def test_up_to_date_is_a_clean_apply(self):
        store, chain = _corpus()

        async def go():
            async with _server(store) as server:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[-1])

        outcome = asyncio.run(go())
        assert outcome.status == "applied"
        assert outcome.reason == "already up to date"
        assert outcome.image == chain[-1]

    def test_unknown_package_is_structured_failure(self):
        store, chain = _corpus()

        async def go():
            async with _server(store) as server:
                return await pull_async(server.host, server.port, "nope",
                                        chain[0])

        outcome = asyncio.run(go())
        assert outcome.status == "failed"
        assert "unknown-package" in outcome.reason

    def test_unknown_reference_digest_is_structured_failure(self):
        store, _chain = _corpus()

        async def go():
            async with _server(store) as server:
                return await pull_async(server.host, server.port, "pkg",
                                        b"bytes the server never published")

        outcome = asyncio.run(go())
        assert outcome.status == "failed"
        assert "unknown-version" in outcome.reason


class TestCoalescing:
    def test_k_identical_pulls_one_encode_identical_payloads(self):
        store, chain = _corpus()
        k = 8

        async def go(server):
            await server.start()
            try:
                return await asyncio.gather(*(
                    pull_async(server.host, server.port, "pkg", chain[0],
                               scope="dev%02d" % i)
                    for i in range(k)))
            finally:
                await server.drain()

        with perf.recording() as recorder:
            server = _server(store)
            outcomes = asyncio.run(go(server))
        assert recorder.counters.get("serve.encodes") == 1
        assert server.counters["encodes"] == 1
        assert (server.counters["coalesced"]
                + server.counters["payload_hits"]) == k - 1
        assert all(o.status == "applied" for o in outcomes)
        assert all(o.image == chain[-1] for o in outcomes)
        # Byte-identical payloads: same length, same CRC32, everywhere.
        crcs = {o.payload_crc32 for o in outcomes}
        sizes = {o.payload_bytes for o in outcomes}
        assert len(crcs) == 1 and len(sizes) == 1
        assert crcs.pop() != 0

    def test_distinct_pairs_encode_independently(self):
        store, chain = _corpus(releases=3)

        async def go(server):
            await server.start()
            try:
                return await asyncio.gather(
                    pull_async(server.host, server.port, "pkg", chain[0]),
                    pull_async(server.host, server.port, "pkg", chain[1]),
                )
            finally:
                await server.drain()

        server = _server(store)
        outcomes = asyncio.run(go(server))
        assert server.counters["encodes"] == 2
        assert all(o.status == "applied" for o in outcomes)
        assert all(o.image == chain[-1] for o in outcomes)


def _slow_encode(server, delay):
    """Wrap the server's pipeline encode with a sleep (test hook)."""
    inner = server._encode_sync

    def slow(job):
        time.sleep(delay)
        return inner(job)

    server._encode_sync = slow


class TestBackpressure:
    def test_overload_is_refused_with_retry_after(self):
        store, chain = _corpus(size=4096)

        async def go(server):
            _slow_encode(server, 0.3)
            await server.start()
            try:
                return await asyncio.gather(*(
                    pull_async(server.host, server.port, "pkg", chain[0],
                               scope="dev%d" % i, max_attempts=1)
                    for i in range(4)))
            finally:
                await server.drain()

        server = _server(store, max_inflight=1, retry_after=0.02)
        outcomes = asyncio.run(go(server))
        statuses = sorted(o.status for o in outcomes)
        assert statuses.count("applied") == 1
        assert statuses.count("refused") == 3
        assert server.counters["refused"] == 3
        for outcome in outcomes:
            if outcome.status == "refused":
                assert outcome.retry_after == pytest.approx(0.02)
                assert "backpressure" in outcome.reason

    def test_client_rides_through_transient_overload(self):
        store, chain = _corpus(size=4096)

        async def go(server):
            _slow_encode(server, 0.1)
            await server.start()
            try:
                return await asyncio.gather(*(
                    pull_async(server.host, server.port, "pkg", chain[0],
                               scope="dev%d" % i, max_attempts=8,
                               backoff_base=0.01)
                    for i in range(4)))
            finally:
                await server.drain()

        server = _server(store, max_inflight=1, retry_after=0.02)
        outcomes = asyncio.run(go(server))
        assert all(o.status == "applied" for o in outcomes)
        assert all(o.image == chain[-1] for o in outcomes)
        # At least one client was refused first and retried its way in.
        assert server.counters["refused"] >= 1


class TestDeadline:
    def test_deadline_hit_is_structured(self):
        store, chain = _corpus(size=4096)

        async def go(server):
            _slow_encode(server, 0.5)
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], max_attempts=1)
            finally:
                await server.drain()

        server = _server(store, request_timeout=0.05)
        outcome = asyncio.run(go(server))
        assert outcome.status == "failed"
        assert "deadline" in outcome.reason
        assert server.counters["deadline"] == 1


class TestFaultSites:
    def test_accept_fault_drops_connection_then_pull_recovers(self):
        store, chain = _corpus()
        plan = FaultPlan.parse("serve.accept:nth=1", seed=7)

        async def go(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], max_attempts=3)
            finally:
                await server.drain()

        server = _server(store, fault_plan=plan)
        outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.attempts == 2
        assert server.counters["accept_faults"] == 1
        assert any("truncated" in f or "frame" in f for f in outcome.faults)

    def test_frame_corruption_detected_and_download_resumes(self):
        store, chain = _corpus(size=32768)
        # Frame 3 for this request scope is the second DATA chunk: the
        # client has one verified chunk buffered when the CRC trips.
        plan = FaultPlan.parse("serve.frame:nth=3", seed=7)

        async def go(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], max_attempts=3)
            finally:
                await server.drain()

        server = _server(store, fault_plan=plan, chunk_size=512)
        outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert server.counters["frame_corruptions"] == 1
        assert any("CRC" in f for f in outcome.faults)
        assert outcome.resumes == 1
        assert outcome.resumed_bytes > 0

    def test_client_recv_drop_resumes_mid_download(self):
        store, chain = _corpus(size=32768)
        plan = FaultPlan.parse("client.recv:nth=4", seed=7)

        async def go(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], fault_plan=plan,
                                        max_attempts=3)
            finally:
                await server.drain()

        server = _server(store, chunk_size=512)
        outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.resumes == 1
        assert outcome.resumed_bytes > 0
        assert any("TransmissionError" in f for f in outcome.faults)

    def test_power_cut_rides_the_journal(self):
        store, chain = _corpus()
        plan = FaultPlan.parse("device.power:nth=1:fuel=700", seed=7)

        async def go(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], fault_plan=plan)
            finally:
                await server.drain()

        server = _server(store)
        outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.power_cuts == 1
        assert outcome.boots == 2


class TestJitterBackoff:
    """Satellite: pull retry backoff reuses ``jitter_draw`` exactly."""

    def _delays(self, monkeypatch, seed):
        store, chain = _corpus(size=4096)
        delays = []

        async def fake_sleep(delay):
            delays.append(delay)

        monkeypatch.setattr(client_module, "_async_sleep", fake_sleep)
        plan = FaultPlan.parse("serve.accept:count=2", seed=seed)

        async def go(server):
            await server.start()
            try:
                return await pull_async(
                    server.host, server.port, "pkg", chain[0],
                    scope="dev-jitter", fault_plan=plan,
                    max_attempts=4, backoff_base=0.25,
                    backoff_factor=2.0, backoff_jitter=0.5,
                    backoff_cap=1.0)
            finally:
                await server.drain()

        # The *client's* fault plan carries the seed the jitter derives
        # from; the same plan drives the server's accept drops so the
        # retries actually happen.
        server = _server(store, fault_plan=plan)
        outcome = asyncio.run(go(server))
        assert outcome.status == "applied"
        assert outcome.attempts == 3
        return delays

    def test_backoff_matches_pure_formula_and_reproduces(self, monkeypatch):
        first = self._delays(monkeypatch, seed=99)
        second = self._delays(monkeypatch, seed=99)
        assert first and first == second
        expected = [
            min(1.0, 0.25 * (2.0 ** (attempt - 1)))
            * (1.0 + 0.5 * jitter_draw(99, "dev-jitter", attempt))
            for attempt in (1, 2)
        ]
        assert first == pytest.approx(expected)
        assert self._delays(monkeypatch, seed=7) != first


#: A META the client can act on; the cases below break one field.
GOOD_META = {"length": 7, "crc32": zlib.crc32(b"payload"), "offset": 0,
             "want": "w" * 40}


async def _pull_from_stub(frames):
    """Pull from a server that answers every PULL with ``frames``."""
    async def answer(reader, writer):
        await read_frame(reader)
        for ftype, payload in frames:
            await write_frame(writer, ftype, payload)
        writer.close()

    server = await asyncio.start_server(answer, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await pull_async("127.0.0.1", port, "pkg", b"image",
                                max_attempts=2, io_timeout=5.0)
    finally:
        server.close()
        await server.wait_closed()


class TestMalformedControl:
    """A CRC-valid control frame with an unusable field ends the pull
    "failed" with a reason; it never escapes as a raw exception."""

    @pytest.mark.parametrize("field, value", [
        ("length", None), ("length", "7"), ("crc32", -1),
        ("offset", True), ("want", 5),
    ])
    def test_bad_meta_field_fails_the_pull(self, field, value):
        meta = dict(GOOD_META)
        if value is None:
            del meta[field]
        else:
            meta[field] = value
        outcome = asyncio.run(_pull_from_stub([
            (T_META, encode_msg(meta)), (T_DATA, b"payload"),
            (T_END, b"")]))
        assert outcome.status == "failed"
        assert outcome.attempts == 2
        assert "IntegrityError: META field %r" % field in outcome.reason

    @pytest.mark.parametrize("hint", [{"retry_after": "soon"}, {},
                                      {"retry_after": -1.0}])
    def test_bad_retry_hint_fails_the_pull(self, hint):
        outcome = asyncio.run(_pull_from_stub([(T_RETRY, encode_msg(hint))]))
        assert outcome.status == "failed"
        assert "IntegrityError: RETRY field 'retry_after'" in outcome.reason

    @pytest.mark.parametrize("saved", [
        b"[1, 2]", b'{"want": "w"}',
        b'{"crc32": 0, "length": "7", "offset": 0, "want": "w"}',
    ])
    def test_unusable_saved_meta_is_discarded(self, tmp_path, saved):
        store, chain = _corpus(size=4096)
        state = PullState(tmp_path / "pull-state")
        state.save_payload(b"stale payload", dict(GOOD_META))
        (state.root / "meta.json").write_bytes(saved)

        async def go(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], state=state)
            finally:
                await server.drain()

        outcome = asyncio.run(go(_server(store)))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.resumes == 0


class TestDrain:
    def test_inflight_pulls_complete_new_connections_fail(self):
        store, chain = _corpus(size=8192)

        async def go(server):
            _slow_encode(server, 0.2)
            await server.start()
            host, port = server.host, server.port
            inflight = [
                asyncio.ensure_future(
                    pull_async(host, port, "pkg", chain[0],
                               scope="dev%d" % i))
                for i in range(3)
            ]
            await asyncio.sleep(0.05)  # let them reach the server
            drainer = asyncio.ensure_future(server.drain())
            outcomes = await asyncio.gather(*inflight)
            await drainer
            late = await pull_async(host, port, "pkg", chain[0],
                                    max_attempts=2)
            return outcomes, late

        server = _server(store, max_inflight=8)
        outcomes, late = asyncio.run(go(server))
        assert all(o.status == "applied" for o in outcomes)
        assert all(o.image == chain[-1] for o in outcomes)
        assert late.status == "failed"
        assert "exhausted" in late.reason

    def test_drain_is_idempotent(self):
        store, _chain = _corpus(size=2048)

        async def go(server):
            await server.start()
            await asyncio.gather(server.drain(), server.drain())
            await server.drain()

        asyncio.run(go(_server(store)))


class TestPullState:
    def test_saves_fsync_each_file_and_its_directory(self, tmp_path,
                                                     monkeypatch):
        state = PullState(tmp_path / "pull-state")
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        state.save_payload(b"payload", {"want": "w", "length": 7})
        # Two files, each fsynced before its rename, then the directory.
        assert len(synced) == 4
        state.save_apply(b"storage", b"journal")
        assert len(synced) == 8
        monkeypatch.undo()
        assert state.load_payload() == (bytearray(b"payload"),
                                        {"want": "w", "length": 7})
        assert state.load_apply() == (b"storage", b"journal")
        assert sorted(p.name for p in state.root.iterdir()) == [
            "journal.bin", "meta.json", "payload.bin", "storage.bin"]

    def test_power_exhausted_pull_resumes_from_state_dir(self, tmp_path):
        store, chain = _corpus()
        # Every boot of the first invocation dies mid-apply.
        plan = FaultPlan.parse("device.power:count=4:fuel=700", seed=7)
        state = PullState(tmp_path / "pull-state")

        async def first(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], fault_plan=plan,
                                        max_boots=2, state=state)
            finally:
                await server.drain()

        server = _server(store)
        outcome = asyncio.run(first(server))
        assert outcome.status == "failed"
        assert "power failed" in outcome.reason
        assert outcome.power_cuts == 2

        # Second invocation: no network needed — the payload, journal,
        # and partially-mutated image all come from the state directory,
        # and the applier re-verifies applied regions via applied_crc.
        resumed = asyncio.run(pull_async(
            "127.0.0.1", 1, "pkg", chain[0], state=state))
        assert resumed.status == "applied"
        assert resumed.image == chain[-1]
        assert resumed.attempts == 0  # never opened a connection
        assert resumed.boots >= 1

        # Success cleared the state directory.
        buf, meta = state.load_payload()
        assert meta is None and not buf

    def test_partial_download_survives_process_death(self, tmp_path):
        store, chain = _corpus(size=32768)
        state = PullState(tmp_path / "pull-state")

        # Fetch the payload by speaking the protocol directly, then seed
        # the state directory with its first half — the moral equivalent
        # of a pull whose process died mid-download.
        async def payload_bytes(server):
            from repro.serve.protocol import (
                T_END, T_META, T_PULL, decode_msg, encode_msg,
                read_frame, write_frame,
            )
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port)
                await write_frame(writer, T_PULL, encode_msg({
                    "package": "pkg",
                    "have": MemoryStore.digest(chain[0]),
                    "want": "latest", "offset": 0}))
                ftype, payload = await read_frame(reader)
                assert ftype == T_META
                meta = decode_msg(payload)
                blob = bytearray()
                while True:
                    ftype, payload = await read_frame(reader)
                    if ftype == T_END:
                        break
                    blob.extend(payload)
                writer.close()
                return meta, bytes(blob)
            finally:
                await server.drain()

        meta, blob = asyncio.run(payload_bytes(_server(store)))
        assert zlib.crc32(blob) & 0xFFFFFFFF == meta["crc32"]
        state.save_payload(blob[:len(blob) // 2], meta)

        # A fresh pull with that state must resume, not restart.
        async def seeded(server):
            await server.start()
            try:
                return await pull_async(server.host, server.port, "pkg",
                                        chain[0], state=state)
            finally:
                await server.drain()

        outcome = asyncio.run(seeded(_server(store)))
        assert outcome.status == "applied"
        assert outcome.image == chain[-1]
        assert outcome.resumes == 1
        assert outcome.resumed_bytes == len(blob) // 2
