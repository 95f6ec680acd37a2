"""Spans around the program's layer entry points, recorded from outside ``src``.

Each wrapper replaces a name where its caller looks it up (for example
``compose_chain`` in ``repro.store.packstore``, which imported it) and
records one span per call: ``(id, name, start, end, parent, key)``.
Parents come from a context variable, so they follow a thread or an
asyncio task.  A root span carries the op key ``(package, have[:8],
want[:8])`` for a pull or ``(package, digest[:8])`` for a publish; the
load process joins the program's spans to its own ops through that key.
Start and end are ``time.perf_counter()`` readings, which on Linux come
from the system-wide monotonic clock, so spans of different processes
share one time line.

Run as a script, this module boots a program process under tracing::

    python3 perfbench/tracing.py SPANS.json -m repro.cli serve ...
    python3 perfbench/tracing.py SPANS.json perfbench/publisher.py DIR

It installs the program-side wrappers, turns on the program's own
``repro.perf.recording()`` counters, runs the program as ``__main__``
and writes spans and counters to ``SPANS.json`` when the program exits.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import runpy
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[int]]" = contextvars.ContextVar(
    "perfbench_span", default=None)


class Tracer:
    """In-memory span and count store of one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = {}
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, key: Optional[tuple] = None) -> Iterator[list]:
        """Record one span; the yielded list's slot 0 may set the key."""
        sid = next(self._ids)
        parent = _CURRENT.get()
        token = _CURRENT.set(sid)
        slot = [key]
        start = time.perf_counter()
        try:
            yield slot
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append((sid, name, start, end, parent, slot[0]))

    def count(self, name: str, value: float = 1) -> None:
        """Count ``value`` under ``name``, only inside some span."""
        if _CURRENT.get() is not None:
            self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn: Callable, name: str,
             key: Optional[Callable] = None,
             key_after: Optional[Callable] = None) -> Callable:
        """``fn`` recording a span per call.

        ``key(args, kwargs)`` keys the span at entry; ``key_after(args,
        result)`` keys it from the return value.
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                with self.span(name, key(args, kwargs) if key else None):
                    return await fn(*args, **kwargs)
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, key(args, kwargs) if key else None) as slot:
                result = fn(*args, **kwargs)
                if key_after is not None:
                    slot[0] = key_after(args, result)
                return result
        return traced

    def patch(self, owner: object, attr: str, name: str, **keys) -> None:
        setattr(owner, attr, self.wrap(getattr(owner, attr), name, **keys))

    def dump(self, path: str, counters: Dict[str, float]) -> None:
        with open(path, "w") as handle:
            json.dump({"pid": os.getpid(), "spans": self.spans,
                       "counts": self.counts, "counters": counters}, handle)


TRACER = Tracer()


def _pull_key(package: str, have: str, want: str) -> tuple:
    return (package, have[:8], want[:8])


def _job_key(args, _kwargs) -> Optional[tuple]:
    # DeltaServer names its jobs "package:have8->want8".
    package, _, pair = args[1][0].name.rpartition(":")
    have, _, want = pair.partition("->")
    return (package, have, want)


def _request_key(args, _kwargs) -> Optional[tuple]:
    from repro.serve.protocol import decode_msg

    msg = decode_msg(args[2])
    return _pull_key(msg["package"], msg["have"], msg["want"])


def install_program(tracer: Tracer = TRACER) -> None:
    """Wrap the layer entry points of a daemon or publisher process."""
    from repro.delta import correcting, rolling
    from repro.pipeline import cache, executor
    from repro.serve import daemon
    from repro.store import packstore

    tracer.patch(daemon.DeltaServer, "_serve_pull", "serve.request",
                 key=_request_key)
    tracer.patch(packstore.PackStore, "chain", "store.chain",
                 key=lambda a, k: _pull_key(*a[1:4]))
    tracer.patch(packstore.PackStore, "publish", "store.publish",
                 key_after=lambda a, digest: (a[1], digest[:8]))
    tracer.patch(executor.DeltaPipeline, "run", "pipeline.encode",
                 key=_job_key)
    for module in (packstore, executor):
        module.ALGORITHMS = {name: tracer.wrap(fn, "delta.diff")
                             for name, fn in module.ALGORITHMS.items()}
        tracer.patch(module, "make_in_place", "core.convert")
        tracer.patch(module, "encode_delta", "delta.encode")
        tracer.patch(module, "decode_delta", "delta.decode")
    tracer.patch(packstore, "compose_chain", "core.compose")
    # The correcting differ's seed-table build, cold or through the
    # reference cache.
    for module in (correcting, cache):
        tracer.patch(module, "seed_fingerprints", "delta.index_build")
    tracer.patch(rolling.SeedTable, "from_fingerprints", "delta.index_build")

    # Store write accounting: fsyncs, index rewrites and pack appends.
    fsync = os.fsync

    def counted_fsync(fd):
        tracer.count("store.fsyncs")
        return fsync(fd)

    write_atomic = packstore.write_atomic

    def counted_write_atomic(path, data, **kwargs):
        tracer.count("store.bytes_written", len(data))
        return write_atomic(path, data, **kwargs)

    append = packstore.PackStore._append

    def counted_append(self, chunks):
        tracer.count("store.bytes_written", sum(len(c) for c in chunks))
        return append(self, chunks)

    os.fsync = counted_fsync
    packstore.write_atomic = counted_write_atomic
    packstore.PackStore._append = counted_append


def install_client(tracer: Tracer = TRACER) -> None:
    """Wrap the pull client and device entry points in the load process."""
    from repro.device import journal
    from repro.serve import client

    tracer.patch(client, "read_frame", "client.download")
    tracer.patch(client, "write_frame", "client.download")
    tracer.patch(client, "decode_delta", "device.decode")
    tracer.patch(client, "preflight_in_place", "device.verify")
    tracer.patch(client, "storage_crc32", "device.verify")
    tracer.patch(journal.JournaledApplier, "run", "device.apply")


# -- attribution ------------------------------------------------------------

#: Depth of each keyed program root in an op's span tree.  The op is
#: depth 0 and the client's download and device spans depth 1.  A publish
#: sits directly below its op; a daemon request below the download that
#: awaits it; the store or pipeline call that a request runs on an encode
#: thread below that request.
ROOT_DEPTH = {"store.publish": 1, "serve.request": 2,
              "store.chain": 3, "pipeline.encode": 3}
#: Spans that mean the daemon or the device is working on the op.
WORKING = ("device.", "serve.", "store.", "pipeline.", "core.", "delta.")


def _trees(spans: List[tuple]) -> Dict[int, Tuple[tuple, int]]:
    """sid -> (root span above it, depth below that root)."""
    by_id = {s[0]: s for s in spans}
    out: Dict[int, Tuple[tuple, int]] = {}
    for span in spans:
        cur, depth = span, 0
        while cur[4] in by_id:
            cur, depth = by_id[cur[4]], depth + 1
        out[span[0]] = (cur, depth)
    return out


def attribute(ops: List[tuple], client_spans: List[tuple],
              program_spans: List[tuple]) -> Dict[str, float]:
    """Charge every instant of every op to its innermost active span.

    ``ops`` are the load process's op spans (key, start, end, sid).  The
    client's own spans hang below an op by parent id; the program's spans
    join an op by their root's key.  At each instant of an op the deepest
    active span wins; an instant no span covers is ``unattributed``.
    Returns seconds per span name, plus ``unattributed`` and ``wait``
    (instants covered by no daemon, store or device span).
    """
    members: Dict[object, List[Tuple[int, tuple]]] = {}
    client = _trees(client_spans)
    for span in client_spans:
        root, depth = client[span[0]]
        if depth:
            members.setdefault(root[0], []).append((depth, span))
    program = _trees(program_spans)
    for span in program_spans:
        root, depth = program[span[0]]
        if root[5] is not None:
            members.setdefault(tuple(root[5]), []).append(
                (ROOT_DEPTH[root[1]] + depth, span))

    totals: Dict[str, float] = {"unattributed": 0.0, "wait": 0.0}
    for key, start, end, sid in ops:
        spans = members.get(sid, []) + members.get(tuple(key), [])
        edges = sorted({start, end} | {t for _, s in spans
                                       for t in (s[2], s[3])
                                       if start < t < end})
        for lo, hi in zip(edges, edges[1:]):
            mid = (lo + hi) / 2
            active = [(d, s[1]) for d, s in spans if s[2] <= mid < s[3]]
            if active:
                name = max(active)[1]
                totals[name] = totals.get(name, 0.0) + hi - lo
            else:
                totals["unattributed"] += hi - lo
            if not any(n.startswith(WORKING) for _, n in active):
                totals["wait"] += hi - lo
    return totals


def main(argv: List[str]) -> int:
    out, rest = argv[1], argv[2:]
    install_program()
    from repro import perf

    code = 0
    with perf.recording() as recorder:
        try:
            if rest[0] == "-m":
                sys.argv = [rest[1]] + rest[2:]
                runpy.run_module(rest[1], run_name="__main__", alter_sys=True)
            else:
                sys.argv = list(rest)
                runpy.run_path(rest[0], run_name="__main__")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            TRACER.dump(out, recorder.counters)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
