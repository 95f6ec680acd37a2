"""Release-path benchmark: publish a version, serve it, apply it in place.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pull_chain --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

``publish_train``
    A publisher process (``perfbench/publisher.py``) over a fresh on-disk
    ``PackStore`` receives 3 packages x 25 releases of 128 KiB,
    round-robin.  One op is one ``PackStore.publish``.
``pull_chain``
    ``ipdelta serve --store-dir`` over a pack store of 3 packages x 13
    releases of 32 KiB; every pull is served by ``PackStore.chain()``.
``pull_encode``
    ``ipdelta serve --publish`` (the in-memory store) over the same
    trains; every pull is a fresh ``DeltaPipeline`` encode.

Every op is fixed by ``--seed``: the trains, the publish order and the
pull order, so counts and byte ratios repeat exactly across runs.  The
work per run is fixed too, never "as many as fit": ``--seconds`` is
recorded in the diagnostics and bounds nothing.  A pull workload pulls
every distinct (have < want) pair once over two closed-loop
connections.  Each pull is timed from the request to the end of the
byte-exact check of the installed image against the benchmark's own
copy.

The program runs in its own processes, started the way users start
them; this load process times every op from outside and reads the
program's CPU and peak RSS from ``/proc``.  Elapsed times are taken on
the VM's own clock: wall time less the host steal ``/proc/stat`` counts
over the same interval (see :func:`net`).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload twice (plain, then
traced) and prints the per-layer metrics.  The last stdout line is one
JSON object; the line before it holds the run's diagnostics.  The exit
status is 0 only when every op was correct and the workload stayed on
its code path.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import re
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from typing import Dict, List, NamedTuple, Optional, Tuple

import procs
import tracing
import trains as trains_mod
from procs import Program, ProgramError

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

KIB = 1024
#: (packages, releases, image bytes) per workload and size.
SIZES = {
    "full": {"publish_train": (3, 25, 128 * KIB),
             "pull_chain": (3, 13, 32 * KIB),
             "pull_encode": (3, 13, 32 * KIB)},
    "tiny": {"publish_train": (2, 4, 8 * KIB),
             "pull_chain": (2, 4, 8 * KIB),
             "pull_encode": (2, 4, 8 * KIB)},
}
#: Program starts per run; set-up time is their median.
SETUP_STARTS = {"full": 5, "tiny": 1}
#: Samples kept beyond the tail percentile.
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "op_cpu_ms": "ms",
    "device_cpu_ms": "ms",
    "image_mb_s": "MB/s",
    "wire_bytes_per_image_byte": "ratio",
    "store_bytes_per_image_byte": "ratio",
    "peak_rss_mb": "MB",
}
LAYER_UNITS = {
    "delta.diff_ms": "ms",
    "delta.index_build_ms": "ms",
    "delta.encode_ms": "ms",
    "delta.decode_ms": "ms",
    "core.compose_ms": "ms",
    "core.convert_ms": "ms",
    "core.evicted_bytes": "B",
    "pipeline.encode_ms": "ms",
    "pipeline.cache_hit_ratio": "ratio",
    "store.publish_self_ms": "ms",
    "store.fsyncs_per_op": "count",
    "store.bytes_written_per_op": "B",
    "store.delta_ratio": "ratio",
    "store.publishes": "count",
    "store.chain_self_ms": "ms",
    "store.hop_reuse_ratio": "ratio",
    "store.cache_hit_ratio": "ratio",
    "serve.server_ms": "ms",
    "serve.wait_ms": "ms",
    "serve.chain_served": "count",
    "serve.encodes": "count",
    "serve.payload_hit_ratio": "ratio",
    "client.download_ms": "ms",
    "device.decode_ms": "ms",
    "device.verify_ms": "ms",
    "device.apply_ms": "ms",
    "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}
#: Span name -> per-layer metric charged with its self time.
SPAN_METRICS = {
    "delta.diff": "delta.diff_ms",
    "delta.index_build": "delta.index_build_ms",
    "delta.encode": "delta.encode_ms",
    "delta.decode": "delta.decode_ms",
    "core.compose": "core.compose_ms",
    "core.convert": "core.convert_ms",
    "pipeline.encode": "pipeline.encode_ms",
    "store.publish": "store.publish_self_ms",
    "store.chain": "store.chain_self_ms",
    "serve.request": "serve.server_ms",
    "wait": "serve.wait_ms",
    "client.download": "client.download_ms",
    "device.decode": "device.decode_ms",
    "device.verify": "device.verify_ms",
    "device.apply": "device.apply_ms",
}


class Run:
    """One workload run: inputs, program processes and measurements."""

    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.args = args
        self.work = work
        packages, releases, size = SIZES[args.size][args.workload]
        self.trains = trains_mod.make_trains(args.seed, packages, releases,
                                             size)
        self.digests = {p: [hashlib.sha1(img).hexdigest() for img in t]
                        for p, t in self.trains.items()}
        # The benchmark's own copy of every image, against which each
        # output is compared; --wrong-expected corrupts one on purpose.
        self.expected = {p: list(t) for p, t in self.trains.items()}
        if args.wrong_expected:
            package = sorted(self.expected)[0]
            img = bytearray(self.expected[package][-1])
            img[len(img) // 2] ^= 0xFF
            self.expected[package][-1] = bytes(img)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]]
                     if self.env.get("PYTHONPATH") else []))
        self.live: List[Program] = []
        self._n = 0
        self._served_store: Optional[Tuple[str, int, int]] = None

    # -- program processes ----------------------------------------------

    def start(self, argv: List[str], ready: bytes,
              spans: Optional[str] = None) -> Program:
        self._n += 1
        if spans is not None:
            argv = [os.path.join(HERE, "tracing.py"), spans] + argv
        prog = Program(
            [sys.executable] + argv, env=self.env, cwd=ROOT,
            ready_prefix=ready,
            stderr_path=os.path.join(self.work, "stderr.%d" % self._n))
        self.live.append(prog)
        return prog

    def stop(self, prog: Program, *, sigterm: bool) -> List[bytes]:
        lines = prog.stop(sigterm=sigterm)
        self.live.remove(prog)
        return lines

    def start_timed(self, make, starts: int
                    ) -> Tuple[Program, List[Tuple[float, float]]]:
        """Start the program ``starts`` times; keep the last one running.

        Returns it with the (wall, host steal) set-up time of each start.
        """
        setups = []
        prog = None
        for _ in range(starts):
            if prog is not None:
                # Only timed, never used: no state to keep, so no drain.
                prog.kill()
                self.live.remove(prog)
            prog = make()
            setups.append((prog.setup_wall_s, prog.setup_steal_s))
        return prog, setups

    def publisher(self, store_dir: str,
                  spans: Optional[str] = None) -> Program:
        if os.path.exists(store_dir):
            shutil.rmtree(store_dir)
        return self.start([os.path.join(HERE, "publisher.py"), store_dir],
                          b"ready", spans)

    def daemon(self, serve_args: List[str],
               spans: Optional[str] = None) -> Program:
        return self.start(["-m", "repro.cli", "serve", "--port", "0"]
                          + serve_args, b"serving ", spans)

    def send_publish(self, prog: Program, package: str, r: int) -> int:
        """Send one publish request; returns the bytes sent."""
        image = self.trains[package][r]
        frame = b"publish %s %d\n" % (package.encode(), len(image))
        # Two writes: joining would copy the image on every op.
        prog.send(frame)
        prog.send(image)
        return len(frame) + len(image)

    # -- workloads --------------------------------------------------------

    def publish_pass(self, starts: int, spans: Optional[str]) -> dict:
        order = trains_mod.publish_order(self.trains)
        counter = [0]

        def make():
            counter[0] += 1
            return self.publisher(
                os.path.join(self.work, "store%d" % counter[0]), spans)

        prog, setups = self.start_timed(make, starts)
        store_dir = os.path.join(self.work, "store%d" % counter[0])
        ops = []
        sent = 0
        with Phase(prog) as phase:
            for package, r in order:
                digest = self.digests[package][r]
                s0 = procs.host_steal_seconds()
                with op_span(spans, (package, digest[:8])):
                    t0 = time.perf_counter()
                    sent += self.send_publish(prog, package, r)
                    reply = prog.readline().decode()
                    t1 = time.perf_counter()
                s1 = procs.host_steal_seconds()
                ops.append(Op(t1 - t0, s1 - s0, reply == digest,
                              len(self.trains[package][r])))
        # Read every version back and require a clean fsck.
        for i, (package, r) in enumerate(order):
            prog.send(b"get %s %s\n" % (package.encode(),
                                        self.digests[package][r].encode()))
            data = prog.read_exact(int(prog.readline()))
            if data != self.expected[package][r]:
                ops[i] = ops[i]._replace(ok=False)
        prog.send(b"fsck\n")
        fsck = json.loads(prog.readline())
        problems = ([] if fsck["ok"] and fsck["verified"] == len(order)
                    else ["fsck: %s" % json.dumps(fsck["problems"])])
        peak = prog.peak_rss_mb()
        self.stop(prog, sigterm=False)
        image_bytes = sum(op.image_bytes for op in ops)
        return dict(
            ops=ops, setups=setups, phase=phase, peak_rss_mb=peak,
            problems=problems, wire_bytes=sent,
            store_bytes=pack_bytes(store_dir), stored_image_bytes=image_bytes,
            served={})

    def prepare_pack_store(self) -> Tuple[str, int, int]:
        """Publish the trains into a pack store, untimed."""
        store_dir = os.path.join(self.work, "served-store")
        prog = self.publisher(store_dir)
        image_bytes = 0
        for package, r in trains_mod.publish_order(self.trains):
            self.send_publish(prog, package, r)
            if prog.readline().decode() != self.digests[package][r]:
                raise ProgramError("preparing the store: digest mismatch")
            image_bytes += len(self.trains[package][r])
        self.stop(prog, sigterm=False)
        return store_dir, pack_bytes(store_dir), image_bytes

    def serve_args(self) -> Tuple[List[str], int, int]:
        """Daemon arguments, store bytes and image bytes held."""
        if self.args.workload == "pull_chain":
            # Serving never writes the store, so every pass may share it.
            if self._served_store is None:
                self._served_store = self.prepare_pack_store()
            store_dir, store_bytes, image_bytes = self._served_store
            return ["--store-dir", store_dir], store_bytes, image_bytes
        args = []
        held = 0
        for package, train in sorted(self.trains.items()):
            paths = []
            for r, image in enumerate(train):
                path = os.path.join(self.work, "%s-%02d.img" % (package, r))
                with open(path, "wb") as handle:
                    handle.write(image)
                paths.append(path)
                held += len(image)
            args += ["--publish", "%s=%s" % (package, ",".join(paths))]
        # The in-memory store keeps every published image whole.
        return args, held, held

    def pull_pass(self, starts: int, spans: Optional[str]) -> dict:
        from repro.serve.client import pull_async

        serve_args, store_bytes, held = self.serve_args()
        prog, setups = self.start_timed(
            lambda: self.daemon(serve_args, spans), starts)
        # The ready line ends "serving N package(s) on HOST:PORT".
        port = int(prog.ready_line.rsplit(b":", 1)[1])
        pulls = trains_mod.pull_order(self.args.seed, self.trains)
        ops: List[Op] = []

        async def device() -> None:
            for package, have, want in todo:
                want_digest = self.digests[package][want]
                key = (package, self.digests[package][have][:8],
                       want_digest[:8])
                s0 = procs.host_steal_seconds()
                with op_span(spans, key):
                    t0 = time.perf_counter()
                    out = await pull_async(
                        "127.0.0.1", port, package,
                        self.trains[package][have], want=want_digest)
                    ok = (out.status == "applied"
                          and out.image == self.expected[package][want])
                    t1 = time.perf_counter()
                s1 = procs.host_steal_seconds()
                ops.append(Op(t1 - t0, s1 - s0, ok,
                              len(self.trains[package][want]),
                              out.payload_bytes, out.attempts - 1))

        async def drive() -> None:
            await asyncio.gather(device(), device())

        todo = iter(pulls)
        with Phase(prog) as phase:
            asyncio.run(drive())
        peak = prog.peak_rss_mb()
        lines = self.stop(prog, sigterm=True)
        served = parse_drain(lines)
        return dict(
            ops=ops, setups=setups, phase=phase, peak_rss_mb=peak,
            problems=[], wire_bytes=sum(op.wire_bytes for op in ops),
            store_bytes=store_bytes, stored_image_bytes=held, served=served)

    def run_pass(self, starts: int, spans: Optional[str] = None) -> dict:
        if self.args.workload == "publish_train":
            return self.publish_pass(starts, spans)
        return self.pull_pass(starts, spans)


class Op(NamedTuple):
    """One timed op."""

    seconds: float
    #: Host steal over the op, summed over the vCPUs.
    steal: float
    #: Output correct and byte-exact.
    ok: bool
    image_bytes: int
    wire_bytes: int = 0
    retries: int = 0


class Phase:
    """Wall time, host steal and CPU over the op phase of one pass."""

    def __init__(self, prog: Program) -> None:
        self.prog = prog

    def __enter__(self) -> "Phase":
        self.steal0 = procs.host_steal_seconds()
        self.prog_cpu0 = self.prog.cpu_seconds()
        self.load_cpu0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall = time.perf_counter() - self.t0
        self.load_cpu = time.process_time() - self.load_cpu0
        self.prog_cpu = self.prog.cpu_seconds() - self.prog_cpu0
        self.steal = procs.host_steal_seconds() - self.steal0


def op_span(spans: Optional[str], key: tuple):
    """The load process's op span, when this pass is traced."""
    return tracing.TRACER.span("op", key) if spans else nullcontext()


def pack_bytes(store_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(store_dir, name))
               for name in os.listdir(store_dir) if name.endswith(".pack"))


def parse_drain(lines: List[bytes]) -> Dict[str, int]:
    """Counters from the daemon's ``drained: ...`` line."""
    for line in lines:
        if line.startswith(b"drained:"):
            return {name.replace("-", "_"): int(count) for count, name
                    in re.findall(r"(\d+) ([a-z-]+)", line.decode())}
    raise ProgramError("daemon printed no drained line")


def tail(latencies: List[float]) -> Tuple[float, float, int]:
    """(value, percentile, beyond) at the highest percentile with
    ``TAIL_BEYOND`` samples beyond it (the maximum on smaller runs)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def path_failures(workload: str, pulls: int, counts: Dict[str, float]
                  ) -> List[str]:
    """Workload drifted onto another code path: one message per breach."""
    checks = {
        "pull_chain": [("served", pulls), ("chain_served", pulls),
                       ("encodes", 0)],
        "pull_encode": [("served", pulls), ("encodes", pulls)],
        "publish_train": [("store.publish", pulls)],
    }[workload]
    return ["%s=%s, expected %d" % (name, counts.get(name, 0), want)
            for name, want in checks if counts.get(name, 0) != want]


def net(wall: float, steal: float) -> float:
    """Elapsed time on the VM's own clock: wall time less the host's
    steal over the same interval, spread over the VM's vCPUs."""
    return wall - steal / procs.VCPUS


def end_to_end(res: dict) -> Dict[str, float]:
    ops = res["ops"]
    phase = res["phase"]
    lat = [net(op.seconds, op.steal) for op in ops]
    image_bytes = sum(op.image_bytes for op in ops)
    return {
        "setup_s": statistics.median([net(w, st) for w, st in res["setups"]]),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail(lat)[0] * 1e3,
        "op_cpu_ms": phase.prog_cpu / len(ops) * 1e3,
        "device_cpu_ms": phase.load_cpu / len(ops) * 1e3,
        "image_mb_s": image_bytes / net(phase.wall, phase.steal) / 1e6,
        "wire_bytes_per_image_byte": res["wire_bytes"] / image_bytes,
        "store_bytes_per_image_byte":
            res["store_bytes"] / res["stored_image_bytes"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def per_layer(plain: dict, traced: dict, spans: dict) -> Dict[str, float]:
    ops = traced["ops"]
    n = len(ops)
    client = tracing.TRACER.spans
    op_spans = [(s[5], s[2], s[3], s[0]) for s in client if s[1] == "op"]
    totals = tracing.attribute(op_spans, client, spans["spans"])
    c = spans["counters"]
    counts = spans["counts"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {name: 0.0 for name in LAYER_UNITS}
    for span_name, metric in SPAN_METRICS.items():
        out[metric] = totals.get(span_name, 0.0) / n * 1e3
    out["core.evicted_bytes"] = c.get("convert.eviction_bytes", 0) / n
    hits = c.get("cache.reference.hits", 0)
    out["pipeline.cache_hit_ratio"] = ratio(
        hits, hits + c.get("cache.reference.misses", 0))
    out["store.fsyncs_per_op"] = counts.get("store.fsyncs", 0) / n
    out["store.bytes_written_per_op"] = (
        counts.get("store.bytes_written", 0) / n)
    out["store.delta_ratio"] = ratio(c.get("store.publish.delta", 0),
                                     c.get("store.publish", 0))
    out["store.publishes"] = c.get("store.publish", 0)
    out["store.hop_reuse_ratio"] = ratio(c.get("store.chain.stored_hops", 0),
                                         c.get("store.chain.hops", 0))
    hits = c.get("store.cache.hits", 0)
    out["store.cache_hit_ratio"] = ratio(
        hits, hits + c.get("store.cache.misses", 0))
    out["serve.chain_served"] = c.get("serve.chain_served", 0)
    out["serve.encodes"] = c.get("serve.encodes", 0)
    out["serve.payload_hit_ratio"] = ratio(c.get("serve.payload.hits", 0),
                                           c.get("serve.requests", 0))
    wall = sum(op.seconds for op in ops)
    out["unattributed_frac"] = totals["unattributed"] / wall
    cost = (lambda r: (r["phase"].prog_cpu + r["phase"].load_cpu)
            / len(r["ops"]))
    out["trace_overhead_frac"] = cost(traced) / cost(plain) - 1.0
    return out


def diagnostics(args, res: dict, failed: int, attempted: int,
                notes: List[str]) -> dict:
    phase = res["phase"]
    lat = [op.seconds for op in res["ops"]]
    _, pct, beyond = tail(lat)
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds_arg": args.seconds, "trace": args.trace,
        "ops": len(res["ops"]), "op_phase_s": round(phase.wall, 4),
        "host_steal_s": round(phase.steal, 3),
        "program_cpu_s": round(phase.prog_cpu, 3),
        "load_cpu_s": round(phase.load_cpu, 3),
        "tail_percentile": round(pct, 1), "tail_beyond": beyond,
        "tail_samples": len(lat),
        "setup_starts_wall_s": [round(w, 4) for w, _ in res["setups"]],
        "setup_starts_steal_s": [round(st, 3) for _, st in res["setups"]],
        "retries": sum(op.retries for op in res["ops"]),
        "served": res["served"], "fail_ratio": failed / attempted,
        "wall_p50_ms": round(statistics.median(lat) * 1e3, 3),
        "wall_tail_ms": round(tail(lat)[0] * 1e3, 3),
        "wall_image_mb_s": round(
            sum(op.image_bytes for op in res["ops"]) / phase.wall / 1e6, 4),
        "problems": notes,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SIZES["full"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="tiny: the smoke-test size")
    parser.add_argument("--wrong-expected", action="store_true",
                        help="corrupt one expected image (tests the gate)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("error: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(work)
    run = Run(args, work)
    try:
        starts = SETUP_STARTS[args.size]
        if args.trace:
            plain = run.run_pass(1)
            tracing.install_client()
            from repro import perf

            spans_path = os.path.join(work, "spans.json")
            with perf.recording():
                res = run.run_pass(1, spans_path)
            with open(spans_path) as handle:
                spans = json.load(handle)
            metrics = per_layer(plain, res, spans)
            counts = dict(spans["counters"])
            counts.update({k.replace("serve.", ""): v
                           for k, v in spans["counters"].items()
                           if k.startswith("serve.")})
            units = LAYER_UNITS
        else:
            res = run.run_pass(starts)
            metrics = end_to_end(res)
            counts = res["served"]
            units = E2E_UNITS
    except (ProgramError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        procs.stop_all(run.live)
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    attempted = len(res["ops"])
    failed = sum(1 for op in res["ops"] if not op.ok)
    # A store that fails fsck fails the run even when every op read back.
    failed = min(attempted, failed + len(res["problems"]))
    notes = list(res["problems"])
    if failed:
        notes.append("%d op(s) failed or were not byte-exact" % failed)
    if args.trace or args.workload != "publish_train":
        notes += ["path: " + b
                  for b in path_failures(args.workload, attempted, counts)]
    print(json.dumps({"diagnostics": diagnostics(args, res, failed,
                                                 attempted, notes)}))
    correct = not notes
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
