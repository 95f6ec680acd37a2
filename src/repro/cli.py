"""Command-line interface: ``ipdelta``.

Subcommands mirror the library's pipeline:

* ``diff``     — compute a delta between two files (optionally in-place safe)
* ``apply``    — rebuild a version from a reference and a delta file
* ``convert``  — post-process an existing delta file for in-place use
* ``compose``  — fold a chain of sequential delta files into one
* ``inspect``  — decode a delta file and report its commands and safety
* ``info``     — print a delta's header fields without applying anything
* ``verify``   — check a delta's integrity (trailer, segment CRCs,
  optional reference digest) without applying it
* ``tree-diff``  — bundle a whole directory upgrade (per-file in-place deltas)
* ``tree-patch`` — apply an upgrade bundle to a directory, in place
* ``corpus``   — materialize the synthetic benchmark corpus to a directory
* ``report``   — regenerate the paper's headline evaluation in one shot
* ``pipeline`` — batch-encode many versions against one reference with
  the cached, pooled :class:`~repro.pipeline.DeltaPipeline`
  (``--json`` writes the machine-readable batch summary)
* ``campaign`` — simulate a fleet-wide rollout through the journaled
  updater under fault injection, emitting a JSON report artifact
  (``--store-dir`` sources cohort payloads from a pack store's
  collapsed delta chains)
* ``store``    — manage a persistent content-addressed pack store
  (see docs/STORE.md): ``init``, ``add``, ``log``, ``extract``,
  ``gc``, ``fsck``
* ``serve``    — run the delta-serving daemon (see docs/SERVING.md);
  drains gracefully on SIGTERM and exits 0; ``--store-dir`` serves
  straight from a pack store
* ``pull``     — fetch a delta from a daemon and apply it in place via
  the journaled updater; resumable with ``--state``

Exit status is 0 on success, 1 on a library error (bad input files,
unsafe delta, ...), 2 on usage errors (argparse's convention); ``pull``
additionally exits 3 when the daemon refused it by backpressure.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path
from typing import List, Optional

from . import __version__, diff
from .analysis.tables import format_bytes, render_kv, render_table
from .core.apply import (
    apply_delta,
    apply_in_place,
    preflight_in_place,
    verify_reference,
)
from .bundle import (
    Manifest,
    build_bundle,
    decode_bundle,
    encode_bundle,
    upgrade_and_verify,
)
from .core.compose import compose_chain
from .core.convert import make_in_place
from .core.crwi import build_crwi_digraph
from .core.optimize import optimize_script
from .core.verify import count_wr_conflicts, is_in_place_safe, lint_in_place
from .delta import ALGORITHMS
from .delta.encode import (
    FORMAT_INPLACE,
    FORMAT_SEQUENTIAL,
    WIRE_V2,
    decode_delta,
    encode_delta,
    version_checksum,
)
from .delta.stream import read_header
from .exceptions import IntegrityError, ReproError
from .faults import FaultPlan
from .pipeline import (
    EXECUTORS,
    PROCESS_EXECUTORS,
    DeltaPipeline,
    PipelineConfig,
    PipelineJob,
)
from .workloads.corpus import Corpus


def _read(path: str) -> bytes:
    return Path(path).read_bytes()


def _write(path: str, data: bytes) -> None:
    Path(path).write_bytes(data)


def _cmd_diff(args: argparse.Namespace) -> int:
    reference = _read(args.reference)
    version = _read(args.version)
    script = diff(reference, version, algorithm=args.algorithm)
    if args.optimize:
        script, _opt = optimize_script(script, reference,
                                       with_offsets=args.in_place)
    if args.in_place:
        result = make_in_place(script, reference, policy=args.policy,
                               scratch_budget=args.scratch)
        payload = encode_delta(
            result.script, FORMAT_INPLACE,
            version_crc32=version_checksum(version), reference=reference,
        )
        note = "in-place (%s), %d evictions" % (args.policy, result.report.evicted_count)
    else:
        payload = encode_delta(
            script, FORMAT_SEQUENTIAL,
            version_crc32=version_checksum(version), reference=reference,
        )
        note = "sequential"
    _write(args.output, payload)
    ratio = 100.0 * len(payload) / max(1, len(version))
    print(
        "wrote %s: %s (%s; %.1f%% of version)"
        % (args.output, format_bytes(len(payload)), note, ratio)
    )
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    payload = _read(args.delta)
    script, header = decode_delta(payload)
    if args.in_place:
        buf = bytearray(_read(args.reference))
        # Everything checkable runs before the first destructive write:
        # reference digest, read/write bounds, scratch bounds.
        preflight_in_place(script, header, buf)
        apply_in_place(script, buf, strict=not args.unsafe)
        output = bytes(buf)
    else:
        reference = _read(args.reference)
        verify_reference(header, reference)
        output = apply_delta(script, reference)
    if header.has_checksum and version_checksum(output) != header.version_crc32:
        print("error: reconstructed file fails its checksum", file=sys.stderr)
        return 1
    _write(args.output, output)
    print("wrote %s (%s)" % (args.output, format_bytes(len(output))))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    payload = _read(args.delta)
    script, header = decode_delta(payload)
    reference = _read(args.reference)
    result = make_in_place(script, reference, policy=args.policy,
                           scratch_budget=args.scratch)
    out = encode_delta(
        result.script, FORMAT_INPLACE,
        version_crc32=header.version_crc32 if header.has_checksum else None,
        reference=reference,
    )
    _write(args.output, out)
    report = result.report
    print(
        render_kv(
            "converted %s -> %s" % (args.delta, args.output),
            [
                ("policy", report.policy),
                ("copies", "%d -> %d" % (report.copies_in, report.copies_out)),
                ("adds", "%d -> %d" % (report.adds_in, report.adds_out)),
                ("cycles broken", report.cycles_found),
                ("evictions spilled to scratch", report.spilled_count),
                ("scratch required", format_bytes(report.scratch_used)),
                ("eviction cost", format_bytes(report.eviction_cost)),
                ("size", "%s -> %s" % (format_bytes(len(payload)), format_bytes(len(out)))),
            ],
        )
    )
    return 0


def _cmd_compose(args: argparse.Namespace) -> int:
    scripts = []
    crc = 0
    for path in args.deltas:
        script, header = decode_delta(_read(path))
        scripts.append(script)
        crc = header.version_crc32  # the chain's final version checksum
    composed = compose_chain(scripts)
    payload = encode_delta(composed, FORMAT_SEQUENTIAL, version_crc32=crc)
    _write(args.output, payload)
    print(
        "composed %d deltas -> %s (%s, %d commands)"
        % (len(scripts), args.output, format_bytes(len(payload)), len(composed))
    )
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    payload = _read(args.delta)
    script, header = decode_delta(payload)
    stats = script.stats()
    fmt_name = "sequential" if header.format == FORMAT_SEQUENTIAL else "in-place"
    pairs = [
        ("container", "IPD2 (self-verifying)" if header.magic == WIRE_V2
         else "IPD1"),
        ("format", fmt_name),
        ("version length", format_bytes(header.version_length)),
        ("commands", stats["commands"]),
        ("copies", stats["copies"]),
        ("adds", stats["adds"]),
        ("spills/fills", "%d/%d" % (stats["spills"], stats["fills"])),
        ("scratch required", format_bytes(stats["scratch_length"])),
        ("copied bytes", format_bytes(stats["copied_bytes"])),
        ("added bytes", format_bytes(stats["added_bytes"])),
        ("WR conflicts (current order)", count_wr_conflicts(script)),
        ("in-place safe", "yes" if is_in_place_safe(script) else "NO"),
    ]
    graph = build_crwi_digraph(script)
    pairs.append(("CRWI edges", "%d (Lemma 1 bound %d)" % (graph.edge_count, header.version_length)))
    print(render_kv(args.delta, pairs))
    problems = lint_in_place(script)
    for problem in problems:
        print("  warning: %s" % problem)
    return 0


def _header_pairs(header, payload_size: int) -> list:
    """Human-readable rows for a delta header (shared by info/verify)."""
    v2 = header.magic == WIRE_V2
    fmt_name = "sequential" if header.format == FORMAT_SEQUENTIAL else "in-place"
    pairs = [
        ("container", "IPD2 (self-verifying)" if v2 else "IPD1"),
        ("format", fmt_name),
        ("file size", format_bytes(payload_size)),
        ("version length", format_bytes(header.version_length)),
        ("scratch length", format_bytes(header.scratch_length)),
        ("version checksum",
         "0x%08x" % header.version_crc32 if header.has_checksum
         else "absent"),
    ]
    if header.has_reference:
        pairs.append(("reference length",
                      format_bytes(header.reference_length)))
        pairs.append(("reference checksum",
                      "0x%08x" % header.reference_crc32))
    else:
        pairs.append(("reference digest", "absent"))
    if v2:
        pairs.append(("segment CRCs",
                      "yes" if header.has_segment_crcs else "no"))
        pairs.append(("trailer CRC", "yes"))
    return pairs


def _cmd_info(args: argparse.Namespace) -> int:
    payload = _read(args.delta)
    # Header only: nothing is decoded past the fixed fields, nothing is
    # applied, so this is safe to run on untrusted or damaged files.
    header = read_header(io.BytesIO(payload))
    print(render_kv(args.delta, _header_pairs(header, len(payload))))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    payload = _read(args.delta)
    try:
        script, header = decode_delta(payload)
    except IntegrityError as exc:
        where = " at offset %d" % exc.offset if exc.offset >= 0 else ""
        print("FAILED: %s check%s: %s" % (exc.kind or "integrity", where, exc),
              file=sys.stderr)
        return 1
    checks = ["structure"]
    if header.magic == WIRE_V2:
        checks.append("trailer")
        if header.has_segment_crcs:
            checks.append("segments")
    if args.reference:
        try:
            verify_reference(header, _read(args.reference))
        except IntegrityError as exc:
            print("FAILED: reference check: %s" % exc, file=sys.stderr)
            return 1
        if header.has_reference:
            checks.append("reference")
        else:
            print("note: delta carries no reference digest; "
                  "--reference not verifiable", file=sys.stderr)
    print(render_kv(args.delta, _header_pairs(header, len(payload))
                    + [("commands", len(script.commands)),
                       ("verified", ", ".join(checks))]))
    return 0


def _read_tree(root: Path) -> dict:
    """All regular files under ``root``, keyed by POSIX-style relative path."""
    tree = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            tree[path.relative_to(root).as_posix()] = path.read_bytes()
    return tree


def _write_tree(root: Path, tree: dict) -> None:
    # Write/refresh current files, then prune ones the upgrade removed.
    for rel, data in tree.items():
        target = root / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(bytes(data))
    for path in sorted(root.rglob("*"), reverse=True):
        if path.is_file() and path.relative_to(root).as_posix() not in tree:
            path.unlink()
        elif path.is_dir() and not any(path.iterdir()):
            path.rmdir()


def _cmd_tree_diff(args: argparse.Namespace) -> int:
    old_tree = _read_tree(Path(args.old))
    new_tree = _read_tree(Path(args.new))
    bundle = build_bundle(
        args.package, args.from_release, args.to_release, old_tree, new_tree,
        algorithm=args.algorithm, policy=args.policy,
        scratch_budget=args.scratch,
    )
    payload = encode_bundle(bundle)
    _write(args.output, payload)
    counts = bundle.summary()
    new_total = sum(len(v) for v in new_tree.values())
    print(
        "wrote %s: %s for %d files (%s of tree data; "
        "%d delta, %d add, %d rename, %d remove)"
        % (args.output, format_bytes(len(payload)), len(new_tree),
           "%.1f%%" % (100.0 * len(payload) / max(1, new_total)),
           counts["delta"], counts["add"], counts["rename"], counts["remove"])
    )
    return 0


def _cmd_tree_patch(args: argparse.Namespace) -> int:
    root = Path(args.tree)
    tree = _read_tree(root)
    bundle = decode_bundle(_read(args.bundle))
    from .bundle import apply_bundle

    apply_bundle(tree, bundle)
    _write_tree(root, tree)
    print(
        "upgraded %s to %s release %d (%d files)"
        % (args.tree, bundle.package, bundle.to_release, len(tree))
    )
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    corpus = Corpus(
        seed=args.seed, packages=args.packages, releases=args.releases,
        scale=args.scale,
    )
    root = Path(args.output)
    for r, release in enumerate(corpus.releases):
        for (package, path), data in release.items():
            target = root / ("r%d" % r) / package / path
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_bytes(data)
    rows = [["release", "files", "bytes"]]
    for r, release in enumerate(corpus.releases):
        rows.append(
            ["r%d" % r, str(len(release)), format_bytes(sum(map(len, release.values())))]
        )
    print(render_table(rows))
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    reference = _read(args.reference)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = []
    used_names = set()
    for path in args.versions:
        name = Path(path).name
        if name in used_names:  # distinct inputs may share a basename
            stem = name
            serial = 2
            while name in used_names:
                name = "%s.%d" % (stem, serial)
                serial += 1
        used_names.add(name)
        jobs.append(PipelineJob(reference, _read(path), name))
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    fallback = [n for n in (args.fallback or "").split(",") if n]
    config = PipelineConfig(
        algorithm=args.algorithm,
        policy=args.policy,
        ordering=args.ordering,
        scratch_budget=args.scratch,
        executor=args.executor,
        workers=args.workers,
        cache_bytes=args.cache_bytes,
        retries=args.retries,
        fallback=tuple(fallback),
        stage_timeout=args.stage_timeout,
        backoff_base=args.backoff,
        fault_plan=fault_plan,
    )
    with DeltaPipeline(config) as pipe:
        if args.executor not in PROCESS_EXECUTORS:
            pipe.warm([reference])
        batch = pipe.run(jobs)
    rows = [["version", "delta", "ratio", "cache", "diff ms", "convert ms",
             "evict cost", "attempts"]]
    for result in batch.results:
        report = result.report
        if result.ok:
            target = out_dir / (report.name + ".ipd")
            target.write_bytes(result.payload)
            rows.append([
                report.name,
                format_bytes(report.delta_bytes),
                "%.1f%%" % (100.0 * report.delta_bytes / max(1, report.version_bytes)),
                "hit" if report.cache_hit else "miss",
                "%.1f" % (1e3 * report.diff_seconds),
                "%.1f" % (1e3 * report.convert_seconds),
                str(report.conversion.eviction_cost if report.conversion else 0),
                "%d%s" % (report.attempts,
                          " (%s)" % report.fallback if report.fallback else ""),
            ])
        else:
            rows.append([report.name, "-", "-", "-", "-", "-", "-",
                         "%d (quarantined)" % report.attempts])
    print(render_table(rows))
    print(
        "encoded %d deltas in %.3fs (%s executor, %d workers); "
        "cache hit rate %.0f%%"
        % (batch.ok_jobs, batch.wall_seconds, args.executor, pipe.workers,
           100.0 * batch.cache_hit_rate)
    )
    print(
        "resilience: %d ok, %d retried, %d fell back, %d quarantined"
        "; %d fault(s) survived; %d payload(s) integrity-verified"
        % (batch.ok_jobs, len(batch.retried), len(batch.fallbacks),
           len(batch.quarantined), batch.fault_events, batch.verified)
    )
    if args.json:
        # The repro.pipeline.batch/1 summary — the same schema the
        # fleet campaign embeds for its encode phase.
        with open(args.json, "w") as fh:
            json.dump(batch.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print("wrote %s" % args.json)
    if batch.quarantined:
        for result in batch.results:
            if not result.ok:
                print("quarantined (%s): %s after %d attempts: %s"
                      % (result.report.quarantine_reason or "transient",
                         result.report.name, result.report.attempts,
                         result.report.failure), file=sys.stderr)
        return 1
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .fleet import RolloutPolicy, make_fleet, make_release_train, run_campaign

    packages = tuple(p for p in args.packages.split(",") if p)
    train = make_release_train(packages, releases=args.releases,
                               size=args.size, seed=args.seed)
    fleet = make_fleet(args.devices, train, seed=args.seed,
                       max_skip=args.max_skip)
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    try:
        stages = tuple(float(s) for s in args.stages.split(",") if s)
    except ValueError:
        raise ValueError("--stages must be comma-separated fractions, "
                         "got %r" % args.stages) from None
    policy = RolloutPolicy(
        stages=stages,
        abort_threshold=args.abort_threshold,
        retry_budget=args.retry_budget,
        encode=args.encode,
        max_retries=args.retries,
        max_boots=args.max_boots,
    )
    store = None
    if args.store_dir:
        from .store import PackStore
        store = PackStore(args.store_dir)
    report = run_campaign(
        train, fleet, policy=policy, fault_plan=fault_plan,
        seed=args.seed, executor=args.executor, workers=args.workers,
        algorithm=args.algorithm, store=store,
    )
    counters = report.counters
    bandwidth = report.bandwidth
    latency = report.latency
    rows = [["stage", "fraction", "devices", "updated", "quarantined",
             "aborted"]]
    for stage in report.stages:
        rows.append([str(stage.stage), "%.0f%%" % (100 * stage.fraction),
                     str(stage.devices), str(stage.updated),
                     str(stage.quarantined),
                     "yes" if stage.aborted else "no"])
    print(render_table(rows))
    print(
        "campaign: %d devices -> %d updated, %d quarantined, %d deferred "
        "(%d sessions, %d transmissions, %d power cuts, %d faults) "
        "in %.1fs"
        % (counters["devices"], counters["updated"],
           counters["quarantined"], counters["deferred"],
           counters["sessions"], counters["attempts"],
           counters["power_cuts"], counters["fault_events"],
           report.wall_seconds)
    )
    print(
        "bandwidth: %s shipped vs %s full images (%.1f%% saved); "
        "latency p50 %.2fs p99 %.2fs"
        % (format_bytes(bandwidth["delta_bytes_sent"]),
           format_bytes(bandwidth["full_image_bytes"]),
           100.0 * bandwidth["savings_ratio"],
           latency["p50_seconds"], latency["p99_seconds"])
    )
    silent = report.silent_failures()
    if silent:
        print("SILENT FAILURES (protocol violation): %s"
              % ", ".join(silent[:10]), file=sys.stderr)
    for quarantine in report.quarantines[:args.show_quarantines]:
        print("quarantined (%s, stage %d): %s: %s"
              % (quarantine["kind"], quarantine["stage"],
                 quarantine["device"], quarantine["reason"]),
              file=sys.stderr)
    if args.out:
        report.write(args.out, include_devices=args.include_devices)
        print("wrote %s" % args.out)
    return 1 if silent else 0


def _store_config(args: argparse.Namespace):
    """A :class:`~repro.store.StoreConfig` from the shared store flags."""
    from .store import StoreConfig

    kwargs = {}
    if getattr(args, "algorithm", None):
        kwargs["algorithm"] = args.algorithm
    if getattr(args, "policy", None):
        kwargs["policy"] = args.policy
    if getattr(args, "max_chain_depth", None):
        kwargs["max_chain_depth"] = args.max_chain_depth
    if getattr(args, "no_fsync", False):
        kwargs["fsync"] = False
    return StoreConfig(**kwargs)


def _cmd_store(args: argparse.Namespace) -> int:
    from .store import PackStore

    if args.store_command == "init":
        store = PackStore.init(args.dir, _store_config(args))
        print("initialized empty pack store at %s" % store.root)
        return 0

    store = PackStore(args.dir, _store_config(args))
    if args.store_command == "add":
        for path in args.files:
            digest = store.publish(args.package, _read(path))
            info = store.log(args.package)[-1]
            print("published %s %s (%s, stored %s as %s)"
                  % (args.package, digest[:12], path,
                     format_bytes(int(info["stored_size"])), info["stored"]))
        return 0
    if args.store_command == "log":
        packages = [args.package] if args.package else store.packages()
        if args.json:
            payload = {p: store.log(p) for p in packages}
            print(json.dumps(payload, indent=2, sort_keys=True))
            return 0
        for package in packages:
            rows = [["digest", "stored", "base", "depth", "size", "stored"]]
            for entry in store.log(package):
                rows.append([
                    str(entry["digest"])[:12],
                    str(entry["stored"]),
                    str(entry["base"])[:12] or "-",
                    str(entry["depth"]),
                    format_bytes(int(entry["size"])),
                    format_bytes(int(entry["stored_size"])),
                ])
            print(package)
            print(render_table(rows))
        stats = store.stats()
        print("%d object(s) in %s (%s pack, %s of version data)"
              % (stats["objects"], stats["pack"],
                 format_bytes(int(stats["pack_bytes"])),
                 format_bytes(int(stats["object_bytes"]))))
        return 0
    if args.store_command == "extract":
        if args.digest == "latest":
            digest, data = store.latest(args.package)
        else:
            digest = args.digest
            try:
                data = store.get(args.package, digest)
            except KeyError:
                raise ValueError(
                    "package %r has no version with digest %s"
                    % (args.package, digest)) from None
        _write(args.output, data)
        print("extracted %s %s -> %s (%s)"
              % (args.package, digest[:12], args.output,
                 format_bytes(len(data))))
        return 0
    if args.store_command == "fsck":
        report = store.fsck(verify_objects=not args.no_verify)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return 0 if report.ok else 1
        print("%s: %d package(s), %d version(s), %d object(s), "
              "%d verified"
              % (args.dir, report.packages, report.versions,
                 report.objects, report.verified))
        for problem in report.problems:
            where = (" at offset %d" % problem.offset
                     if problem.offset >= 0 else "")
            print("  %s%s: %s" % (problem.kind, where, problem.detail),
                  file=sys.stderr)
        if report.ok:
            print("fsck: clean")
            return 0
        print("fsck: %d problem(s); run `ipdelta store gc %s --repair`"
              % (len(report.problems), args.dir), file=sys.stderr)
        return 1
    if args.store_command == "gc":
        report = store.gc(repair=args.repair,
                          keep_last=args.keep_last or None)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return 0
        print("gc: %d -> %d object(s), %s -> %s; %d redeltified, "
              "%d object(s) dropped, %d version(s) trimmed"
              % (report.objects_before, report.objects_after,
                 format_bytes(report.pack_bytes_before),
                 format_bytes(report.pack_bytes_after),
                 report.redeltified, report.dropped_objects,
                 report.dropped_versions))
        if report.repaired:
            print("repaired %d problem(s) (%s reclaimed from the damaged "
                  "tail)" % (len(report.repaired),
                             format_bytes(report.repaired_bytes)))
        return 0
    raise ValueError("unknown store command %r" % args.store_command)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .serve import DeltaServer, ServeConfig
    from .store import MemoryStore, PackStore

    if args.store_dir:
        store = PackStore(args.store_dir)
    else:
        store = MemoryStore()
    for spec in args.publish:
        package, _, paths = spec.partition("=")
        package = package.strip()
        files = [p for p in paths.split(",") if p.strip()]
        if not package or not files:
            raise ValueError(
                "--publish wants PACKAGE=FILE[,FILE...] (oldest first), "
                "got %r" % spec)
        for path in files:
            digest = store.publish(package, Path(path).read_bytes())
            print("published %s %s (%s)" % (package, digest[:12], path))
    if not store.packages():
        raise ValueError(
            "nothing to serve: pass at least one --publish"
            + ("" if args.store_dir else " (or --store-dir)"))
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    config = ServeConfig(
        host=args.host,
        port=args.port,
        algorithm=args.algorithm,
        max_inflight=args.max_inflight,
        request_timeout=args.request_timeout or None,
        chunk_size=args.chunk_size,
        retry_after=args.retry_after,
        encode_workers=args.encode_workers,
        fault_plan=fault_plan,
    )

    async def _run():
        server = DeltaServer(store, config)
        await server.start()
        # Handlers first: a supervisor may signal the moment it reads
        # the ready line, and that signal must drain, not kill.
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, server.request_drain)
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print("serving %d package(s) on %s:%d"
              % (len(store.packages()), server.host, server.port),
              flush=True)
        await server.wait_drained()
        return dict(server.counters)

    counters = asyncio.run(_run())
    print("drained: %d connections, %d served, %d refused, %d encodes "
          "(%d chain-served, %d coalesced, %d payload hits), %d errors"
          % (counters["connections"], counters["served"],
             counters["refused"], counters["encodes"],
             counters["chain_served"], counters["coalesced"],
             counters["payload_hits"], counters["errors"]))
    return 0


def _cmd_pull(args: argparse.Namespace) -> int:
    from .serve import PullState, pull

    host, _, port = args.server.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError("server must be HOST:PORT, got %r" % args.server)
    image_path = Path(args.image)
    reference = image_path.read_bytes()
    fault_plan = None
    if args.fault_plan:
        fault_plan = FaultPlan.parse(args.fault_plan, seed=args.fault_seed)
    state = PullState(args.state) if args.state else None
    outcome = pull(
        host, int(port), args.package, reference,
        want=args.want,
        scope=args.scope or args.package,
        fault_plan=fault_plan,
        max_attempts=args.retries,
        max_boots=args.max_boots,
        backoff_base=args.backoff,
        backoff_factor=args.backoff_factor,
        backoff_jitter=args.backoff_jitter,
        state=state,
    )
    for fault in outcome.faults:
        print("survived: %s" % fault, file=sys.stderr)
    if outcome.status == "applied":
        out_path = Path(args.out) if args.out else image_path
        out_path.write_bytes(outcome.image)
        print("applied %s -> %s (%d payload bytes, %d attempt(s), "
              "%d boot(s), %d resume(s), %d power cut(s))"
              % (args.package, outcome.want[:12] or "latest",
                 outcome.payload_bytes, outcome.attempts, outcome.boots,
                 outcome.resumes, outcome.power_cuts))
        if args.json:
            Path(args.json).write_text(
                json.dumps(outcome.summary(), indent=2, sort_keys=True))
        return 0
    if args.json:
        Path(args.json).write_text(
            json.dumps(outcome.summary(), indent=2, sort_keys=True))
    if outcome.status == "refused":
        print("refused: %s (retry after %.3gs)"
              % (outcome.reason, outcome.retry_after), file=sys.stderr)
        return 3
    print("failed: %s" % outcome.reason, file=sys.stderr)
    return 1


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf.bench import run_bench
    from .perf.compare import (
        compare_artifacts,
        load_artifacts,
        parse_min_speedup,
        render,
    )

    written = run_bench(
        args.output_dir,
        quick=args.quick,
        fast=not args.no_fast,
        repeats=args.repeat,
        ops=args.ops or None,
    )
    print("wrote %d artifacts to %s" % (len(written), args.output_dir))
    if args.compare:
        results = compare_artifacts(
            load_artifacts(args.compare),
            load_artifacts(args.output_dir),
            threshold=args.threshold,
            min_speedup=parse_min_speedup(args.min_speedup),
        )
        print(render(results))
        if any(not r.ok for r in results):
            return 1
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .analysis.report import generate_report

    report = generate_report(scale=args.scale, packages=args.packages,
                             releases=args.releases, seed=args.seed)
    print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``ipdelta`` argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(
        prog="ipdelta",
        description="Delta compression with in-place reconstruction "
        "(Burns & Long, PODC 1998).",
    )
    parser.add_argument("--version", action="version", version="ipdelta %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="compute a delta between two files")
    p.add_argument("reference")
    p.add_argument("version")
    p.add_argument("output")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="correcting")
    p.add_argument("--in-place", action="store_true",
                   help="emit an in-place reconstructible delta")
    p.add_argument("--policy", default="local-min",
                   choices=["constant", "local-min", "max-out-degree",
                            "optimal", "greedy-global"])
    p.add_argument("--scratch", type=int, default=0, metavar="BYTES",
                   help="device scratch budget: evictions route through "
                        "scratch instead of inlined adds (default 0)")
    p.add_argument("--optimize", action="store_true",
                   help="run the codeword-size optimizer before encoding")
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("apply", help="rebuild a version from reference + delta")
    p.add_argument("reference")
    p.add_argument("delta")
    p.add_argument("output")
    p.add_argument("--in-place", action="store_true",
                   help="apply through the in-place engine")
    p.add_argument("--unsafe", action="store_true",
                   help="skip the write-before-read safety check")
    p.set_defaults(func=_cmd_apply)

    p = sub.add_parser("convert", help="make an existing delta in-place safe")
    p.add_argument("reference")
    p.add_argument("delta")
    p.add_argument("output")
    p.add_argument("--policy", default="local-min",
                   choices=["constant", "local-min", "max-out-degree",
                            "optimal", "greedy-global"])
    p.add_argument("--scratch", type=int, default=0, metavar="BYTES",
                   help="device scratch budget in bytes (default 0)")
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("compose", help="fold sequential delta files into one")
    p.add_argument("deltas", nargs="+", help="delta files, oldest first")
    p.add_argument("output")
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("inspect", help="describe a delta file")
    p.add_argument("delta")
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("info", help="print a delta's header without "
                       "decoding commands or applying anything")
    p.add_argument("delta")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("verify", help="check a delta's integrity "
                       "(trailer, segment CRCs, optional reference digest)")
    p.add_argument("delta")
    p.add_argument("--reference", default="", metavar="FILE",
                   help="also check the delta's reference digest "
                        "against this file")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tree-diff", help="bundle a whole directory upgrade")
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("output")
    p.add_argument("--package", default="package")
    p.add_argument("--from-release", type=int, default=0)
    p.add_argument("--to-release", type=int, default=1)
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="correcting")
    p.add_argument("--policy", default="local-min",
                   choices=["constant", "local-min", "max-out-degree",
                            "optimal", "greedy-global"])
    p.add_argument("--scratch", type=int, default=0, metavar="BYTES")
    p.set_defaults(func=_cmd_tree_diff)

    p = sub.add_parser("tree-patch", help="apply an upgrade bundle to a directory")
    p.add_argument("tree")
    p.add_argument("bundle")
    p.set_defaults(func=_cmd_tree_patch)

    p = sub.add_parser("corpus", help="materialize the synthetic benchmark corpus")
    p.add_argument("output")
    p.add_argument("--seed", type=int, default=19980601)
    p.add_argument("--packages", type=int, default=12)
    p.add_argument("--releases", type=int, default=3)
    p.add_argument("--scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser(
        "pipeline",
        help="batch-encode many versions against one reference",
    )
    p.add_argument("reference")
    p.add_argument("versions", nargs="+", help="version files to encode")
    p.add_argument("--output-dir", required=True, metavar="DIR",
                   help="directory receiving one <version>.ipd per input")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="correcting")
    p.add_argument("--policy", default="local-min",
                   choices=["constant", "local-min", "max-out-degree",
                            "optimal", "greedy-global"])
    p.add_argument("--ordering", choices=["dfs", "locality"], default="dfs")
    p.add_argument("--scratch", type=int, default=0, metavar="BYTES")
    p.add_argument("--executor", choices=list(EXECUTORS), default="thread")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--cache-bytes", type=int, default=128 << 20,
                   metavar="BYTES", help="reference index cache budget")
    p.add_argument("--retries", type=int, default=0, metavar="N",
                   help="extra attempts per degradation-chain link "
                        "before falling back (default 0)")
    p.add_argument("--fallback", default="", metavar="CHAIN",
                   help="comma-separated degradation chain tried after "
                        "the primary algorithm, e.g. 'greedy,raw' "
                        "('raw' = full-rewrite delta)")
    p.add_argument("--fault-plan", default="", metavar="SPECS",
                   help="inject deterministic faults: semicolon-separated "
                        "site:key=value specs, e.g. "
                        "'diff.worker:nth=1;convert.evict:p=0.5'")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for probabilistic fault triggers (default 0)")
    p.add_argument("--stage-timeout", type=float, default=None,
                   metavar="SECONDS", help="per-stage wall-clock budget; "
                   "an overrun counts as a failed attempt")
    p.add_argument("--backoff", type=float, default=0.0, metavar="SECONDS",
                   help="base of the exponential retry backoff (default 0)")
    p.add_argument("--json", default="", metavar="FILE",
                   help="also write the machine-readable batch summary "
                        "(schema repro.pipeline.batch/1) to FILE")
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser(
        "campaign",
        help="simulate a fleet-wide update campaign under fault injection",
    )
    p.add_argument("--devices", type=int, default=1000, metavar="N",
                   help="fleet size (default %(default)s)")
    p.add_argument("--packages", default="app,kernel", metavar="NAMES",
                   help="comma-separated package names "
                        "(default %(default)s)")
    p.add_argument("--releases", type=int, default=4, metavar="N",
                   help="releases per package (default %(default)s)")
    p.add_argument("--size", type=int, default=16384, metavar="BYTES",
                   help="image size per release (default %(default)s)")
    p.add_argument("--seed", type=int, default=0,
                   help="fleet/release-train/rollout seed (default 0)")
    p.add_argument("--max-skip", type=int, default=0, metavar="N",
                   help="cap how many releases a device may be behind "
                        "(0 = full chain)")
    p.add_argument("--executor", choices=["serial", "thread", "process"],
                   default="serial")
    p.add_argument("--workers", type=int, default=None, metavar="N")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS),
                   default="correcting")
    p.add_argument("--encode", choices=["compose", "direct"],
                   default="compose",
                   help="stale-cohort payloads: 'compose' collapses the "
                        "per-hop deltas, 'direct' re-diffs endpoints "
                        "through the pipeline (default %(default)s)")
    p.add_argument("--stages", default="0.01,0.10,1.0", metavar="FRACTIONS",
                   help="staged-rollout fleet fractions "
                        "(default %(default)s)")
    p.add_argument("--abort-threshold", type=float, default=0.25,
                   metavar="RATE", help="stage quarantine rate that aborts "
                   "the rollout (default %(default)s)")
    p.add_argument("--retry-budget", type=int, default=1, metavar="N",
                   help="extra full sessions per transiently-failing "
                        "device (default %(default)s)")
    p.add_argument("--retries", type=int, default=3, metavar="N",
                   help="transmission attempts per session "
                        "(default %(default)s)")
    p.add_argument("--max-boots", type=int, default=16, metavar="N",
                   help="boot budget per session (default %(default)s)")
    p.add_argument("--fault-plan", default="", metavar="SPECS",
                   help="deterministic fault injection, e.g. "
                        "'device.power:p=0.05:fuel=4096;"
                        "delta.bitflip:p=0.02'")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--out", default="", metavar="FILE",
                   help="write the JSON report artifact "
                        "(schema repro.fleet.campaign/1)")
    p.add_argument("--include-devices", action="store_true",
                   help="embed every per-device outcome in --out "
                        "(large for big fleets)")
    p.add_argument("--show-quarantines", type=int, default=10, metavar="N",
                   help="quarantine reasons to print (default %(default)s)")
    p.add_argument("--store-dir", default="", metavar="DIR",
                   help="publish the release train into this pack store "
                        "and source cohort payloads from its collapsed "
                        "delta chains ('compose' encode only)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "store",
        help="manage a persistent content-addressed pack store "
             "(docs/STORE.md)")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    def _store_common(sp, mutating=True):
        sp.add_argument("dir", help="store directory")
        if mutating:
            sp.add_argument("--algorithm", default="",
                            choices=[""] + sorted(ALGORITHMS),
                            help="differencing algorithm for stored deltas")
            sp.add_argument("--policy", default="",
                            choices=["", "constant", "local-min",
                                     "max-out-degree", "optimal",
                                     "greedy-global"],
                            help="cycle-breaking policy for served chains")
            sp.add_argument("--max-chain-depth", type=int, default=0,
                            metavar="N", help="longest allowed delta chain")
            sp.add_argument("--no-fsync", action="store_true",
                            help="skip fsync on appends and renames "
                                 "(faster, weaker crash safety)")

    sp = store_sub.add_parser("init", help="create an empty store")
    _store_common(sp)
    sp = store_sub.add_parser(
        "add", help="publish version files (oldest first)")
    _store_common(sp)
    sp.add_argument("package")
    sp.add_argument("files", nargs="+", metavar="FILE")
    sp = store_sub.add_parser(
        "log", help="list versions and their storage (deltas, depths)")
    _store_common(sp, mutating=False)
    sp.add_argument("package", nargs="?", default="",
                    help="one package (default: all)")
    sp.add_argument("--json", action="store_true",
                    help="machine-readable per-version entries")
    sp = store_sub.add_parser(
        "extract", help="reconstruct one version to a file")
    _store_common(sp, mutating=False)
    sp.add_argument("package")
    sp.add_argument("digest", help="content digest, or 'latest'")
    sp.add_argument("output")
    sp = store_sub.add_parser(
        "gc", help="repack: re-deltify, drop unreachable objects; "
                   "--repair recovers a damaged store")
    _store_common(sp)
    sp.add_argument("--repair", action="store_true",
                    help="accept a damaged store and rebuild from its "
                         "intact records")
    sp.add_argument("--keep-last", type=int, default=0, metavar="N",
                    help="trim every package to its newest N versions")
    sp.add_argument("--json", action="store_true",
                    help="print the repro.store.gc/1 report")
    sp = store_sub.add_parser(
        "fsck", help="verify every record and chain; exit 1 on damage")
    _store_common(sp, mutating=False)
    sp.add_argument("--no-verify", action="store_true",
                    help="structural checks only; skip reconstructing "
                         "every version")
    sp.add_argument("--json", action="store_true",
                    help="print the repro.store.fsck/1 report")
    p.set_defaults(func=_cmd_store)

    p = sub.add_parser(
        "serve",
        help="run the delta-serving daemon (drains cleanly on SIGTERM)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7423,
                   help="TCP port; 0 binds an ephemeral one "
                        "(default %(default)s)")
    p.add_argument("--publish", action="append", default=[],
                   metavar="PACKAGE=FILE[,FILE...]",
                   help="register a package's releases, oldest first; "
                        "repeatable")
    p.add_argument("--store-dir", default="", metavar="DIR",
                   help="serve from a persistent pack store (ipdelta "
                        "store init/add); --publish lands in it too, and "
                        "clients several versions behind get one "
                        "collapsed chain delta")
    p.add_argument("--algorithm", default="correcting",
                   choices=sorted(ALGORITHMS))
    p.add_argument("--max-inflight", type=int, default=64,
                   help="concurrent requests before backpressure refuses "
                        "with RETRY (default %(default)s)")
    p.add_argument("--request-timeout", type=float, default=30.0,
                   help="per-request deadline in seconds, 0 disables "
                        "(default %(default)s)")
    p.add_argument("--chunk-size", type=int, default=1 << 16,
                   help="DATA frame payload bytes (default %(default)s)")
    p.add_argument("--retry-after", type=float, default=0.05,
                   help="backoff hint carried by RETRY frames "
                        "(default %(default)s)")
    p.add_argument("--encode-workers", type=int, default=2)
    p.add_argument("--fault-plan", default="", metavar="SPECS",
                   help="deterministic fault injection, e.g. "
                        "'serve.accept:p=0.05;serve.frame:nth=3'")
    p.add_argument("--fault-seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "pull",
        help="download a delta from a serve daemon and apply it in place")
    p.add_argument("server", metavar="HOST:PORT")
    p.add_argument("package")
    p.add_argument("image", help="the image file to bring up to date "
                                 "(rewritten in place unless --out)")
    p.add_argument("--want", default="latest",
                   help="target version digest (default: latest)")
    p.add_argument("--out", default="",
                   help="write the updated image here instead of in place")
    p.add_argument("--state", default="", metavar="DIR",
                   help="crash-safe progress directory: an interrupted "
                        "pull re-run with the same --state resumes")
    p.add_argument("--scope", default="",
                   help="fault scope (default: the package name)")
    p.add_argument("--retries", type=int, default=5,
                   help="download attempts (default %(default)s)")
    p.add_argument("--max-boots", type=int, default=16)
    p.add_argument("--backoff", type=float, default=0.05,
                   help="base retry backoff seconds (default %(default)s)")
    p.add_argument("--backoff-factor", type=float, default=2.0)
    p.add_argument("--backoff-jitter", type=float, default=0.25)
    p.add_argument("--fault-plan", default="", metavar="SPECS",
                   help="client-side fault injection, e.g. "
                        "'client.recv:nth=2;device.power:nth=1:fuel=600'")
    p.add_argument("--fault-seed", type=int, default=0)
    p.add_argument("--json", default="", metavar="FILE",
                   help="write the pull outcome summary as JSON")
    p.set_defaults(func=_cmd_pull)

    p = sub.add_parser("bench", help="run the performance suite and write "
                       "BENCH_*.json artifacts")
    p.add_argument("--output-dir", default="bench_artifacts",
                   help="directory for BENCH_*.json artifacts "
                        "(default %(default)s)")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke subset: fewer ops, one repeat")
    p.add_argument("--no-fast", action="store_true",
                   help="pin the scalar reference paths (the "
                        "pre-optimization oracle baseline)")
    p.add_argument("--repeat", type=int, default=None,
                   help="timing repeats per op (default: 3, or 1 with "
                        "--quick)")
    p.add_argument("--ops", action="append", default=[], metavar="SUBSTRING",
                   help="only run ops whose artifact name contains "
                        "SUBSTRING (repeatable)")
    p.add_argument("--compare", metavar="BASELINE_DIR", default=None,
                   help="after running, gate against this artifact "
                        "directory (exit 1 on regression)")
    p.add_argument("--threshold", type=float, default=0.15,
                   help="tolerated throughput loss for --compare "
                        "(default %(default)s)")
    p.add_argument("--min-speedup", action="append", default=[],
                   metavar="NAME=FACTOR",
                   help="with --compare, require NAME to be FACTOR x the "
                        "baseline (repeatable)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="regenerate the paper's evaluation")
    p.add_argument("--scale", type=float, default=0.3)
    p.add_argument("--packages", type=int, default=8)
    p.add_argument("--releases", type=int, default=2)
    p.add_argument("--seed", type=int, default=19980601)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for the ``ipdelta`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
