"""Tests for the ipdelta command-line interface (repro.cli)."""

import json
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.workloads import make_source_file, mutate


@pytest.fixture
def files(tmp_path):
    rng = random.Random(31)
    ref = make_source_file(rng, 6_000)
    ver = mutate(ref, rng)
    ref_path = tmp_path / "old.bin"
    ver_path = tmp_path / "new.bin"
    ref_path.write_bytes(ref)
    ver_path.write_bytes(ver)
    return tmp_path, ref_path, ver_path, ref, ver


class TestDiffApply:
    def test_sequential_round_trip(self, files, capsys):
        tmp, ref_path, ver_path, ref, ver = files
        delta = tmp / "out.delta"
        rebuilt = tmp / "rebuilt.bin"
        assert main(["diff", str(ref_path), str(ver_path), str(delta)]) == 0
        assert "sequential" in capsys.readouterr().out
        assert main(["apply", str(ref_path), str(delta), str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == ver

    def test_in_place_round_trip(self, files):
        tmp, ref_path, ver_path, ref, ver = files
        delta = tmp / "out.ipdelta"
        rebuilt = tmp / "rebuilt.bin"
        assert main(["diff", "--in-place", str(ref_path), str(ver_path),
                     str(delta)]) == 0
        assert main(["apply", "--in-place", str(ref_path), str(delta),
                     str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == ver

    @pytest.mark.parametrize("algorithm", ["greedy", "onepass", "correcting"])
    def test_algorithms(self, files, algorithm):
        tmp, ref_path, ver_path, ref, ver = files
        delta = tmp / "d"
        rebuilt = tmp / "r"
        assert main(["diff", "--algorithm", algorithm, str(ref_path),
                     str(ver_path), str(delta)]) == 0
        assert main(["apply", str(ref_path), str(delta), str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == ver

    def test_missing_file_is_error(self, tmp_path, capsys):
        rc = main(["diff", str(tmp_path / "none"), str(tmp_path / "none2"),
                   str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestConvertInspect:
    def test_convert_then_apply_in_place(self, files, capsys):
        tmp, ref_path, ver_path, ref, ver = files
        seq = tmp / "seq.delta"
        conv = tmp / "conv.delta"
        rebuilt = tmp / "rebuilt"
        main(["diff", str(ref_path), str(ver_path), str(seq)])
        assert main(["convert", str(ref_path), str(seq), str(conv),
                     "--policy", "constant"]) == 0
        out = capsys.readouterr().out
        assert "policy" in out and "constant" in out
        assert main(["apply", "--in-place", str(ref_path), str(conv),
                     str(rebuilt)]) == 0
        assert rebuilt.read_bytes() == ver

    def test_inspect_reports_safety(self, files, capsys):
        tmp, ref_path, ver_path, ref, ver = files
        delta = tmp / "d"
        main(["diff", "--in-place", str(ref_path), str(ver_path), str(delta)])
        assert main(["inspect", str(delta)]) == 0
        out = capsys.readouterr().out
        assert "in-place safe" in out
        assert "yes" in out
        assert "CRWI edges" in out


class TestCorpusCommand:
    def test_materializes_tree(self, tmp_path, capsys):
        out_dir = tmp_path / "corpus"
        assert main(["corpus", str(out_dir), "--packages", "2",
                     "--releases", "2", "--scale", "0.1", "--seed", "3"]) == 0
        r0_files = list((out_dir / "r0").rglob("*"))
        r1_files = list((out_dir / "r1").rglob("*"))
        assert any(p.is_file() for p in r0_files)
        assert len([p for p in r0_files if p.is_file()]) == \
            len([p for p in r1_files if p.is_file()])
        assert "release" in capsys.readouterr().out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["--version"])
        assert "ipdelta" in capsys.readouterr().out


class TestComposeCommand:
    def test_compose_chain(self, tmp_path):
        import random

        from repro.workloads import make_source_file, mutate

        rng = random.Random(8)
        v0 = make_source_file(rng, 4_000)
        v1 = mutate(v0, rng)
        v2 = mutate(v1, rng)
        paths = {}
        for name, data in (("v0", v0), ("v1", v1), ("v2", v2)):
            paths[name] = tmp_path / name
            paths[name].write_bytes(data)
        d1, d2, dc = tmp_path / "d1", tmp_path / "d2", tmp_path / "dc"
        out = tmp_path / "out"
        assert main(["diff", str(paths["v0"]), str(paths["v1"]), str(d1)]) == 0
        assert main(["diff", str(paths["v1"]), str(paths["v2"]), str(d2)]) == 0
        assert main(["compose", str(d1), str(d2), str(dc)]) == 0
        assert main(["apply", str(paths["v0"]), str(dc), str(out)]) == 0
        assert out.read_bytes() == v2


class TestTreeCommands:
    def test_tree_diff_and_patch(self, tmp_path, capsys):
        import random

        from repro.workloads import make_source_file, mutate

        rng = random.Random(12)
        old_root = tmp_path / "old"
        new_root = tmp_path / "new"
        for root in (old_root, new_root):
            (root / "src").mkdir(parents=True)
        base = make_source_file(rng, 4_000)
        (old_root / "src/app.c").write_bytes(base)
        (old_root / "LICENSE").write_bytes(b"MIT\n" * 20)
        (new_root / "src/app.c").write_bytes(mutate(base, rng))
        (new_root / "COPYING").write_bytes(b"MIT\n" * 20)  # rename
        (new_root / "src/extra.c").write_bytes(make_source_file(rng, 1_000))

        bundle = tmp_path / "up.bundle"
        assert main(["tree-diff", str(old_root), str(new_root), str(bundle)]) == 0
        out = capsys.readouterr().out
        assert "1 delta" in out and "1 rename" in out

        assert main(["tree-patch", str(old_root), str(bundle)]) == 0
        # The old tree now equals the new tree.
        for path in new_root.rglob("*"):
            if path.is_file():
                rel = path.relative_to(new_root)
                assert (old_root / rel).read_bytes() == path.read_bytes(), rel
        assert not (old_root / "LICENSE").exists()


class TestReportCommand:
    def test_report_runs_and_mentions_every_section(self, capsys):
        assert main(["report", "--scale", "0.08", "--packages", "2",
                     "--releases", "2"]) == 0
        out = capsys.readouterr().out
        for marker in ("Table 1", "Figure 2", "Figure 3", "runtime",
                       "compression factors", "paper"):
            assert marker in out, marker


class TestPipelineCommand:
    def test_batch_encode_and_round_trip(self, tmp_path, capsys):
        import random

        from repro.workloads import make_source_file, mutate

        rng = random.Random(44)
        reference = make_source_file(rng, 5_000)
        ref_path = tmp_path / "base.bin"
        ref_path.write_bytes(reference)
        versions = []
        for i in range(3):
            data = mutate(reference, rng)
            path = tmp_path / ("v%d.bin" % i)
            path.write_bytes(data)
            versions.append((path, data))

        out_dir = tmp_path / "deltas"
        argv = ["pipeline", str(ref_path)]
        argv += [str(p) for p, _ in versions]
        argv += ["--output-dir", str(out_dir), "--workers", "2"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "cache hit rate 100%" in out
        assert "encoded 3 deltas" in out

        for path, data in versions:
            payload = (out_dir / (path.name + ".ipd")).read_bytes()
            rebuilt = tmp_path / (path.name + ".out")
            assert main(["apply", "--in-place", str(ref_path),
                         str(out_dir / (path.name + ".ipd")),
                         str(rebuilt)]) == 0
            assert rebuilt.read_bytes() == data
            assert payload  # non-empty delta written

    def test_duplicate_basenames_get_serial_suffixes(self, tmp_path, capsys):
        import random

        from repro.workloads import make_source_file, mutate

        rng = random.Random(45)
        reference = make_source_file(rng, 3_000)
        ref_path = tmp_path / "base.bin"
        ref_path.write_bytes(reference)
        a_dir = tmp_path / "a"
        b_dir = tmp_path / "b"
        for d in (a_dir, b_dir):
            d.mkdir()
            (d / "same.bin").write_bytes(mutate(reference, rng))

        out_dir = tmp_path / "deltas"
        assert main(["pipeline", str(ref_path), str(a_dir / "same.bin"),
                     str(b_dir / "same.bin"), "--output-dir", str(out_dir),
                     "--executor", "serial"]) == 0
        assert (out_dir / "same.bin.ipd").exists()
        assert (out_dir / "same.bin.2.ipd").exists()


class TestPipelineResilienceCLI:
    def _make_inputs(self, tmp_path, count=3, seed=46):
        rng = random.Random(seed)
        reference = make_source_file(rng, 4_000)
        ref_path = tmp_path / "base.bin"
        ref_path.write_bytes(reference)
        paths = []
        for i in range(count):
            path = tmp_path / ("v%d.bin" % i)
            path.write_bytes(mutate(reference, rng))
            paths.append(path)
        return ref_path, paths

    def test_fault_plan_quarantine_exits_nonzero(self, tmp_path, capsys):
        ref_path, paths = self._make_inputs(tmp_path)
        out_dir = tmp_path / "deltas"
        argv = (["pipeline", str(ref_path)] + [str(p) for p in paths]
                + ["--output-dir", str(out_dir), "--executor", "serial",
                   "--retries", "1", "--fallback", "greedy,raw",
                   "--fault-plan", "convert.evict:count=99"])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "resilience: 0 ok" in captured.out
        assert "quarantined" in captured.err
        # No partial payloads for quarantined jobs.
        assert not list(out_dir.glob("*.ipd"))

    def test_fallback_recovers_and_round_trips(self, tmp_path, capsys):
        ref_path, paths = self._make_inputs(tmp_path)
        out_dir = tmp_path / "deltas"
        argv = (["pipeline", str(ref_path)] + [str(p) for p in paths]
                + ["--output-dir", str(out_dir), "--executor", "serial",
                   "--fallback", "raw",
                   "--fault-plan", "diff.worker:count=99"])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience: 3 ok" in out
        assert "3 fell back" in out
        for path in paths:
            rebuilt = tmp_path / (path.name + ".out")
            assert main(["apply", "--in-place", str(ref_path),
                         str(out_dir / (path.name + ".ipd")),
                         str(rebuilt)]) == 0
            assert rebuilt.read_bytes() == path.read_bytes()

    def test_retry_summary_counts_retried_jobs(self, tmp_path, capsys):
        ref_path, paths = self._make_inputs(tmp_path)
        out_dir = tmp_path / "deltas"
        argv = (["pipeline", str(ref_path)] + [str(p) for p in paths]
                + ["--output-dir", str(out_dir), "--executor", "serial",
                   "--retries", "1", "--fault-plan", "diff.worker:nth=1"])
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "resilience: 3 ok, 3 retried, 0 fell back, 0 quarantined" in out

    def test_bad_fault_plan_is_a_usage_error(self, tmp_path, capsys):
        ref_path, paths = self._make_inputs(tmp_path, count=1)
        argv = (["pipeline", str(ref_path), str(paths[0]),
                 "--output-dir", str(tmp_path / "d"),
                 "--fault-plan", "diff.worker:banana=1"])
        assert main(argv) == 1
        assert "error:" in capsys.readouterr().err


class TestPipelineJson:
    def test_json_artifact_shares_batch_schema(self, tmp_path, capsys):
        rng = random.Random(7)
        ref = make_source_file(rng, 4_000)
        ref_path = tmp_path / "ref.bin"
        ref_path.write_bytes(ref)
        paths = []
        for i in range(3):
            path = tmp_path / ("v%d.bin" % i)
            path.write_bytes(mutate(ref, rng))
            paths.append(path)
        out_json = tmp_path / "summary.json"
        argv = (["pipeline", str(ref_path)] + [str(p) for p in paths]
                + ["--output-dir", str(tmp_path / "deltas"),
                   "--executor", "serial", "--json", str(out_json)])
        assert main(argv) == 0
        assert str(out_json) in capsys.readouterr().out
        data = json.loads(out_json.read_text())
        assert data["schema"] == "repro.pipeline.batch/1"
        assert data["jobs"] == 3
        assert data["ok"] == 3
        assert data["quarantined"] == []
        assert data["delta_bytes"] > 0

    def test_json_records_faults(self, tmp_path):
        rng = random.Random(8)
        ref = make_source_file(rng, 4_000)
        ref_path = tmp_path / "ref.bin"
        ref_path.write_bytes(ref)
        ver_path = tmp_path / "v.bin"
        ver_path.write_bytes(mutate(ref, rng))
        out_json = tmp_path / "summary.json"
        argv = ["pipeline", str(ref_path), str(ver_path),
                "--output-dir", str(tmp_path / "deltas"),
                "--executor", "serial", "--retries", "1",
                "--fault-plan", "diff.worker:nth=1",
                "--json", str(out_json)]
        assert main(argv) == 0
        data = json.loads(out_json.read_text())
        assert data["ok"] == 1
        assert data["fault_events"] == 1
        assert len(data["retried"]) == 1


class TestCampaignCLI:
    def test_smoke_with_faults_writes_artifact(self, tmp_path, capsys):
        art = tmp_path / "campaign.json"
        argv = ["campaign", "--devices", "40", "--size", "2048",
                "--releases", "3", "--seed", "5", "--executor", "serial",
                "--fault-plan",
                "device.power:p=0.1:fuel=600; delta.bitflip:p=0.1",
                "--fault-seed", "11", "--out", str(art)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "campaign: 40 devices" in out
        assert "bandwidth:" in out
        data = json.loads(art.read_text())
        assert data["schema"] == "repro.fleet.campaign/2"
        counters = data["counters"]
        assert counters["devices"] == 40
        assert (counters["updated"] + counters["quarantined"]
                + counters["deferred"]) == 40
        assert data["stages"]

    def test_include_devices_lists_every_terminal_state(self, tmp_path):
        art = tmp_path / "campaign.json"
        argv = ["campaign", "--devices", "10", "--size", "1024",
                "--releases", "2", "--seed", "1", "--out", str(art),
                "--include-devices"]
        assert main(argv) == 0
        data = json.loads(art.read_text())
        assert len(data["devices"]) == 10
        assert all(d["status"] == "updated" for d in data["devices"])

    def test_quarantine_reasons_go_to_stderr(self, tmp_path, capsys):
        argv = ["campaign", "--devices", "8", "--size", "1024",
                "--releases", "2", "--seed", "2",
                "--fault-plan", "storage.bitflip:p=1.0",
                "--retry-budget", "0"]
        assert main(argv) == 0  # quarantines are structured, not silent
        err = capsys.readouterr().err
        assert "quarantined (corruption" in err

    def test_bad_fault_plan_is_a_usage_error(self, capsys):
        argv = ["campaign", "--devices", "4", "--size", "1024",
                "--releases", "2", "--fault-plan", "nonsense.site:p=1"]
        assert main(argv) == 1
        assert "error" in capsys.readouterr().err


class TestServeSignals:
    def test_sigterm_right_after_ready_line_drains(self, tmp_path):
        """A supervisor may SIGTERM the daemon the moment it reads the
        ``serving`` line; the daemon must drain and exit 0, not die."""
        rng = random.Random(5)
        old = make_source_file(rng, 2_000)
        paths = []
        for i, data in enumerate((old, mutate(old, rng))):
            path = tmp_path / ("v%d" % i)
            path.write_bytes(data)
            paths.append(str(path))
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--publish", "pkg=" + ",".join(paths)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # The ready-line read below blocks; a daemon that never prints
        # one is killed instead of hanging the suite.
        watchdog = threading.Timer(60, proc.kill)
        watchdog.start()
        try:
            lines = []
            for line in proc.stdout:
                lines.append(line)
                if line.startswith(b"serving "):
                    proc.send_signal(signal.SIGTERM)
                    break
            out, err = proc.communicate(timeout=60)
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines += out.splitlines(keepends=True)
        assert any(l.startswith(b"serving ") for l in lines), err
        assert proc.returncode == 0, err
        assert any(l.startswith(b"drained:") for l in lines), lines
