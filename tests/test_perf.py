"""The ``repro.perf`` subsystem: recorder, bench artifacts, compare gate."""

from __future__ import annotations

import json

import pytest

from repro import perf
from repro.perf.bench import SCHEMA, bench_pair, build_suite, run_bench, run_op
from repro.perf.compare import (
    compare_artifacts,
    load_artifacts,
    main as compare_main,
    parse_min_speedup,
    render,
)
from repro.delta import correcting_delta, greedy_delta


# ---------------------------------------------------------------------------
# Recorder semantics
# ---------------------------------------------------------------------------

def test_recorder_off_by_default():
    assert perf.active() is None
    perf.add("nobody.listening", 5)  # must be a silent no-op
    assert perf.active() is None


def test_recording_collects_and_restores():
    with perf.recording() as recorder:
        assert perf.active() is recorder
        perf.add("x")
        perf.add("x", 2)
        perf.add("y", 0.5)
    assert perf.active() is None
    assert recorder.counters == {"x": 3, "y": 0.5}


def test_recording_nests():
    with perf.recording() as outer:
        perf.add("level", 1)
        with perf.recording() as inner:
            assert perf.active() is inner
            perf.add("level", 10)
        assert perf.active() is outer
        perf.add("level", 1)
    assert outer.get("level") == 2
    assert inner.get("level") == 10


def test_recorder_merge_and_clear():
    recorder = perf.PerfRecorder()
    recorder.add("a")
    recorder.merge({"a": 2, "b": 7})
    assert recorder.get("a") == 3
    assert recorder.get("b") == 7
    assert recorder.get("missing", -1) == -1
    recorder.clear()
    assert recorder.counters == {}


def test_timer_records_seconds_and_calls():
    with perf.recording() as recorder:
        with perf.timer("stage"):
            pass
        with perf.timer("stage"):
            pass
    counters = recorder.counters
    assert counters["stage.calls"] == 2
    assert counters["stage.seconds"] >= 0
    # Off: timer must not raise and must record nothing anywhere.
    with perf.timer("stage"):
        pass


def test_differs_report_counters():
    reference, version = bench_pair(size=20000)
    with perf.recording() as recorder:
        greedy_delta(reference, version)
        correcting_delta(reference, version)
    counters = recorder.counters
    assert counters["diff.greedy.calls"] == 1
    assert counters["diff.correcting.calls"] == 1
    assert counters["diff.greedy.version_bytes"] == len(version)
    assert "diff.greedy.seconds" in counters


# ---------------------------------------------------------------------------
# Bench runner artifacts
# ---------------------------------------------------------------------------

def test_quick_suite_is_a_subset():
    quick = {op.name: op for op in build_suite(quick=True)}
    full = {op.name for op in build_suite(quick=False)}
    assert quick and set(quick) < full
    # CI gates the journaled apply against the plain one within one
    # quick run: same script, byte-exact version, complete journal.
    journaled = quick["apply_journaled_256k"]
    assert journaled.input_bytes == quick["apply_in_place_256k"].input_bytes
    assert journaled.oracle(journaled.run())
    # The drift gate covers the in-place encoder through this op: the
    # same converted script, encoded as IPD2, decodes back to it.
    encode = quick["encode_inplace_256k"]
    assert encode.input_bytes == quick["apply_in_place_256k"].input_bytes
    payload = encode.run()
    assert payload[:4] == b"IPD2" and encode.oracle(payload)


def test_run_op_artifact_shape():
    op = next(op for op in build_suite(quick=True)
              if op.name == "apply_two_space_256k")
    artifact = run_op(op, repeats=1)
    assert artifact["schema"] == SCHEMA
    assert artifact["name"] == "apply_two_space_256k"
    assert artifact["wall_seconds"] > 0
    assert artifact["throughput_mb_s"] > 0
    assert artifact["meta"]["oracle_identical"] is True
    json.dumps(artifact)  # must be serializable as-is


def test_run_bench_writes_artifacts(tmp_path):
    written = run_bench(str(tmp_path), quick=True, repeats=1,
                        ops=["apply_two_space"], echo=lambda line: None)
    assert len(written) == 1
    artifact = json.loads(written[0].read_text())
    assert written[0].name == "BENCH_apply_two_space_256k.json"
    assert artifact["schema"] == SCHEMA
    loaded = load_artifacts(str(tmp_path))
    assert set(loaded) == {"apply_two_space_256k"}


def test_run_bench_no_fast_skips_oracle(tmp_path):
    written = run_bench(str(tmp_path), quick=True, repeats=1, fast=False,
                        ops=["apply_two_space"], echo=lambda line: None)
    artifact = json.loads(written[0].read_text())
    assert artifact["meta"]["fast_paths"] is False
    assert artifact["meta"]["oracle_identical"] is None


# ---------------------------------------------------------------------------
# Regression compare
# ---------------------------------------------------------------------------

def _artifact(name, mb_s):
    return {"schema": SCHEMA, "name": name, "throughput_mb_s": mb_s}


def test_compare_passes_within_threshold():
    results = compare_artifacts(
        {"op": _artifact("op", 100.0)}, {"op": _artifact("op", 90.0)},
        threshold=0.15)
    assert [r.ok for r in results] == [True]


def test_compare_fails_on_regression():
    results = compare_artifacts(
        {"op": _artifact("op", 100.0)}, {"op": _artifact("op", 80.0)},
        threshold=0.15)
    assert [r.ok for r in results] == [False]
    assert "0.80x" in results[0].detail


def test_compare_min_speedup_gate():
    baseline = {"op": _artifact("op", 10.0)}
    met = compare_artifacts(baseline, {"op": _artifact("op", 35.0)},
                            min_speedup={"op": 3.0})
    missed = compare_artifacts(baseline, {"op": _artifact("op", 25.0)},
                               min_speedup={"op": 3.0})
    assert met[0].ok and not missed[0].ok


def test_compare_missing_artifact_rules():
    baseline = {"a": _artifact("a", 1.0)}
    current = {"b": _artifact("b", 1.0)}
    results = {r.name: r for r in compare_artifacts(baseline, current)}
    # One-sided artifacts are reported but cannot fail the gate...
    assert results["a"].ok and results["b"].ok
    # ...unless a --min-speedup names them: a typo must not pass silently.
    gated = {r.name: r for r in compare_artifacts(
        baseline, current, min_speedup={"a": 2.0, "typo": 2.0})}
    assert not gated["a"].ok
    assert not gated["typo"].ok


def test_parse_min_speedup():
    assert parse_min_speedup(["x=3.0", "y=1.5"]) == {"x": 3.0, "y": 1.5}
    with pytest.raises(Exception):
        parse_min_speedup(["nonsense"])


def test_compare_cli_end_to_end(tmp_path, capsys):
    base_dir = tmp_path / "base"
    cur_dir = tmp_path / "cur"
    for directory, mb_s in ((base_dir, 10.0), (cur_dir, 40.0)):
        directory.mkdir()
        (directory / "BENCH_op.json").write_text(
            json.dumps(_artifact("op", mb_s)))
    assert compare_main([str(base_dir), str(cur_dir)]) == 0
    assert compare_main([str(base_dir), str(cur_dir),
                         "--min-speedup", "op=3.0"]) == 0
    assert compare_main([str(base_dir), str(cur_dir),
                         "--min-speedup", "op=5.0"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "PASS" in out


def test_load_artifacts_rejects_foreign_schema(tmp_path):
    (tmp_path / "BENCH_x.json").write_text(json.dumps({"schema": "other/1"}))
    with pytest.raises(ValueError):
        load_artifacts(str(tmp_path))
    with pytest.raises(FileNotFoundError):
        load_artifacts(str(tmp_path / "empty"))


def test_render_lists_every_artifact():
    results = compare_artifacts(
        {"a": _artifact("a", 2.0)}, {"a": _artifact("a", 2.0)})
    table = render(results)
    assert "a" in table and "PASS" in table
