"""Smoke test of the benchmark itself, at ``--size tiny``.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("wire_bytes_per_image_byte", "store_bytes_per_image_byte")
COUNTS = ("store.publishes", "serve.chain_served", "serve.encodes",
          "store.delta_ratio", "store.hop_reuse_ratio",
          "store.cache_hit_ratio", "pipeline.cache_hit_ratio",
          "core.evicted_bytes", "store.fsyncs_per_op",
          "store.bytes_written_per_op")


def bench(workload: str, *extra: str, seed: int = 3, trace: int = 0,
          root: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--size", "tiny", *extra],
        cwd=root, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace=trace)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: v["unit"] for name, v in res["metrics"].items()}
    for value in res["metrics"].values():
        assert isinstance(value["value"], (int, float))
    diag = json.loads(proc.stdout.strip().splitlines()[-2])["diagnostics"]
    assert diag["fail_ratio"] == 0 and diag["ops"] == res["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_image_trips_the_gate(workload):
    proc = bench(workload, "--wrong-expected")
    assert proc.returncode != 0
    res = result(proc)
    assert not res["correct"] and res["failed"] >= 1


def test_one_seed_repeats_ratios_and_counts():
    runs = [result(bench("pull_chain", seed=5, trace=t))
            for t in (0, 0, 1, 1)]
    for name in EXACT:
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name]
    for name in COUNTS:
        assert runs[2]["metrics"][name] == runs[3]["metrics"][name]
    other = result(bench("pull_chain", seed=6))
    assert other["correct"]


def test_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], root=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
