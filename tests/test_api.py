"""Tests for the top-level public API (repro/__init__.py)."""

import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.faults
import repro.pipeline
import repro.store

DOCS_API = Path(__file__).resolve().parent.parent / "docs" / "API.md"


def _documented_names(section):
    """Names from ``- `name` — ...`` bullets under ``## `section` ``."""
    text = DOCS_API.read_text()
    names = set()
    in_section = False
    for line in text.splitlines():
        if line.startswith("## "):
            in_section = line.strip() == "## `%s`" % section
            continue
        if in_section and line.startswith("- "):
            # Names sit before the em-dash; wrapped description lines
            # are ignored, so every exported name must appear on the
            # bullet's first line.
            head = line.split("—")[0]
            names.update(re.findall(r"`([A-Za-z_][A-Za-z0-9_]*)`", head))
    return names


class TestDiff:
    def test_default_algorithm(self, sample_pair):
        ref, ver = sample_pair
        script = repro.diff(ref, ver)
        assert repro.apply_delta(script, ref) == ver

    def test_algorithm_selection(self, sample_pair):
        ref, ver = sample_pair
        for name in repro.ALGORITHMS:
            script = repro.diff(ref, ver, algorithm=name)
            assert repro.apply_delta(script, ref) == ver

    def test_kwargs_forwarded(self, sample_pair):
        ref, ver = sample_pair
        script = repro.diff(ref, ver, algorithm="greedy", seed_length=32)
        assert repro.apply_delta(script, ref) == ver

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            repro.diff(b"a", b"b", algorithm="magic")


class TestDiffInPlace:
    def test_end_to_end(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        assert repro.is_in_place_safe(result.script)
        buf = bytearray(ref)
        repro.apply_in_place(result.script, buf, strict=True)
        assert bytes(buf) == ver

    def test_policy_forwarded(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver, policy="constant")
        assert result.report.policy == "constant"


class TestPatch:
    def test_patch(self, sample_pair):
        ref, ver = sample_pair
        script = repro.diff(ref, ver)
        payload = repro.encode_delta(script, repro.FORMAT_SEQUENTIAL)
        assert repro.patch(ref, payload) == ver

    def test_patch_in_place(self, sample_pair):
        ref, ver = sample_pair
        result = repro.diff_in_place(ref, ver)
        payload = repro.encode_delta(result.script, repro.FORMAT_INPLACE)
        buf = bytearray(ref)
        repro.patch_in_place(buf, payload)
        assert bytes(buf) == ver


class TestSurface:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version(self):
        assert repro.__version__

    def test_executor_registry(self):
        assert repro.EXECUTORS == ("serial", "thread", "process",
                                   "process-shm")
        assert set(repro.pipeline.PROCESS_EXECUTORS) <= set(repro.EXECUTORS)


#: Imports the library with numpy and scipy unimportable, then
#: round-trips one update (diff, convert, apply in place) on the scalar
#: paths.  CI's tier-1 job runs the same check before the suite.
NO_NUMPY_ROUND_TRIP = '''
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import random
import repro, repro.cli, repro.fleet, repro.serve, repro.store
from repro.delta import _kernels
from repro.workloads import make_binary_blob, mutate
assert not _kernels.HAVE_NUMPY
rng = random.Random(19980601)
old = make_binary_blob(rng, 20000)
new = mutate(old, rng)
result = repro.make_in_place(repro.diff(old, new), old)
buf = bytearray(old)
repro.apply_in_place(result.script, buf)
assert bytes(buf) == new
'''


def _python(code):
    """Run ``python -c code`` on this checkout; returns the process."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)


class TestDependencies:
    """The library needs only the standard library; numpy speeds it up."""

    def test_round_trip_without_numpy_or_scipy(self):
        proc = _python(NO_NUMPY_ROUND_TRIP)
        assert proc.returncode == 0, proc.stderr

    def test_cli_import_loads_no_scipy(self):
        proc = _python("import sys, repro.cli\n"
                       "print([m for m in sys.modules if m == 'scipy'"
                       " or m.startswith('scipy.')])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


class TestDocsMatchSurface:
    """docs/API.md is the contract: it must list exactly ``__all__``."""

    def test_top_level_surface_documented(self):
        documented = _documented_names("repro")
        exported = set(repro.__all__)
        assert documented == exported, (
            "undocumented: %s / stale docs: %s"
            % (sorted(exported - documented), sorted(documented - exported))
        )

    def test_pipeline_surface_documented(self):
        documented = _documented_names("repro.pipeline")
        exported = set(repro.pipeline.__all__)
        assert documented == exported, (
            "undocumented: %s / stale docs: %s"
            % (sorted(exported - documented), sorted(documented - exported))
        )

    def test_pipeline_exports_resolve(self):
        for name in repro.pipeline.__all__:
            assert hasattr(repro.pipeline, name), name

    def test_store_surface_documented(self):
        documented = _documented_names("repro.store")
        exported = set(repro.store.__all__)
        assert documented == exported, (
            "undocumented: %s / stale docs: %s"
            % (sorted(exported - documented), sorted(documented - exported))
        )

    def test_faults_surface_documented(self):
        documented = _documented_names("repro.faults")
        exported = set(repro.faults.__all__)
        assert documented == exported, (
            "undocumented: %s / stale docs: %s"
            % (sorted(exported - documented), sorted(documented - exported))
        )

    def test_store_exports_resolve(self):
        for name in repro.store.__all__:
            assert hasattr(repro.store, name), name

    def test_correcting_keywords_documented(self):
        text = DOCS_API.read_text()
        start = text.index("`correcting_delta` keywords:")
        paragraph = text[start:text.index("\n\n", start)]
        documented = set(re.findall(r"`([a-z_]+)=", paragraph))
        params = inspect.signature(repro.correcting_delta).parameters
        assert "return_version_table" in documented
        for keyword in documented:
            assert params[keyword].kind is inspect.Parameter.KEYWORD_ONLY
