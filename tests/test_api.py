"""Tests for the top-level public API (repro/__init__.py)."""

import inspect
import re
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
