"""Tests for package-level distribution (repro.bundle)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bundle import (
    Bundle,
    BundleEntry,
    Manifest,
    OP_ADD,
    OP_DELTA,
    OP_REMOVE,
    OP_RENAME,
    apply_bundle,
    build_bundle,
    classify_changes,
    decode_bundle,
    encode_bundle,
)
from repro import diff
from repro.bundle.manifest import FileEntry
from repro.core.convert import make_in_place
from repro.delta.encode import (
    FORMAT_INPLACE,
    decode_delta,
    encode_delta,
    version_checksum,
)
from repro.exceptions import (
    DeltaFormatError,
    IntegrityError,
    ReproError,
    VerificationError,
)
from repro.workloads import Corpus, make_source_file, mutate


@pytest.fixture
def trees(rng):
    old = {
        "src/main.c": make_source_file(rng, 5_000),
        "src/util.c": make_source_file(rng, 3_000),
        "README": b"read me\n" * 50,
        "data/table.bin": rng.randbytes(2_000),
    }
    new = dict(old)
    new["src/main.c"] = mutate(old["src/main.c"], rng)          # modify
    new["docs/README"] = new.pop("README")                       # rename
    new["src/new_module.c"] = make_source_file(rng, 2_000)       # add
    del new["data/table.bin"]                                    # remove
    return old, new


class TestManifest:
    def test_from_tree(self, trees):
        old, _new = trees
        manifest = Manifest.from_tree("pkg", 0, old)
        assert manifest.paths() == sorted(old)
        assert manifest.files["README"] == FileEntry.of("README",
                                                        old["README"])
        assert sum(entry.size for entry in manifest.files.values()) == \
            sum(len(v) for v in old.values())

    def test_classify_changes(self, trees):
        old, new = trees
        changes = classify_changes(
            Manifest.from_tree("pkg", 0, old), Manifest.from_tree("pkg", 1, new)
        )
        kinds = {c.path: c.kind for c in changes}
        assert kinds["src/main.c"] == "modify"
        assert kinds["src/util.c"] == "unchanged"
        assert kinds["docs/README"] == "rename"
        assert kinds["src/new_module.c"] == "add"
        assert kinds["data/table.bin"] == "remove"
        rename = next(c for c in changes if c.kind == "rename")
        assert rename.from_path == "README"

    def test_rename_detection_is_content_based(self):
        old = {"a": b"same content here", "b": b"other"}
        new = {"c": b"same content here", "b": b"other"}
        changes = classify_changes(
            Manifest.from_tree("p", 0, old), Manifest.from_tree("p", 1, new)
        )
        kinds = {(c.kind, c.path) for c in changes}
        assert ("rename", "c") in kinds
        assert not any(k == "remove" for k, _ in kinds)

    def test_duplicate_content_renames_pair_up(self):
        old = {"a1": b"dup", "a2": b"dup"}
        new = {"b1": b"dup", "b2": b"dup"}
        changes = classify_changes(
            Manifest.from_tree("p", 0, old), Manifest.from_tree("p", 1, new)
        )
        renames = [c for c in changes if c.kind == "rename"]
        assert len(renames) == 2
        assert {c.from_path for c in renames} == {"a1", "a2"}


class TestArchiveCodec:
    def sample(self) -> Bundle:
        return Bundle("pkg", 0, 1, [
            BundleEntry(OP_DELTA, "a.c", payload=b"DELTA-BYTES"),
            BundleEntry(OP_ADD, "b.c", content=b"fresh content"),
            BundleEntry(OP_RENAME, "new/name", payload=b"", from_path="old/name"),
            BundleEntry(OP_REMOVE, "gone.c"),
        ])

    def test_round_trip(self):
        bundle = self.sample()
        decoded = decode_bundle(encode_bundle(bundle))
        assert decoded.package == "pkg"
        assert decoded.from_release == 0 and decoded.to_release == 1
        assert decoded.entries == bundle.entries

    def test_checksum_rejects_corruption(self):
        payload = bytearray(encode_bundle(self.sample()))
        payload[10] ^= 0xFF
        with pytest.raises(DeltaFormatError):
            decode_bundle(bytes(payload))

    def test_bad_magic(self):
        with pytest.raises(DeltaFormatError):
            decode_bundle(b"NOPE" + bytes(30))

    def test_truncation_detected(self):
        payload = encode_bundle(self.sample())
        for cut in (5, len(payload) // 2, len(payload) - 1):
            with pytest.raises(DeltaFormatError):
                decode_bundle(payload[:cut])

    def test_summary(self):
        assert self.sample().summary() == {
            "delta": 1, "add": 1, "remove": 1, "rename": 1,
        }

    def test_unicode_paths(self):
        bundle = Bundle("pkg", 0, 1, [BundleEntry(OP_REMOVE, "señor/ファイル")])
        decoded = decode_bundle(encode_bundle(bundle))
        assert decoded.entries[0].path == "señor/ファイル"


class TestBuildApply:
    def test_end_to_end(self, trees):
        old, new = trees
        bundle = build_bundle("pkg", 0, 1, old, new)
        working = dict(old)
        apply_bundle(working, bundle)
        assert working == new

    def test_via_wire_format(self, trees):
        old, new = trees
        payload = encode_bundle(build_bundle("pkg", 0, 1, old, new))
        working = dict(old)
        apply_bundle(working, decode_bundle(payload))
        assert working == new

    def test_unchanged_files_cost_nothing(self, trees):
        old, new = trees
        bundle = build_bundle("pkg", 0, 1, old, new)
        assert all(e.path != "src/util.c" for e in bundle.entries)

    def test_exact_rename_carries_no_payload(self, trees):
        old, new = trees
        bundle = build_bundle("pkg", 0, 1, old, new)
        rename = next(e for e in bundle.entries if e.op == OP_RENAME)
        assert rename.payload == b""

    def test_rename_with_modification(self, rng):
        content = make_source_file(rng, 4_000)
        old = {"old/path.c": content}
        new = {"new/path.c": mutate(content, rng)}
        # Content changed too, so rename detection misses (different crc)
        # and this ships as add+remove — unless sizes/crc match.  Build
        # and apply must still round-trip.
        bundle = build_bundle("pkg", 0, 1, old, new)
        working = dict(old)
        apply_bundle(working, bundle)
        assert working == new

    def test_bundle_smaller_than_full_tree(self, trees):
        old, new = trees
        payload = encode_bundle(build_bundle("pkg", 0, 1, old, new))
        full = sum(len(v) for v in new.values())
        assert len(payload) < full

    def test_pathological_churn_falls_back_to_add(self, rng):
        old = {"f": rng.randbytes(1_000)}
        new = {"f": rng.randbytes(1_000)}  # unrelated content
        bundle = build_bundle("pkg", 0, 1, old, new)
        assert bundle.entries[0].op == OP_ADD

    def test_apply_missing_file_raises(self, trees):
        old, new = trees
        bundle = build_bundle("pkg", 0, 1, old, new)
        working = dict(old)
        del working["src/main.c"]
        with pytest.raises(ReproError):
            apply_bundle(working, bundle)

    def test_deltas_carry_reference_digest(self, trees):
        old, new = trees
        bundle = build_bundle("pkg", 0, 1, old, new)
        delta = next(e for e in bundle.entries if e.op == OP_DELTA)
        _script, header = decode_delta(delta.payload)
        assert header.has_reference
        assert header.reference_crc32 == version_checksum(old[delta.path])

    def test_altered_file_refused_before_any_write(self, rng):
        old = {"src/main.c": make_source_file(rng, 5_000),
               "src/util.c": make_source_file(rng, 3_000)}
        new = dict(old, **{"src/main.c": mutate(old["src/main.c"], rng)})
        bundle = build_bundle("pkg", 0, 1, old, new)
        working = dict(old)
        altered = bytearray(working["src/main.c"])
        altered[100] ^= 0x01
        working["src/main.c"] = bytes(altered)
        before = dict(working)
        with pytest.raises(IntegrityError) as info:
            apply_bundle(working, bundle)
        assert info.value.kind == "reference"
        assert working == before

    def test_ipd1_bundle_still_applies(self, rng):
        old = make_source_file(rng, 4_000)
        new = mutate(old, rng)
        script = make_in_place(diff(old, new), old).script
        bundle = Bundle("pkg", 0, 1)
        bundle.entries.append(BundleEntry(OP_DELTA, "f", payload=encode_delta(
            script, FORMAT_INPLACE, version_crc32=version_checksum(new))))
        working = {"f": old}
        apply_bundle(working, decode_bundle(encode_bundle(bundle)))
        assert working == {"f": new}

    def test_ipd2_zero_crc_is_checked(self, rng):
        # IPD2 says whether a CRC was recorded; a recorded 0 is a claim
        # about the version, not "no checksum".
        old = make_source_file(rng, 4_000)
        new = mutate(old, rng)
        assert version_checksum(new) != 0
        script = make_in_place(diff(old, new), old).script
        bundle = Bundle("pkg", 0, 1)
        bundle.entries.append(BundleEntry(OP_DELTA, "f", payload=encode_delta(
            script, FORMAT_INPLACE, version_crc32=0, reference=old)))
        with pytest.raises(VerificationError, match="f: .* != delta's"):
            apply_bundle({"f": old}, bundle)

    def test_scratch_budget_propagates(self, rng):
        content = rng.randbytes(6_000)
        old = {"img": content}
        new = {"img": content[3_000:] + content[:3_000]}  # big swap: cycles
        plain = encode_bundle(build_bundle("p", 0, 1, old, new))
        scratched = encode_bundle(
            build_bundle("p", 0, 1, old, new, scratch_budget=1 << 14)
        )
        assert len(scratched) < len(plain)
        working = dict(old)
        apply_bundle(working, decode_bundle(scratched))
        assert working == new


class TestCorpusPackages:
    def test_whole_corpus_release_upgrade(self):
        corpus = Corpus(seed=21, packages=2, releases=2, scale=0.15)
        r0, r1 = corpus.releases
        for spec in corpus.specs:
            old = {path: r0[(spec.name, path)] for path, _, _ in spec.files}
            new = {path: r1[(spec.name, path)] for path, _, _ in spec.files}
            bundle = build_bundle(spec.name, 0, 1, old, new)
            working = dict(old)
            apply_bundle(working, bundle)
            assert working == new


class TestBundleProperty:
    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_random_tree_evolution_round_trips(self, seed):
        rng = random.Random(seed)
        old = {
            "f%d" % i: rng.randbytes(rng.randint(1, 800))
            for i in range(rng.randint(1, 6))
        }
        new = {}
        for path, data in old.items():
            roll = rng.random()
            if roll < 0.2:
                continue  # removed
            if roll < 0.4:
                new["moved/" + path] = data  # renamed
            elif roll < 0.8:
                new[path] = mutate(data, rng)  # modified
            else:
                new[path] = data  # unchanged
        if rng.random() < 0.5:
            new["brand-new"] = rng.randbytes(rng.randint(1, 500))
        bundle = build_bundle("pkg", 0, 1, old, new)
        decoded = decode_bundle(encode_bundle(bundle))
        working = dict(old)
        apply_bundle(working, decoded)
        assert working == new
