"""Tree differencing: build and apply whole-package upgrade bundles.

:func:`build_bundle` turns two releases of a package tree into one
:class:`~repro.bundle.archive.Bundle`: unchanged files cost nothing,
modified files carry an in-place delta, renamed files carry a directive
(plus a delta when the content also changed — detected by comparing
against the rename source), added files carry their bytes, removed
files a directive.

:func:`apply_bundle` upgrades a tree dict *in place*: every per-file
delta is applied by the strict in-place engine inside that file's own
buffer, renames re-key buffers without copying storage, and the result
is verified against the bundled expectations.  Peak extra storage is
zero file copies — the bundle layer inherits the paper's guarantee file
by file.
"""

from __future__ import annotations

from typing import Dict, MutableMapping, Union

from ..core.apply import patch_in_place
from ..core.convert import make_in_place
from ..delta import ALGORITHMS
from ..delta.encode import FORMAT_INPLACE, encode_delta, version_checksum
from ..exceptions import ReproError, VerificationError
from .archive import (
    OP_ADD,
    OP_DELTA,
    OP_REMOVE,
    OP_RENAME,
    Bundle,
    BundleEntry,
)
from .manifest import Manifest, classify_changes

Tree = MutableMapping[str, Union[bytes, bytearray]]


def build_bundle(
    package: str,
    from_release: int,
    to_release: int,
    old_tree: Dict[str, bytes],
    new_tree: Dict[str, bytes],
    *,
    algorithm: str = "correcting",
    policy: str = "local-min",
    scratch_budget: int = 0,
) -> Bundle:
    """Diff two package trees into one upgrade bundle.

    Per-file deltas are converted for in-place reconstruction with the
    given policy and scratch budget.  When a delta would be larger than
    the file itself (pathological churn), the file ships as an ADD
    instead — the size guarantee a distribution system needs.
    """
    differ = ALGORITHMS[algorithm]
    old_manifest = Manifest.from_tree(package, from_release, old_tree)
    new_manifest = Manifest.from_tree(package, to_release, new_tree)
    bundle = Bundle(package, from_release, to_release)

    def delta_payload(reference: bytes, version: bytes) -> bytes:
        script = differ(reference, version)
        converted = make_in_place(script, reference, policy=policy,
                                  scratch_budget=scratch_budget)
        return encode_delta(converted.script, FORMAT_INPLACE,
                            version_crc32=version_checksum(version),
                            reference=reference)

    for change in classify_changes(old_manifest, new_manifest):
        if change.kind == "unchanged":
            continue
        if change.kind == "modify":
            payload = delta_payload(old_tree[change.path], new_tree[change.path])
            if len(payload) < len(new_tree[change.path]):
                bundle.entries.append(
                    BundleEntry(OP_DELTA, change.path, payload=payload)
                )
            else:
                bundle.entries.append(
                    BundleEntry(OP_ADD, change.path, content=new_tree[change.path])
                )
        elif change.kind == "add":
            bundle.entries.append(
                BundleEntry(OP_ADD, change.path, content=new_tree[change.path])
            )
        elif change.kind == "rename":
            assert change.from_path is not None
            old_data = old_tree[change.from_path]
            new_data = new_tree[change.path]
            payload = b"" if old_data == new_data else \
                delta_payload(old_data, new_data)
            bundle.entries.append(BundleEntry(
                OP_RENAME, change.path, payload=payload,
                from_path=change.from_path,
            ))
        elif change.kind == "remove":
            bundle.entries.append(BundleEntry(OP_REMOVE, change.path))
        else:  # pragma: no cover - classify_changes is exhaustive
            raise ReproError("unknown change kind %r" % change.kind)
    return bundle


def _patch(path: str, data: Union[bytes, bytearray], payload: bytes) -> bytes:
    """One file's new version, built in place in a copy of ``data``.

    :func:`~repro.core.apply.patch_in_place` checks the reference
    digest and every command's bounds before the first write (a no-op
    digest check for ``IPD1`` payloads, which carry none), and the
    result against the version checksum the payload carries; a
    checksum mismatch names ``path``.
    """
    try:
        return bytes(patch_in_place(bytearray(data), payload))
    except VerificationError as exc:
        raise VerificationError("%s: %s" % (path, exc)) from None


def apply_bundle(tree: Tree, bundle: Bundle) -> None:
    """Upgrade ``tree`` in place per the bundle's directives.

    Each file's new version is materialized in the buffer its old
    version occupies (strict in-place engine), after its payload's
    reference digest matched the old version; renames move buffers by
    re-keying.  Raises on any missing file, conflict, reference or
    checksum mismatch — after which the tree may be partially upgraded,
    exactly like a half-applied single-file delta (use the journal
    layer for crash safety).
    """
    for entry in bundle.entries:
        if entry.op == OP_DELTA:
            if entry.path not in tree:
                raise ReproError("bundle patches missing file %r" % entry.path)
            tree[entry.path] = _patch(entry.path, tree[entry.path],
                                      entry.payload)
        elif entry.op == OP_ADD:
            tree[entry.path] = entry.content
        elif entry.op == OP_RENAME:
            if entry.from_path not in tree:
                raise ReproError(
                    "bundle renames missing file %r" % entry.from_path
                )
            data = tree[entry.from_path]
            if entry.payload:
                data = _patch(entry.path, data, entry.payload)
            del tree[entry.from_path]
            tree[entry.path] = bytes(data)
        elif entry.op == OP_REMOVE:
            if entry.path not in tree:
                raise ReproError("bundle removes missing file %r" % entry.path)
            del tree[entry.path]
        else:
            raise ReproError("unknown bundle op 0x%02x" % entry.op)
