"""Package-level distribution: manifests, tree diffing, upgrade bundles."""

from .archive import (
    OP_ADD,
    OP_DELTA,
    OP_REMOVE,
    OP_RENAME,
    Bundle,
    BundleEntry,
    decode_bundle,
    encode_bundle,
)
from .manifest import FileEntry, Manifest, TreeChange, classify_changes
from .treediff import apply_bundle, build_bundle

__all__ = [
    "Bundle",
    "BundleEntry",
    "FileEntry",
    "Manifest",
    "OP_ADD",
    "OP_DELTA",
    "OP_REMOVE",
    "OP_RENAME",
    "TreeChange",
    "apply_bundle",
    "build_bundle",
    "classify_changes",
    "decode_bundle",
    "encode_bundle",
]
