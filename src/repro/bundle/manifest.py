"""Package manifests: the file-level identity of a release.

The paper distributes *software packages* — trees of files — while its
algorithm works on single files.  The bundle layer bridges that gap,
and the manifest is its unit of identity: per-file sizes and checksums
for one release of one package.  Manifests decide which files changed
(diff at all?) and detect renames (same content under a new path).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class FileEntry:
    """Identity of one file in a release: size plus CRC32."""

    path: str
    size: int
    crc32: int

    @classmethod
    def of(cls, path: str, data: bytes) -> "FileEntry":
        """Compute the entry for ``data`` at ``path``."""
        return cls(path, len(data), zlib.crc32(data) & 0xFFFFFFFF)

    @property
    def content_key(self) -> Tuple[int, int]:
        """(size, crc32): the key rename detection matches on."""
        return (self.size, self.crc32)


@dataclass
class Manifest:
    """All file identities of one release of one package."""

    package: str
    release: int
    files: Dict[str, FileEntry] = field(default_factory=dict)

    @classmethod
    def from_tree(cls, package: str, release: int,
                  tree: Mapping[str, bytes]) -> "Manifest":
        """Build the manifest of an in-memory file tree."""
        return cls(
            package,
            release,
            {path: FileEntry.of(path, data) for path, data in tree.items()},
        )

    def paths(self) -> List[str]:
        """All file paths, sorted."""
        return sorted(self.files)


@dataclass(frozen=True)
class TreeChange:
    """One file-level change between two manifests."""

    #: "modify" | "add" | "remove" | "rename" | "unchanged"
    kind: str
    path: str
    #: For renames: the path the content previously lived at.
    from_path: Optional[str] = None


def classify_changes(old: Manifest, new: Manifest) -> List[TreeChange]:
    """File-level change set between two releases.

    Renames are detected by content identity: a path present only in
    the new release whose (size, crc32) matches a path present only in
    the old release is reported as a rename rather than an add+remove —
    so a moved file costs a directive, not a transfer.
    """
    old_paths = set(old.files)
    new_paths = set(new.files)
    removed = old_paths - new_paths
    added = new_paths - old_paths

    by_content: Dict[Tuple[int, int], List[str]] = {}
    for path in sorted(removed):
        by_content.setdefault(old.files[path].content_key, []).append(path)

    changes: List[TreeChange] = []
    consumed_removals = set()
    for path in sorted(added):
        key = new.files[path].content_key
        sources = by_content.get(key)
        if sources:
            source = sources.pop(0)
            consumed_removals.add(source)
            changes.append(TreeChange("rename", path, from_path=source))
        else:
            changes.append(TreeChange("add", path))
    for path in sorted(removed - consumed_removals):
        changes.append(TreeChange("remove", path))
    for path in sorted(old_paths & new_paths):
        if old.files[path].content_key == new.files[path].content_key:
            changes.append(TreeChange("unchanged", path))
        else:
            changes.append(TreeChange("modify", path))
    return changes
