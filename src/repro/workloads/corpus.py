"""Versioned software-distribution corpus (the GNU/BSD stand-in).

The paper evaluated on "multiple versions of the GNU tools and the BSD
operating system distributions".  This module synthesizes the equivalent
structure: a set of *packages*, each a tree of files (sources, binaries,
docs), released in successive *versions* where every release mutates its
predecessor per a per-kind :class:`~repro.workloads.mutators.MutationProfile`.

The unit the experiments consume is the :class:`VersionPair` — one file's
adjacent releases — which is exactly what a delta compressor sees when a
client on version *k* requests version *k+1*.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .mutators import CHURN_PROFILE, STABLE_PROFILE, MutationProfile, mutate
from .sources import GENERATORS

#: Per-kind mutation behaviour: sources and binaries evolve moderately,
#: docs (changelogs) churn, and a package's stable files barely move.
_PROFILES: Dict[str, MutationProfile] = {
    "source": MutationProfile(),
    "binary": MutationProfile(edits_per_kb=0.55, max_edit=768),
    "doc": CHURN_PROFILE,
    "stable": STABLE_PROFILE,
}


@dataclass(frozen=True)
class VersionPair:
    """Adjacent releases of one file: the delta compressor's input."""

    package: str
    path: str
    kind: str
    release: int
    reference: bytes
    version: bytes

    @property
    def name(self) -> str:
        """Stable identifier, e.g. ``"gnufoo-3/src/main.c@r2"``."""
        return "%s/%s@r%d" % (self.package, self.path, self.release)


@dataclass
class PackageSpec:
    """Shape of one synthetic package."""

    name: str
    #: (path, kind, size) for each member file.
    files: List[Tuple[str, str, int]] = field(default_factory=list)


def default_package_specs(rng: random.Random, count: int,
                          scale: float = 1.0) -> List[PackageSpec]:
    """Package shapes echoing a small software distribution.

    ``scale`` multiplies file sizes, letting benches trade corpus realism
    against runtime.
    """
    specs: List[PackageSpec] = []
    for i in range(count):
        name = "pkg%03d" % i
        files: List[Tuple[str, str, int]] = []
        for s in range(rng.randint(2, 4)):
            files.append(("src/mod%d.c" % s, "source",
                          int(rng.randint(6_000, 40_000) * scale)))
        files.append(("bin/%s" % name, "binary",
                      int(rng.randint(20_000, 90_000) * scale)))
        files.append(("ChangeLog", "doc", int(rng.randint(3_000, 12_000) * scale)))
        if rng.random() < 0.5:
            files.append(("COPYING", "stable", int(6_000 * scale)))
        specs.append(PackageSpec(name, files))
    return specs


class Corpus:
    """A fully materialized corpus: every file of every release.

    ``releases[r][(package, path)]`` holds the bytes of that file in
    release ``r``.  Built deterministically from ``seed``.
    """

    def __init__(
        self,
        seed: int = 19980601,
        packages: int = 12,
        releases: int = 3,
        scale: float = 1.0,
        specs: Optional[Sequence[PackageSpec]] = None,
    ):
        if releases < 2:
            raise ValueError("a corpus needs at least 2 releases to form pairs")
        rng = random.Random(seed)
        self.specs = list(specs) if specs is not None else \
            default_package_specs(rng, packages, scale)
        self.kinds: Dict[Tuple[str, str], str] = {}
        self.releases: List[Dict[Tuple[str, str], bytes]] = []

        base: Dict[Tuple[str, str], bytes] = {}
        for spec in self.specs:
            for path, kind, size in spec.files:
                generator = GENERATORS.get(kind, GENERATORS["source"])
                if kind == "stable":
                    generator = GENERATORS["doc"]
                base[(spec.name, path)] = generator(rng, size)
                self.kinds[(spec.name, path)] = kind
        self.releases.append(base)
        for _ in range(1, releases):
            prev = self.releases[-1]
            nxt = {
                key: mutate(data, rng, _PROFILES[self.kinds[key]])
                for key, data in prev.items()
            }
            self.releases.append(nxt)

    def pairs(self) -> Iterator[VersionPair]:
        """All adjacent-release file pairs, the experiments' workload."""
        for r in range(1, len(self.releases)):
            old, new = self.releases[r - 1], self.releases[r]
            for (package, path), reference in old.items():
                yield VersionPair(
                    package=package,
                    path=path,
                    kind=self.kinds[(package, path)],
                    release=r,
                    reference=reference,
                    version=new[(package, path)],
                )

    def total_version_bytes(self) -> int:
        """Sum of version-file sizes over all pairs (the corpus 'weight')."""
        return sum(len(p.version) for p in self.pairs())

