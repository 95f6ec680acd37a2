"""Edit-script mutators: derive a new file version from an old one.

The paper's corpus is successive released versions of real software.  A
release differs from its predecessor by a modest set of localized edits —
inserted functions, deleted blocks, changed constants, occasionally a
moved region.  This module generates such edits synthetically and
deterministically (seeded :class:`random.Random`), so corpus generation
is reproducible across runs and machines.

Each mutator takes and returns ``bytes``; :func:`mutate` composes a
random mix drawn from :class:`MutationProfile`, whose defaults are
calibrated so the resulting version files delta-compress into the 4-10x
range the paper reports for distributed software.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict


def insert_bytes(data: bytes, rng: random.Random, size: int) -> bytes:
    """Insert ``size`` fresh random bytes at a random position."""
    pos = rng.randrange(len(data) + 1)
    blob = rng.randbytes(size)
    return data[:pos] + blob + data[pos:]


def delete_bytes(data: bytes, rng: random.Random, size: int) -> bytes:
    """Delete up to ``size`` bytes starting at a random position."""
    if len(data) <= 1:
        return data
    size = min(size, len(data) - 1)
    pos = rng.randrange(len(data) - size + 1)
    return data[:pos] + data[pos + size:]


def replace_bytes(data: bytes, rng: random.Random, size: int) -> bytes:
    """Overwrite up to ``size`` bytes at a random position with fresh bytes."""
    if not data:
        return data
    size = min(size, len(data))
    pos = rng.randrange(len(data) - size + 1)
    return data[:pos] + rng.randbytes(size) + data[pos + size:]


def move_block(data: bytes, rng: random.Random, size: int) -> bytes:
    """Cut a block of up to ``size`` bytes and reinsert it elsewhere.

    Block moves are what make delta digraphs cyclic: two regions that
    swap places read each other's old locations.
    """
    if len(data) < 2:
        return data
    size = min(size, len(data) // 2)
    if size == 0:
        return data
    src = rng.randrange(len(data) - size + 1)
    block = data[src:src + size]
    rest = data[:src] + data[src + size:]
    dst = rng.randrange(len(rest) + 1)
    return rest[:dst] + block + rest[dst:]


def duplicate_block(data: bytes, rng: random.Random, size: int) -> bytes:
    """Copy a block of up to ``size`` bytes to a second random position."""
    if not data:
        return data
    size = min(size, len(data))
    src = rng.randrange(len(data) - size + 1)
    block = data[src:src + size]
    dst = rng.randrange(len(data) + 1)
    return data[:dst] + block + data[dst:]


def swap_blocks(data: bytes, rng: random.Random, size: int) -> bytes:
    """Exchange two disjoint blocks of up to ``size`` bytes.

    The strongest cycle inducer: each block's new location overlaps the
    other's old read interval, giving the CRWI digraph mutual edges.
    """
    if len(data) < 4:
        return data
    size = min(size, len(data) // 4)
    if size == 0:
        return data
    a = rng.randrange(len(data) - 2 * size)
    b = rng.randrange(a + size, len(data) - size + 1)
    return (
        data[:a] + data[b:b + size] + data[a + size:b] + data[a:a + size]
        + data[b + size:]
    )


Mutator = Callable[[bytes, random.Random, int], bytes]

MUTATORS: Dict[str, Mutator] = {
    "insert": insert_bytes,
    "delete": delete_bytes,
    "replace": replace_bytes,
    "move": move_block,
    "duplicate": duplicate_block,
    "swap": swap_blocks,
}


@dataclass
class MutationProfile:
    """Distribution of edits applied per derived version.

    ``edits_per_kb`` scales the edit count with file size; ``weights``
    picks the mutator mix; content edits (insert/delete/replace) draw
    sizes uniform in ``[min_edit, max_edit]`` while structural edits
    (move/duplicate/swap) are capped at ``structural_max_edit`` — real
    releases move small code fragments far more often than whole
    segments, and the cap keeps CRWI cycle-breaking costs realistic.
    The default profile changes roughly 5-10% of a file's bytes per
    version, landing plain delta compression in the paper's reported
    4-10x band, with enough moves and swaps that the in-place converter
    meets real cycles.
    """

    edits_per_kb: float = 0.7
    min_edits: int = 2
    min_edit: int = 12
    max_edit: int = 640
    structural_max_edit: int = 200
    weights: Dict[str, float] = field(
        default_factory=lambda: {
            "insert": 0.26,
            "delete": 0.20,
            "replace": 0.28,
            "move": 0.18,
            "duplicate": 0.03,
            "swap": 0.03,
        }
    )

    def edit_size(self, name: str, rng: random.Random) -> int:
        """Draw an edit size for mutator ``name`` per the profile's caps."""
        hi = self.max_edit
        if name in ("move", "duplicate", "swap"):
            hi = min(hi, self.structural_max_edit)
        return rng.randint(self.min_edit, max(self.min_edit, hi))

    def edit_count(self, size: int, rng: random.Random) -> int:
        """Number of edits for a file of ``size`` bytes."""
        expected = max(self.min_edits, self.edits_per_kb * size / 1024.0)
        # Jitter +/- 30% so versions differ in how much they changed.
        return max(self.min_edits, int(expected * rng.uniform(0.7, 1.3)))


#: Profile for volatile files (changelogs, generated headers): heavier churn.
CHURN_PROFILE = MutationProfile(edits_per_kb=2.5, min_edit=24, max_edit=1280)
#: Profile for stable files (licence texts, icons): almost untouched.
STABLE_PROFILE = MutationProfile(edits_per_kb=0.08, min_edits=0, max_edit=96)


def mutate(data: bytes, rng: random.Random,
           profile: MutationProfile = MutationProfile()) -> bytes:
    """Derive a new version of ``data`` by applying a random edit mix."""
    names = list(profile.weights)
    weights = [profile.weights[n] for n in names]
    out = data
    for _ in range(profile.edit_count(len(data), rng)):
        name = rng.choices(names, weights)[0]
        size = profile.edit_size(name, rng)
        out = MUTATORS[name](out, rng, size)
    return out
