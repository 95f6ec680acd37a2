"""Seed-determined inputs: release trains and the pull order.

The generator lives with the benchmark, not in ``repro.workloads``, so a
change to the program cannot change what the benchmark feeds it.  It
follows the shape of the library's default corpus: an ELF-like binary
image (opcode motifs, data runs, a symbol table) and releases derived by
the default ``MutationProfile`` edit mix (about 0.7 edits per KiB, 12 to
640 byte content edits, structural edits capped at 200 bytes).
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: (kind, weight) of the default MutationProfile edit mix.
EDITS = (("insert", 0.26), ("delete", 0.20), ("replace", 0.28),
         ("move", 0.18), ("duplicate", 0.03), ("swap", 0.03))
STRUCTURAL = ("move", "duplicate", "swap")
EDITS_PER_KB = 0.35
MIN_EDITS = 2
MIN_EDIT, MAX_EDIT, MAX_STRUCTURAL = 12, 640, 200

Pull = Tuple[str, int, int]


def _ident(rng: random.Random) -> bytes:
    stem = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz_")
                   for _ in range(rng.randint(4, 14)))
    return (rng.choice(("sys_", "drv_", "io_", "mm_", "")) + stem).encode()


def make_image(rng: random.Random, size: int) -> bytes:
    """One sectioned binary image of exactly ``size`` bytes."""
    out = bytearray(b"\x7fBIN" + rng.randbytes(12))
    motifs = [rng.randbytes(rng.randint(6, 24)) for _ in range(12)]
    while len(out) < size * 0.55:
        if rng.random() < 0.45:
            out += rng.choice(motifs)
        else:
            out += rng.randbytes(rng.randint(4, 32))
    data_end = len(out) + int(size * 0.2)
    while len(out) < data_end:
        if rng.random() < 0.5:
            out += bytes([rng.randrange(256)]) * rng.randint(8, 64)
        else:
            out += rng.randbytes(rng.randint(8, 48))
    while len(out) < size:
        out += _ident(rng) + b"\x00"
    return bytes(out[:size])


def _edit(data: bytes, rng: random.Random, kind: str, n: int,
          where: float) -> bytes:
    at = int(where * len(data))
    if kind == "insert":
        return data[:at] + rng.randbytes(n) + data[at:]
    if kind == "delete":
        return data[:at] + data[at + n:]
    if kind == "replace":
        return data[:at] + rng.randbytes(n) + data[at + n:]
    src = rng.randrange(max(1, len(data) - n))
    block = data[src:src + n]
    if kind == "duplicate":
        return data[:at] + block + data[at:]
    if kind == "move":
        rest = data[:src] + data[src + n:]
        at = rng.randrange(len(rest) + 1)
        return rest[:at] + block + rest[at:]
    # swap: exchange two non-overlapping blocks
    other = rng.randrange(max(1, len(data) - n))
    a, b = sorted((src, other))
    if b < a + n:
        return data
    return (data[:a] + data[b:b + n] + data[a + n:b] + data[a:a + n]
            + data[b + n:])


def mutate(data: bytes, rng: random.Random, jitter: float) -> bytes:
    """The next release of ``data``; always differs from it.

    ``jitter`` scales the profile's expected edit count.  Edit kinds
    come in the profile's proportions, each kind's sizes are spread
    evenly over its range, and the edits over the image (stratified
    draws), so the amount and spread of change per release, and with it
    every store decision and byte ratio, varies little from seed to
    seed.
    """
    expected = max(MIN_EDITS, EDITS_PER_KB * len(data) / 1024.0)
    count = max(MIN_EDITS, int(expected * jitter))
    per_kind = {kind: int(count * weight) for kind, weight in EDITS}
    while sum(per_kind.values()) < count:
        per_kind[rng.choices([k for k, _ in EDITS],
                             [w for _, w in EDITS])[0]] += 1
    edits = []
    for kind, n in per_kind.items():
        hi = MAX_STRUCTURAL if kind in STRUCTURAL else MAX_EDIT
        edits += [(kind, int(MIN_EDIT + (hi - MIN_EDIT) * (i + rng.random())
                             / n)) for i in range(n)]
    out = data
    while out == data:
        rng.shuffle(edits)
        for i, (kind, size) in enumerate(edits):
            out = _edit(out, rng, kind, size,
                        (i + rng.random()) / len(edits))
    return out


def make_trains(seed: int, packages: int, releases: int,
                size: int) -> Dict[str, List[bytes]]:
    """``packages`` release trains of ``releases`` images, oldest first."""
    rng = random.Random(seed)
    trains: Dict[str, List[bytes]] = {}
    for p in range(packages):
        image = make_image(rng, size)
        train = [image]
        # The profile's +/-30% edit-count jitter, spread evenly over the
        # train in seeded order.
        steps = max(1, releases - 2)
        jitters = [0.7 + 0.6 * i / steps for i in range(releases - 1)]
        rng.shuffle(jitters)
        for jitter in jitters:
            image = mutate(image, rng, jitter)
            train.append(image)
        trains["pkg%02d" % p] = train
    return trains


def pull_order(seed: int, trains: Dict[str, List[bytes]]) -> List[Pull]:
    """Every distinct (package, have < want) pair once, seeded shuffle."""
    pulls = [(package, have, want)
             for package, train in sorted(trains.items())
             for have in range(len(train))
             for want in range(have + 1, len(train))]
    random.Random(seed ^ 0x5EED).shuffle(pulls)
    return pulls


def publish_order(trains: Dict[str, List[bytes]]) -> List[Tuple[str, int]]:
    """Round-robin over packages, each train oldest first."""
    depth = max(len(t) for t in trains.values())
    return [(package, r) for r in range(depth)
            for package in sorted(trains) if r < len(trains[package])]
