"""Executable constructions for the paper's Figures 2 and 3.

The paper uses two hand-built inputs to characterize the conversion
algorithm's limits:

* **Figure 2** — a CRWI digraph shaped like a binary tree with an edge
  from every leaf back to the root.  Every root-to-leaf path closes a
  cycle through the root; the locally-minimum policy, seeing one cycle
  at a time, evicts each (cheap) leaf, while the globally optimal
  solution evicts just the root.  The gap grows linearly with the leaf
  count, witnessing that no per-cycle policy approximates the (NP-hard)
  optimum.
* **Figure 3 / section 6** — a reference/version pair on ``L = B*B``
  bytes whose digraph has ``(B-1)*B + B = L`` edges: quadratic in the
  command count ``|C| = 2B - 1`` and exactly meeting the Lemma 1 bound
  ``|E| <= L_V``.

Both are built here as *actual delta scripts over actual bytes* — not
abstract graphs — so membership in the CRWI class is demonstrated by
construction and every policy/bench runs the real pipeline end to end.
:func:`rotation_script` additionally generates the long-cycle inputs the
section 7 runtime discussion mentions ("an input will contain many long
cycles").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

from ..core.commands import CopyCommand, DeltaScript


@dataclass(frozen=True)
class AdversarialCase:
    """A constructed reference/script pair plus its headline parameters."""

    name: str
    reference: bytes
    script: DeltaScript
    #: Number of CRWI cycles the construction plants (informational).
    planted_cycles: int


def figure2_case(
    depth: int,
    *,
    leaf_length: int = 8,
    internal_length: int = 10,
    seed: int = 2,
) -> AdversarialCase:
    """The Figure 2 adversary as a real delta file.

    Builds a complete binary tree of ``depth`` levels below the root
    (``2**depth`` leaves).  Copy lengths are chosen so leaves are the
    cheapest vertices (``leaf_length < internal_length``): the
    locally-minimum policy evicts every leaf at total cost
    ``2**depth * (leaf_length - |f|)`` while evicting the root alone
    (cost ``internal_length - |f|``) is optimal.

    Layout: write intervals are allocated contiguously in BFS order; an
    internal node's read interval straddles its two children's (adjacent)
    write intervals, and each leaf's read interval sits inside the root's
    write interval — so the CRWI digraph is exactly tree edges plus
    leaf-to-root edges.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1, got %d" % depth)
    half = min(leaf_length, internal_length) // 2
    if half < 1:
        raise ValueError("copy lengths too small to straddle child intervals")

    node_count = 2 ** (depth + 1) - 1
    first_leaf = 2 ** depth - 1  # heap numbering: children of i are 2i+1, 2i+2

    lengths = [
        leaf_length if i >= first_leaf else internal_length
        for i in range(node_count)
    ]
    # BFS-contiguous write intervals: heap order *is* BFS order, and
    # siblings (2i+1, 2i+2) are consecutive, hence adjacent in the layout.
    write_start: List[int] = []
    offset = 0
    for i in range(node_count):
        write_start.append(offset)
        offset += lengths[i]
    version_length = offset

    commands: List[CopyCommand] = []
    for i in range(node_count):
        if i < first_leaf:
            boundary = write_start[2 * i + 2]  # where child 2's interval begins
            src = boundary - half
        else:
            src = write_start[0]  # read inside the root's write interval
        commands.append(CopyCommand(src, write_start[i], lengths[i]))

    rng = random.Random(seed)
    reference = rng.randbytes(version_length)
    script = DeltaScript(commands, version_length)
    return AdversarialCase(
        name="figure2-depth%d" % depth,
        reference=reference,
        script=script,
        planted_cycles=2 ** depth,
    )


def figure2_expected_costs(depth: int, *, leaf_length: int = 8,
                           internal_length: int = 10,
                           offset_encoding_size: int = 4) -> Tuple[int, int]:
    """(locally-minimum cost, optimal cost) for :func:`figure2_case`.

    Locally-minimum evicts every leaf; optimal evicts the root.
    """
    leaves = 2 ** depth
    local = leaves * max(1, leaf_length - offset_encoding_size)
    optimal = max(1, internal_length - offset_encoding_size)
    return local, optimal


def figure3_case(block: int, *, seed: int = 3) -> AdversarialCase:
    """The Figure 3 construction: ``L = block**2`` bytes, ``L`` conflict edges.

    The version's blocks 1..B-1 each copy reference block 0 (each such
    copy reads the interval every length-1 command writes), and the
    version's block 0 is assembled from ``B`` one-byte copies out of the
    last block.  Realizes ``(B-1)*B + B = L`` edges with ``2B - 1``
    commands: quadratic in ``|C|`` and exactly the Lemma 1 bound.
    """
    if block < 2:
        raise ValueError("block must be at least 2, got %d" % block)
    length = block * block
    commands: List[CopyCommand] = []
    # B one-byte copies build version block 0, reading from the last block.
    for j in range(block):
        commands.append(CopyCommand((block - 1) * block + j, j, 1))
    # Blocks 1..B-1 of the version copy reference block 0.
    for i in range(1, block):
        commands.append(CopyCommand(0, i * block, block))
    rng = random.Random(seed)
    reference = rng.randbytes(length)
    script = DeltaScript(commands, length)
    return AdversarialCase(
        name="figure3-block%d" % block,
        reference=reference,
        script=script,
        planted_cycles=block,  # each 1-byte copy forms a 2-cycle with the last block copy
    )


def rotation_script(block: int, blocks: int, *, seed: int = 5) -> AdversarialCase:
    """A block rotation: version block ``i`` is reference block ``i+1 mod n``.

    Every copy reads the interval the next copy writes, so the CRWI
    digraph is a single directed cycle of length ``blocks`` — the "many
    long cycles" workload for the policy-runtime bench (compose several
    with different sizes via :func:`rotation_medley`).  One eviction
    breaks the cycle.
    """
    if block < 1 or blocks < 2:
        raise ValueError("need block >= 1 and blocks >= 2")
    length = block * blocks
    commands = [
        CopyCommand(((i + 1) % blocks) * block, i * block, block)
        for i in range(blocks)
    ]
    rng = random.Random(seed)
    reference = rng.randbytes(length)
    return AdversarialCase(
        name="rotation-%dx%d" % (blocks, block),
        reference=reference,
        script=DeltaScript(commands, length),
        planted_cycles=1,
    )


def rotation_medley(block: int, cycle_lengths: List[int], *, seed: int = 6) -> AdversarialCase:
    """Several independent block rotations side by side in one file.

    The digraph is a disjoint union of cycles with the given lengths —
    a tunable "cycle-heavy" input whose total cycle length the
    locally-minimum policy must walk.
    """
    commands: List[CopyCommand] = []
    base = 0
    for n in cycle_lengths:
        if n < 2:
            raise ValueError("every cycle length must be >= 2")
        for i in range(n):
            commands.append(
                CopyCommand(base + ((i + 1) % n) * block, base + i * block, block)
            )
        base += n * block
    rng = random.Random(seed)
    reference = rng.randbytes(base)
    return AdversarialCase(
        name="medley-%d-cycles" % len(cycle_lengths),
        reference=reference,
        script=DeltaScript(commands, base),
        planted_cycles=len(cycle_lengths),
    )
