"""Fleet synthesis: heterogeneous simulated device populations.

A campaign needs a population that looks like a real installed base,
not a grid: devices hold different stale releases (most are one
behind, a long tail skipped many), sit behind different links (most of
the 1998 fleet is on slow modems), and write flash in different
granularities.  :func:`make_fleet` synthesizes such a population
deterministically from a seed — the same seed always yields the same
fleet, byte for byte, which is what lets a campaign's aggregate
counters reproduce across executors and machines.

:func:`make_release_train` builds the matching server side: a chain of
releases per package, successive versions derived by cycling through
the adversarial edit processes of :mod:`repro.workloads.indel` (the
Wang et al. InDel process, the erasure-coded replica-sync mutator) so
one campaign stresses both the friendliest and the nastiest delta
shapes the literature describes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..device.channel import CHANNELS
from ..workloads.indel import ADVERSARIAL_GENERATORS, generator_names

#: Flash write granularities (bytes) a fleet mixes — the ``chunk_size``
#: each device's journaled applier writes in, i.e. the largest unit a
#: power cut can tear.
GEOMETRIES = (512, 1024, 2048, 4096)

#: Link distribution of the simulated installed base: mostly modems,
#: the paper's motivating population.
_CHANNEL_WEIGHTS = {
    "cellular-9.6k": 1.0,
    "modem-28.8k": 3.0,
    "modem-56k": 4.0,
    "isdn-128k": 1.5,
    "t1-1.5m": 0.5,
}


@dataclass(frozen=True)
class DeviceSpec:
    """One simulated device: what it holds and how it is reached.

    The spec is deliberately tiny and hashable — campaigns group
    thousands of them into cohorts keyed by ``(package, have)`` and the
    spec's ``name`` is the device's fault scope, the string every
    fault-plan decision for it is keyed on.
    """

    name: str
    package: str
    #: Release number the device currently holds (stale when < latest).
    have: int
    #: Channel preset name (see :data:`repro.device.channel.CHANNELS`).
    channel: str
    #: Flash write granularity: the journaled applier's chunk size.
    chunk_size: int


def make_fleet(
    count: int,
    releases: Dict[str, List[bytes]],
    *,
    seed: int = 0,
    max_skip: int = 0,
) -> List[DeviceSpec]:
    """Synthesize ``count`` devices over the packages in ``releases``.

    Staleness is skewed the way real fleets are: a device ``s``
    releases behind is drawn with weight ``1/s``, so most devices need
    one hop but a long tail skipped several (their updates exercise
    delta-chain composition).  ``max_skip`` caps the tail (0 = up to
    the full chain).  Channels follow :data:`_CHANNEL_WEIGHTS`; flash
    geometry is uniform over :data:`GEOMETRIES`.  Everything is drawn
    from ``random.Random`` seeded by ``seed`` alone — the fleet is a
    pure function of its arguments.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    packages = sorted(releases)
    if not packages:
        raise ValueError("releases must cover at least one package")
    for package in packages:
        if len(releases[package]) < 2:
            raise ValueError(
                "package %r needs at least two releases to update between"
                % package
            )
    rng = random.Random("%d|fleet" % seed)
    channel_names = sorted(_CHANNEL_WEIGHTS)
    channel_weights = [_CHANNEL_WEIGHTS[n] for n in channel_names]
    assert all(n in CHANNELS for n in channel_names)
    fleet: List[DeviceSpec] = []
    width = len(str(max(count - 1, 1)))
    for i in range(count):
        package = packages[i % len(packages)]
        latest = len(releases[package]) - 1
        skip_cap = latest if max_skip <= 0 else min(max_skip, latest)
        skips = list(range(1, skip_cap + 1))
        skip = rng.choices(skips, weights=[1.0 / s for s in skips])[0]
        fleet.append(DeviceSpec(
            name="dev-%0*d" % (width, i),
            package=package,
            have=latest - skip,
            channel=rng.choices(channel_names, weights=channel_weights)[0],
            chunk_size=rng.choice(GEOMETRIES),
        ))
    return fleet


def make_release_train(
    packages: Sequence[str] = ("app", "kernel"),
    *,
    releases: int = 4,
    size: int = 16384,
    seed: int = 0,
) -> Dict[str, List[bytes]]:
    """Build a deterministic release chain per package.

    Release 0 is random bytes; each successive release applies one
    adversarial edit process, cycling through
    :data:`~repro.workloads.indel.ADVERSARIAL_GENERATORS` in a stable
    per-package phase so a multi-package campaign covers every process.
    """
    if releases < 2:
        raise ValueError("a release train needs at least two releases")
    names = generator_names()
    train: Dict[str, List[bytes]] = {}
    for pkg_index, package in enumerate(sorted(packages)):
        rng = random.Random("%d|train|%s" % (seed, package))
        image = rng.randbytes(size)
        chain = [image]
        for step in range(1, releases):
            generator = ADVERSARIAL_GENERATORS[
                names[(pkg_index + step - 1) % len(names)]
            ]
            image = generator(image, rng)
            chain.append(image)
        train[package] = chain
    return train


__all__ = [
    "DeviceSpec",
    "GEOMETRIES",
    "make_fleet",
    "make_release_train",
]
