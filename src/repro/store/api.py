"""The ``VersionStore`` protocol: what a delta-serving plane needs.

:class:`~repro.serve.daemon.DeltaServer`, the fleet campaign driver and the
CLI all consume version history through this small surface instead of
a concrete class, so an in-memory ledger (:class:`MemoryStore`), the
persistent pack store (:class:`~repro.store.PackStore`), or anything a
downstream user writes can sit underneath without the serving code
changing.  The protocol is deliberately minimal:

``publish(package, image) -> digest``
    Register ``image`` as the newest version of ``package``.
``get(package, digest) -> bytes``
    Exact bytes of one published version; ``KeyError`` when unknown.
``latest(package) -> (digest, bytes)``
    The newest version.  **Ordering contract:** "newest" means *most
    recently published*, in publish-call order — re-publishing an old
    version's bytes moves that version back to the head.  Insertion
    order, not digest order, and stable across restarts for
    persistent implementations.
``packages() -> [name, ...]``
    Sorted names with at least one published version.
``package in store``
    Membership by package name.
``chain(package, have, want) -> payload | None``
    An encoded in-place ``IPD2`` payload taking the version with
    digest ``have`` to digest ``want`` (``"latest"`` is resolved by
    the caller), built from state the store already holds — e.g. a
    collapsed delta chain.  ``None`` means the store has nothing
    cheaper than a fresh encode; the caller falls back to its
    pipeline.  Implementations must never return a payload that does
    not reconstruct ``want`` byte-exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Protocol, Tuple, runtime_checkable

from ..records import Buffer, content_digest


@runtime_checkable
class VersionStore(Protocol):
    """Structural protocol of every version store (see module docs).

    ``isinstance(obj, VersionStore)`` checks method presence at
    runtime; the semantic contracts (latest ordering, byte-exact
    ``chain`` payloads) are enforced by the shared conformance tests in
    ``tests/test_store.py``.
    """

    def publish(self, package: str, image: Buffer) -> str: ...

    def get(self, package: str, digest: str) -> bytes: ...

    def latest(self, package: str) -> Tuple[str, bytes]: ...

    def packages(self) -> List[str]: ...

    def __contains__(self, package: str) -> bool: ...

    def chain(self, package: str, have: str,
              want: str) -> Optional[bytes]: ...


class MemoryStore:
    """The thin in-memory :class:`VersionStore`: a digest-keyed ledger.

    The serving analogue of
    :class:`~repro.device.updater.UpdateServer`'s release list, keyed
    the way a network protocol must be: by the content digest of the
    bytes (what a client can actually assert it holds), not a release
    counter the client may have lost track of.

    **Latest ordering.**  ``latest`` returns the most *recently
    published* version.  Publishes append to the package's insertion
    order; re-publishing bytes already held moves that version to the
    head (newest) without duplicating it.  This is the documented
    contract, not an accident of dict ordering — the regression tests
    pin it.
    """

    def __init__(self) -> None:
        self._releases: Dict[str, "OrderedDict[str, bytes]"] = {}

    def publish(self, package: str, image: Buffer) -> str:
        """Register ``image`` as the newest version; returns its digest."""
        digest = content_digest(image)
        chain = self._releases.setdefault(package, OrderedDict())
        # Re-publishing moves the version to the head of the order.
        chain.pop(digest, None)
        chain[digest] = bytes(image)
        return digest

    def packages(self) -> List[str]:
        return sorted(self._releases)

    def versions(self, package: str) -> List[str]:
        """Digests of ``package``'s versions, oldest publish first."""
        return list(self._releases[package])

    def latest(self, package: str) -> Tuple[str, bytes]:
        """(digest, bytes) of the most recently published version."""
        chain = self._releases[package]
        digest = next(reversed(chain))
        return digest, chain[digest]

    def get(self, package: str, digest: str) -> bytes:
        return self._releases[package][digest]

    def chain(self, package: str, have: str, want: str) -> Optional[bytes]:
        """Always ``None``: the ledger holds no deltas to collapse."""
        return None

    def __contains__(self, package: str) -> bool:
        return package in self._releases


__all__ = ["MemoryStore", "VersionStore"]
