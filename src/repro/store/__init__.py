"""``repro.store``: content-addressed version storage.

The storage plane of the library (see ``docs/STORE.md``): how many
versions of many packages persist as delta chains, and the stable
surface the serving plane consumes them through.

* :class:`VersionStore` — the structural protocol every store
  satisfies (``publish`` / ``get`` / ``latest`` / ``packages`` /
  ``in`` / ``chain``).
* :class:`MemoryStore` — the thin in-memory ledger.
* :class:`PackStore` — the persistent pack store: one CRC-framed pack
  file per generation, similarity-grouped delta chains, chain-collapse
  serving, crash-safe ``fsck``/``gc``.
* :class:`StoreConfig` — frozen tuning knobs of a :class:`PackStore`.
* :func:`content_digest` — the library-wide content digest (sha1 hex)
  every content-addressed layer shares.
"""

from ..exceptions import StoreError
from ..records import content_digest
from .api import MemoryStore, VersionStore
from .packstore import (
    FsckProblem,
    FsckReport,
    GcReport,
    PackStore,
    StoreConfig,
)

__all__ = [
    "FsckProblem",
    "FsckReport",
    "GcReport",
    "MemoryStore",
    "PackStore",
    "StoreConfig",
    "StoreError",
    "VersionStore",
    "content_digest",
]
