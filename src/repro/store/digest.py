"""The library's content digest, in a neutral home.

Every content-addressed surface in the library — the pack store's
object keys, the shared-memory arena's dedup registry, the reference
index cache, the serve daemon's version addressing — must agree on one
digest function, or a digest computed by one layer silently misses in
another.  The store is the layer whose on-disk format freezes it, so
it lives here.

The digest is the sha1 hex of the raw bytes, computed through a
``memoryview`` so ``bytearray`` and ``memoryview`` inputs (for example
shared-memory mappings) are hashed zero-copy instead of being
materialized as an intermediate ``bytes`` the size of the buffer.
"""

from __future__ import annotations

import hashlib
from typing import Union

Buffer = Union[bytes, bytearray, memoryview]


def content_digest(data: Buffer) -> str:
    """Content digest (sha1 hex) identifying a buffer's exact bytes.

    Deliberately shared by :class:`repro.store.PackStore` object keys,
    the :class:`~repro.pipeline.cache.ReferenceIndexCache` keys,
    shared-memory buffer descriptors and the pull client's ``have``, so
    a digest computed once keys every layer.  Non-contiguous views are
    copied once (sha1 needs a contiguous buffer); contiguous ones are
    hashed zero-copy.
    """
    view = memoryview(data)
    if not view.c_contiguous:
        view = memoryview(bytes(view))
    return hashlib.sha1(view).hexdigest()


__all__ = ["Buffer", "content_digest"]
