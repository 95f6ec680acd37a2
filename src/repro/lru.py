"""One byte-budgeted LRU with build-once keys, behind every cache.

The pack store (reconstructed versions, hop scripts, seed tables), the
reference-index cache (differencing artifacts) and the serve daemon
(encoded payloads) each trade memory for recomputation through an
:class:`LRU`.  One eviction rule:

- a hit moves its entry to the tail;
- an insert evicts the oldest entries while the cache is over budget;
- an entry larger than the budget, or any entry at budget 0, is
  returned but not kept;
- an existing entry wins a put;
- :meth:`LRU.pop` uncharges the entry's bytes.

One lock rule: :meth:`LRU.get_or_build` builds a key under that key's
own lock, which lives exactly as long as the key's entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional, Tuple

from . import perf


@dataclass
class CacheStats:
    """Point-in-time counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0
    current_bytes: int = 0
    max_bytes: int = 0

    @property
    def lookups(self) -> int:
        """Total artifact requests served (hits + misses)."""
        return self.hits + self.misses


class LRU:
    """Thread-safe LRU of values (never ``None``) charged caller-estimated
    bytes.  ``evictions`` names the perf counter bumped per eviction;
    :meth:`get` and :meth:`get_or_build` count hits and misses in
    :attr:`stats`."""

    def __init__(self, max_bytes: int, *, evictions: str) -> None:
        self.max_bytes = max_bytes
        self._evictions_counter = evictions
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = \
            OrderedDict()
        self._build_locks: Dict[Hashable, threading.Lock] = {}
        #: Bytes charged by the entries kept now.
        self.nbytes = 0
        self._hits = self._misses = self._evictions = 0

    def _lookup(self, key: Hashable) -> Optional[object]:
        """Under ``self._lock``: the value of ``key`` as a hit, or None."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._entries.move_to_end(key)
        self._hits += 1
        return entry[0]

    def _insert(self, key: Hashable, value: object, nbytes: int) -> object:
        """Under ``self._lock``: :meth:`put`."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        if self.max_bytes <= 0 or nbytes > self.max_bytes:
            return value
        self._entries[key] = (value, nbytes)
        self.nbytes += nbytes
        while self.nbytes > self.max_bytes:
            old_key, (_old, old_bytes) = self._entries.popitem(last=False)
            self._build_locks.pop(old_key, None)
            self.nbytes -= old_bytes
            self._evictions += 1
            perf.add(self._evictions_counter)
        return value

    def get(self, key: Hashable) -> Optional[object]:
        """The cached value of ``key``, or ``None``."""
        with self._lock:
            value = self._lookup(key)
            if value is None:
                self._misses += 1
            return value

    def put(self, key: Hashable, value: object, nbytes: int) -> object:
        """Insert ``value`` charged ``nbytes``; returns the value kept
        (the existing one when ``key`` is already cached)."""
        with self._lock:
            return self._insert(key, value, nbytes)

    def pop(self, key: Hashable) -> Optional[object]:
        """Remove and uncharge ``key``; its value, or ``None``.  Not a
        lookup."""
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return None
            self._build_locks.pop(key, None)
            self.nbytes -= entry[1]
            return entry[0]

    def get_or_build(self, key: Hashable, build: Callable[[], object],
                     charge: Callable[[object], int], counter: str) -> object:
        """The value of ``key``; on a miss ``build()`` makes it and
        ``charge(value)`` prices it for :meth:`put`.

        Also counts the ``counter + ".hits"`` / ``".misses"`` perf
        counters.  A miss builds under the key's lock, not the cache
        lock, so other keys are served meanwhile; concurrent misses of
        ``key`` wait on that lock and all but the first find the value
        at the double-check.
        """
        with self._lock:
            value = self._lookup(key)
            if value is not None:
                perf.add(counter + ".hits")
                return value
            build_lock = self._build_locks.get(key)
            if build_lock is None:
                build_lock = self._build_locks[key] = threading.Lock()
        with build_lock:
            with self._lock:
                value = self._lookup(key)
                if value is not None:
                    perf.add(counter + ".hits")
                    return value
                self._misses += 1
                perf.add(counter + ".misses")
            try:
                value = build()
                nbytes = charge(value)
                with self._lock:
                    return self._insert(key, value, nbytes)
            finally:
                # A value not kept (too large, already evicted, or a
                # raising build) takes its build lock with it.
                with self._lock:
                    if key not in self._entries and \
                            self._build_locks.get(key) is build_lock:
                        del self._build_locks[key]

    def __contains__(self, key: Hashable) -> bool:
        """Whether ``key`` is cached; neither a lookup nor a use."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop every entry and build lock (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._build_locks.clear()
            self.nbytes = 0

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot of the counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits, misses=self._misses,
                evictions=self._evictions, entries=len(self._entries),
                current_bytes=self.nbytes, max_bytes=self.max_bytes)


__all__ = ["CacheStats", "LRU"]
