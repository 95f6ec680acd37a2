"""Erase-block flash model: the wear cost of in-place reconstruction.

The paper's devices store their image in flash, and flash does not
rewrite bytes: a write that changes any byte of an *erase block*
(4-128 KiB on real parts) requires erasing and reprogramming the whole
block, and every block survives only a bounded number of erase cycles.
In-place reconstruction's byte-level writes therefore map to block-level
erases, and the interesting question for a deployment is the *wear*
profile: how many block erases does an update strategy cost?

:class:`FlashArray` models the medium: a byte-addressable view whose
writes are absorbed by a RAM block buffer and flushed as whole-block
erase+program cycles (one buffered block — the way small controllers
actually drive NOR flash).  Per-block erase counters expose the wear.

:func:`measure_update_wear` compares strategies: a full reprogram
erases every block; an in-place delta erases only blocks the version
actually changes — plus any block a copy *moves* data into.  The bench
sweeps block sizes to show where delta updates stop saving erases
(small random edits scattered across every block).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..core.apply import apply_in_place
from ..core.commands import DeltaScript
from ..exceptions import DeviceError, StorageBoundsError

Buffer = Union[bytes, bytearray, memoryview]


class WearLimitExceeded(DeviceError):
    """A block was erased more times than its rated endurance."""


@dataclass
class WearStats:
    """Erase accounting for one flash array."""

    block_size: int
    erases_per_block: List[int]

    @property
    def total_erases(self) -> int:
        """Sum of erases across all blocks."""
        return sum(self.erases_per_block)

    @property
    def max_erases(self) -> int:
        """Hottest block's erase count (the wear-leveling concern)."""
        return max(self.erases_per_block, default=0)


class FlashArray:
    """Byte-addressable facade over erase-block flash with one block buffer.

    Reads are free and direct.  A byte write loads its block into the
    single RAM block buffer (flushing the previously buffered block if
    dirty — erase + program, one wear cycle); sequential writes within
    one block therefore cost one erase, and the in-place applier's
    mostly-monotonic write pattern maps to few erases per block.
    """

    def __init__(self, image: Buffer, *, block_size: int = 4096,
                 endurance: Optional[int] = None,
                 compare_before_write: bool = True):
        if block_size <= 0:
            raise ValueError("block_size must be positive, got %d" % block_size)
        self.block_size = block_size
        self.endurance = endurance
        #: When set (the default), writes that change no byte leave the
        #: block clean — the read-compare-write discipline careful
        #: programmers use.  Clear it to model a naive programmer that
        #: erases whatever it writes over.
        self.compare_before_write = compare_before_write
        self._data = bytearray(image)
        blocks = (len(self._data) + block_size - 1) // block_size
        self._erases = [0] * max(1, blocks)
        self._buffered: Optional[int] = None
        self._dirty = False

    # -- geometry ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._data)

    def _block_of(self, offset: int) -> int:
        return offset // self.block_size

    def _ensure_blocks(self, size: int) -> None:
        blocks = (size + self.block_size - 1) // self.block_size
        while len(self._erases) < blocks:
            self._erases.append(0)

    # -- block buffer -----------------------------------------------------

    def _load_block(self, block: int) -> None:
        if self._buffered == block:
            return
        self.flush()
        self._buffered = block
        self._dirty = False

    def flush(self) -> None:
        """Write back the buffered block if dirty (one erase cycle)."""
        if self._buffered is not None and self._dirty:
            block = self._buffered
            self._erases[block] += 1
            if self.endurance is not None and self._erases[block] > self.endurance:
                raise WearLimitExceeded(
                    "block %d exceeded its %d-cycle endurance"
                    % (block, self.endurance)
                )
        self._dirty = False

    # -- data access (bytearray subset the appliers use) -------------------

    def __getitem__(self, key):
        return self._data[key]

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice):
            start, stop, stride = key.indices(len(self._data))
            if stride != 1:
                raise ValueError("strided flash writes are not supported")
            pos = start
            data = bytes(value)
            offset = 0
            while pos < stop:
                block = self._block_of(pos)
                block_end = min((block + 1) * self.block_size, stop)
                self._load_block(block)
                chunk = data[offset:offset + (block_end - pos)]
                if not self.compare_before_write or \
                        self._data[pos:block_end] != chunk:
                    self._data[pos:block_end] = chunk
                    self._dirty = True
                offset += block_end - pos
                pos = block_end
        else:
            block = self._block_of(key)
            self._load_block(block)
            if not self.compare_before_write or self._data[key] != value:
                self._data[key] = value
                self._dirty = True

    def extend(self, more: bytes) -> None:
        """Grow the array (new blocks arrive erased; no wear charged)."""
        self._data.extend(more)
        self._ensure_blocks(len(self._data))

    def __delitem__(self, key) -> None:
        # Only tail truncation is meaningful for images.
        if not isinstance(key, slice) or key.stop is not None:
            raise ValueError("flash supports only tail truncation")
        start = key.start or 0
        del self._data[start:]

    # -- results ------------------------------------------------------------

    def image(self) -> bytes:
        """Current contents, with the block buffer flushed."""
        self.flush()
        return bytes(self._data)

    def wear(self) -> WearStats:
        """Erase statistics so far (flushes first so counts are final)."""
        self.flush()
        return WearStats(self.block_size, list(self._erases))


def full_reprogram(flash: FlashArray, image: bytes) -> None:
    """The no-delta baseline: rewrite every block of the image."""
    if len(image) > len(flash):
        flash.extend(b"\x00" * (len(image) - len(flash)))
    flash[0:len(image)] = image
    if len(image) < len(flash):
        del flash[len(image):]
    flash.flush()


def measure_update_wear(
    reference: bytes,
    version: bytes,
    script: DeltaScript,
    *,
    block_size: int = 4096,
) -> "tuple[WearStats, WearStats]":
    """(delta wear, full-reprogram wear) for one update at one block size.

    ``script`` must be in-place safe; it is applied to a
    :class:`FlashArray` seeded with ``reference`` and verified against
    ``version``.
    """
    delta_flash = FlashArray(reference, block_size=block_size)
    apply_in_place(script, delta_flash, strict=False)  # type: ignore[arg-type]
    if delta_flash.image() != version:
        raise StorageBoundsError("in-place apply on flash produced a wrong image")
    full_flash = FlashArray(reference, block_size=block_size)
    full_reprogram(full_flash, version)
    if full_flash.image() != version:
        raise StorageBoundsError("full reprogram produced a wrong image")
    return delta_flash.wear(), full_flash.wear()
