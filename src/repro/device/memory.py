"""Simulated constrained device: storage image plus a RAM budget.

The paper's motivating targets — PDAs, set-top boxes, sensor controllers
— hold the installed software image in storage and have only a small RAM
working area; they cannot hold two versions of the image at once.
:class:`ConstrainedDevice` models exactly that: a byte-addressable
storage image and an accounted RAM allocator that raises
:class:`~repro.exceptions.OutOfMemoryError` the moment a reconstruction
strategy asks for more working memory than the device has.

The two reconstruction entry points make the paper's contrast executable:

* :meth:`apply_delta_two_space` needs RAM for the whole new version (the
  conventional method's "scratch space") and fails on small devices;
* :meth:`apply_delta_in_place` runs the strict in-place engine over the
  storage image, needing only the staged delta payload and a bounded
  copy window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.apply import (
    apply_delta,
    apply_in_place,
    preflight_in_place,
    verify_reference,
    verify_version,
)
from ..delta.encode import decode_delta
from ..exceptions import OutOfMemoryError, StorageBoundsError


@dataclass
class RamAccount:
    """Accounted allocator for a device's working memory."""

    budget: int
    in_use: int = 0
    peak: int = 0
    #: (label, size) of live allocations, for error messages and tests.
    allocations: List[Tuple[str, int]] = field(default_factory=list)

    def allocate(self, label: str, size: int) -> None:
        """Reserve ``size`` bytes; raises when the budget would be exceeded."""
        if size < 0:
            raise ValueError("allocation size must be non-negative")
        if self.in_use + size > self.budget:
            raise OutOfMemoryError(
                "device RAM exhausted: %r needs %d bytes, %d of %d in use"
                % (label, size, self.in_use, self.budget)
            )
        self.in_use += size
        self.peak = max(self.peak, self.in_use)
        self.allocations.append((label, size))

    def free(self, label: str) -> None:
        """Release the most recent allocation with ``label``."""
        for i in range(len(self.allocations) - 1, -1, -1):
            if self.allocations[i][0] == label:
                self.in_use -= self.allocations[i][1]
                del self.allocations[i]
                return
        raise KeyError("no live allocation labelled %r" % label)


class ConstrainedDevice:
    """A network-attached device with a storage image and limited RAM.

    ``storage_limit`` caps the image size (flash capacity); ``ram``
    bounds all working memory a reconstruction may use.  ``copy_window``
    is the read/write buffer for self-overlapping copies (the paper's
    "buffer of any size").
    """

    def __init__(
        self,
        image: bytes,
        *,
        ram: int = 64 * 1024,
        storage_limit: Optional[int] = None,
        copy_window: int = 4096,
        name: str = "device",
    ):
        self.name = name
        self.storage_limit = storage_limit if storage_limit is not None else max(
            len(image) * 2, 1 << 20
        )
        if len(image) > self.storage_limit:
            raise StorageBoundsError(
                "image of %d bytes exceeds storage limit %d"
                % (len(image), self.storage_limit)
            )
        self._storage = bytearray(image)
        self.ram = RamAccount(budget=ram)
        self.copy_window = copy_window
        #: Count of update operations applied, for session logs.
        self.updates_applied = 0

    # -- storage -------------------------------------------------------

    @property
    def image(self) -> bytes:
        """Snapshot of the installed software image."""
        return bytes(self._storage)

    # -- reconstruction strategies --------------------------------------

    def apply_delta_two_space(self, payload: bytes) -> None:
        """Conventional reconstruction: stage payload + whole new version in RAM.

        This is the method the paper argues constrained devices cannot
        afford: scratch space for the complete new version.  Raises
        :class:`OutOfMemoryError` when the budget is too small, leaving
        the image untouched.
        """
        self.ram.allocate("delta-payload", len(payload))
        try:
            script, header = decode_delta(payload)
            verify_reference(header, self._storage)
            self.ram.allocate("version-scratch", script.version_length)
            try:
                new_image = apply_delta(script, self._storage)
                verify_version(header, new_image)
                self._commit(new_image)
            finally:
                self.ram.free("version-scratch")
        finally:
            self.ram.free("delta-payload")

    def apply_delta_in_place(self, payload: bytes) -> None:
        """In-place reconstruction: only the payload and a copy window in RAM.

        Requires an in-place safe delta (the strict engine raises
        :class:`~repro.exceptions.WriteBeforeReadError` otherwise, before
        any byte of the image is modified only if the conflict is at the
        first command — in general a mid-apply failure leaves the image
        corrupt, exactly the hazard the paper's converter exists to
        remove; callers should convert, not hope).
        """
        self.ram.allocate("delta-payload", len(payload))
        self.ram.allocate("copy-window", self.copy_window)
        scratch_allocated = False
        try:
            script, header = decode_delta(payload)
            if script.version_length > self.storage_limit:
                raise StorageBoundsError(
                    "new version (%d bytes) exceeds storage limit %d"
                    % (script.version_length, self.storage_limit)
                )
            preflight_in_place(script, header, self._storage)
            if header.scratch_length:
                self.ram.allocate("scratch", header.scratch_length)
                scratch_allocated = True
            apply_in_place(
                script, self._storage, strict=True, chunk_size=self.copy_window
            )
            verify_version(header, self._storage)
            self.updates_applied += 1
        finally:
            if scratch_allocated:
                self.ram.free("scratch")
            self.ram.free("copy-window")
            self.ram.free("delta-payload")

    def apply_delta_streaming(self, payload: bytes) -> None:
        """In-place reconstruction with the delta *streamed*, not staged.

        The delta's commands execute in file order and each codeword is
        tiny, so the device never holds the payload: RAM is charged only
        for the stream's parse window plus the copy window.  This is the
        smallest-footprint strategy — it updates devices whose RAM is
        smaller than the delta file itself.
        """
        import io

        from ..delta.stream import WINDOW_BYTES, apply_delta_stream, read_header

        # The stream never holds more of the delta than its parse window.
        self.ram.allocate("stream-buffer", WINDOW_BYTES)
        self.ram.allocate("copy-window", self.copy_window)
        scratch_allocated = False
        try:
            header = read_header(io.BytesIO(payload))
            if header.version_length > self.storage_limit:
                raise StorageBoundsError(
                    "new version (%d bytes) exceeds storage limit %d"
                    % (header.version_length, self.storage_limit)
                )
            verify_reference(header, self._storage)
            if header.scratch_length:
                self.ram.allocate("scratch", header.scratch_length)
                scratch_allocated = True
            apply_delta_stream(
                payload, self._storage, strict=True, chunk_size=self.copy_window
            )
            verify_version(header, self._storage)
            self.updates_applied += 1
        finally:
            if scratch_allocated:
                self.ram.free("scratch")
            self.ram.free("copy-window")
            self.ram.free("stream-buffer")

    def install_full_image(self, image: bytes) -> None:
        """Full-image install: stage the entire new image in RAM, then commit.

        The no-compression baseline for the update-time bench.
        """
        self.ram.allocate("full-image", len(image))
        try:
            self._commit(bytearray(image))
        finally:
            self.ram.free("full-image")

    # -- internals -------------------------------------------------------

    def _commit(self, new_image: bytearray) -> None:
        if len(new_image) > self.storage_limit:
            raise StorageBoundsError(
                "new image (%d bytes) exceeds storage limit %d"
                % (len(new_image), self.storage_limit)
            )
        self._storage = bytearray(new_image)
        self.updates_applied += 1

