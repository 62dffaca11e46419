"""Frames: the unit of address-space mapping, barrier filtering and reuse.

A frame owns the backing storage for one aligned power-of-two slice of the
simulated address space.  The collector-facing metadata kept here is exactly
the metadata the paper attaches to frames:

* ``collect_order`` — the frame's *relative collection order* (paper
  §3.3.1: "we maintain a number associated with each frame that indicates
  the frame's relative collection order").  The write barrier compares the
  orders of source and target frames and records a pointer only when the
  target would be collected sooner than the source.
* the owning increment (Beltway plans), so a frame's membership can be
  tested in O(1) during collection.

Frames are recycled through the free pool of the :class:`~repro.heap.space.
AddressSpace`; their storage is zeroed on release so stale pointers can
never leak between collector epochs.

Storage is one signed 64-bit slot per simulated word, typed-array backed:
slices of it move through C memcpy, which is what makes the bulk kernels
in :mod:`repro.heap.space` fast.  Simulated words therefore must fit in a
signed 64-bit integer — addresses, headers and benchmark scalars all do by
construction.

Frames created by an :class:`~repro.heap.space.AddressSpace` do not own
their storage: ``words`` is a writable memoryview into one of the space's
contiguous *slabs* (``_SLAB_FRAMES`` frames per ``array('q')``), so
consecutive frame indices are consecutive in memory.  That slab layout is
what the substrate-kernel tier (:mod:`repro.kernels`) builds on — a C
pointer per slab addresses every frame without per-frame indirection, and
slabs are never resized, so those pointers stay valid for the slab's
lifetime.  A standalone ``Frame`` (no ``storage`` argument)
allocates its own array, preserving the historical behaviour for direct
construction in tests.
"""

from __future__ import annotations

import weakref
from array import array
from typing import Optional

from .address import WORD_BYTES

#: Collection order assigned to frames that are never collected (the boot
#: image).  Any pointer *from* a boot frame *into* the heap therefore always
#: satisfies the barrier's ``order[target] < order[source]`` test and is
#: remembered, which is how the paper's Beltway barrier subsumes boot-image
#: scanning (§4.2.1).
BOOT_ORDER = 1 << 62

#: Order for frames that are currently free / unassigned.  Using the same
#: sentinel as BOOT_ORDER would hide bugs, so keep it distinct and poisoned.
UNASSIGNED_ORDER = -1

#: Bytes per storage slot of the typed backing array ('q' = int64).
_SLOT_BYTES = 8

#: Shared all-zero source arrays for :meth:`Frame.reset`, keyed by frame
#: size.  Frames of one space all share a size, so release-time zeroing
#: becomes a slice assign from this cache instead of a fresh allocation
#: per release (frame release is on the collection reclaim path).
_ZERO_CACHE: dict = {}


class Frame:
    """Backing storage plus GC metadata for one frame of address space."""

    __slots__ = (
        "index",
        "words",
        "size_words",
        "collect_order",
        "_increment",
        "space_name",
        "used_words",
        "allocated",
    )

    def __init__(self, index: int, size_words: int, storage=None):
        self.index = index
        self.size_words = size_words
        if storage is None:
            storage = memoryview(array("q", bytes(_SLOT_BYTES * size_words)))
        self.words = storage
        self.collect_order: int = UNASSIGNED_ORDER
        self._increment = None
        self.space_name: str = "free"
        #: High-water bump mark, in words, for linear walks and occupancy.
        self.used_words: int = 0
        self.allocated: bool = False

    @property
    def increment(self) -> Optional[object]:
        """The owning Beltway increment, or None.  Held weakly — the
        increment owns its frames — so no cycle keeps a space alive."""
        ref = self._increment
        return ref() if ref is not None else None

    @increment.setter
    def increment(self, owner: Optional[object]) -> None:
        self._increment = weakref.ref(owner) if owner is not None else None

    def reset(self) -> None:
        """Return the frame to its pristine, free state (storage zeroed)."""
        used = self.used_words
        if used:
            zeros = _ZERO_CACHE.get(self.size_words)
            if zeros is None:
                zeros = _ZERO_CACHE[self.size_words] = memoryview(
                    array("q", bytes(_SLOT_BYTES * self.size_words))
                )
            self.words[:used] = zeros[:used]
        self.collect_order = UNASSIGNED_ORDER
        self._increment = None
        self.space_name = "free"
        self.used_words = 0
        self.allocated = False

    @property
    def size_bytes(self) -> int:
        return self.size_words * WORD_BYTES

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame {self.index} {self.space_name} order={self.collect_order} "
            f"used={self.used_words}/{self.size_words}w>"
        )
