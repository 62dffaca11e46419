"""The simulated address space: a frame table plus load/store.

The address space hands out frames against a fixed heap budget (the "heap
size" of every experiment), recycles released frames through a free pool,
and services word-granularity loads and stores.  It deliberately knows
nothing about objects, belts or collectors — it is the "virtual memory"
substrate the paper's GCTk sits on.

Boot-image frames are mapped outside the heap budget (they model the Jikes
RVM boot image, which is not part of the collected heap) and are stamped
with :data:`~repro.heap.frame.BOOT_ORDER` so the ordinary write barrier
remembers boot→heap pointers.

Every experiment funnels millions of simulated accesses through this
module, so it is written for the interpreter's fast paths:

* frame resolution is direct table indexing guarded by a single-entry
  cache (``_cache_index``/``_cache_frame``) — consecutive accesses to the
  same frame, the overwhelmingly common pattern under bump allocation and
  Cheney scans, skip the table walk entirely;
* :meth:`load_slice` reads a whole run of words as one typed-array slice
  (the heap verifier's reference-field scan) and counts exactly ``n``
  loads for ``n`` words, identical to the word-at-a-time loop, so every
  metric the cost model derives is bit-identical either way.
"""

from __future__ import annotations

from array import array
from typing import List, Optional

from ..errors import InvalidAddress, OutOfMemory
from .address import (
    DEFAULT_FRAME_SHIFT,
    LOG_WORD_BYTES,
    WORD_BYTES,
)
from .frame import BOOT_ORDER, UNASSIGNED_ORDER, Frame

#: Low-bit mask catching misaligned byte addresses.
_ALIGN_MASK = WORD_BYTES - 1

#: Frames per storage slab (power of two).  Frame storage is carved out of
#: contiguous ``array('q')`` slabs so frame index ``i`` lives at slab
#: ``i >> _SLAB_SHIFT``, word offset ``(i & (_SLAB_FRAMES-1)) *
#: frame_words``; the substrate-kernel tier addresses the whole heap
#: through one C pointer per slab.  Slabs are never resized, so those
#: pointers stay valid for the life of the space.
_SLAB_SHIFT = 9
_SLAB_FRAMES = 1 << _SLAB_SHIFT

#: Bytes per storage slot ('q' = int64 per simulated 4-byte word).
_SLOT_BYTES = 8


class AddressSpace:
    """Frame table, free pool, and word-granularity memory access.

    Parameters
    ----------
    heap_frames:
        The heap budget, in frames.  ``heap_frames * frame_bytes`` is the
        heap size every experiment sweeps.
    frame_shift:
        log2 of the frame size in bytes.
    """

    def __init__(self, heap_frames: int, frame_shift: int = DEFAULT_FRAME_SHIFT):
        if heap_frames < 2:
            raise OutOfMemory(f"heap of {heap_frames} frames is too small to map")
        self.frame_shift = frame_shift
        self.frame_bytes = 1 << frame_shift
        self.frame_words = self.frame_bytes >> LOG_WORD_BYTES
        #: Word-offset mask within a frame (frames are powers of two).
        self._word_mask = self.frame_words - 1
        self.heap_frames = heap_frames
        # Contiguous frame-storage slabs (see _SLAB_FRAMES above).
        self.slab_frames = _SLAB_FRAMES
        self._slabs: List[array] = []
        self._slab_views: List[memoryview] = []
        # Frame index 0 is never mapped: address 0 is NULL.
        self._frames: List[Optional[Frame]] = [None]
        #: collect_order per frame index, kept flat for the hot barrier path.
        self.orders: List[int] = [UNASSIGNED_ORDER]
        #: Byte-per-frame mapped flags, mirroring ``_frames[i].allocated``:
        #: what the compiled kernels' heap view copies (DESIGN §13).
        self.mapped_bytes = bytearray(1)
        #: When not None, called with the index of each frame acquired or
        #: released — how the compiled kernels' per-VM heap view learns
        #: which entries to re-read instead of rebuilding itself.
        self.frame_hook = None
        #: Bumped by whoever rewrites the stamps wholesale (a Beltway
        #: restamp), so that heap view knows when its copy of ``orders``
        #: went stale.
        self.order_epoch = 0
        self._free_pool: List[Frame] = []
        self.heap_frames_in_use = 0
        self.boot_frames_in_use = 0
        # Access statistics (consumed by the cost model).
        self.load_count = 0
        self.store_count = 0
        # Single-entry frame cache; -1 = empty (no address maps there).
        self._cache_index = -1
        self._cache_frame: Optional[Frame] = None

    # ------------------------------------------------------------------
    # Frame management
    # ------------------------------------------------------------------
    def heap_frames_free(self) -> int:
        """Frames still available inside the heap budget."""
        return self.heap_frames - self.heap_frames_in_use

    def acquire_frame(self, space_name: str, boot: bool = False) -> Frame:
        """Map a frame for ``space_name``.

        Heap frames are counted against the heap budget and raising
        :class:`OutOfMemory` when it is exhausted; boot frames are not.
        Callers (collector plans) are responsible for honouring the copy
        reserve *before* asking for a frame — the space only enforces the
        hard budget.
        """
        if not boot:
            if self.heap_frames_in_use >= self.heap_frames:
                raise OutOfMemory(
                    f"heap budget of {self.heap_frames} frames exhausted"
                )
            self.heap_frames_in_use += 1
        else:
            self.boot_frames_in_use += 1
        if self._free_pool and not boot:
            frame = self._free_pool.pop()
        else:
            index = len(self._frames)
            frame = Frame(index, self.frame_words, self._frame_storage(index))
            self._frames.append(frame)
            self.orders.append(UNASSIGNED_ORDER)
            self.mapped_bytes.append(0)
        frame.allocated = True
        frame.space_name = space_name
        self.mapped_bytes[frame.index] = 1
        if boot:
            self.set_order(frame, BOOT_ORDER)
        if self.frame_hook is not None:
            self.frame_hook(frame.index)
        return frame

    def recycled_frames(self) -> List[int]:
        """Indices of the free-pool frames, in the order ``acquire_frame``
        hands them out (fresh frames, mapped lazily, are not listed)."""
        return [frame.index for frame in reversed(self._free_pool)]

    def _frame_storage(self, index: int) -> memoryview:
        """The slab-backed storage view for frame ``index``."""
        slab_index = index >> _SLAB_SHIFT
        while slab_index >= len(self._slabs):
            slab = array(
                "q", bytes(_SLOT_BYTES * _SLAB_FRAMES * self.frame_words)
            )
            self._slabs.append(slab)
            self._slab_views.append(memoryview(slab))
        offset = (index & (_SLAB_FRAMES - 1)) * self.frame_words
        return self._slab_views[slab_index][offset : offset + self.frame_words]

    def release_frame(self, frame: Frame) -> None:
        """Unmap a heap frame and recycle it through the free pool."""
        if not frame.allocated:
            raise InvalidAddress(f"releasing unallocated frame {frame.index}")
        if self.orders[frame.index] == BOOT_ORDER:
            raise InvalidAddress("boot-image frames are immortal")
        frame.reset()
        self.orders[frame.index] = UNASSIGNED_ORDER
        self.mapped_bytes[frame.index] = 0
        self.heap_frames_in_use -= 1
        self._free_pool.append(frame)
        if self._cache_index == frame.index:
            self._cache_index = -1
            self._cache_frame = None
        if self.frame_hook is not None:
            self.frame_hook(frame.index)

    def set_order(self, frame: Frame, order: int) -> None:
        """Stamp ``frame`` with its relative collection order."""
        frame.collect_order = order
        self.orders[frame.index] = order

    def frame(self, index: int) -> Frame:
        """The :class:`Frame` with the given index (must be mapped)."""
        frames = self._frames
        frame = frames[index] if 0 <= index < len(frames) else None
        if frame is None or not frame.allocated:
            raise InvalidAddress(f"frame {index} is not mapped")
        return frame

    def frame_containing(self, addr: int) -> Frame:
        """The mapped frame containing byte address ``addr``."""
        return self.frame(addr >> self.frame_shift)

    def is_mapped(self, addr: int) -> bool:
        """True iff ``addr`` falls inside a mapped frame."""
        index = addr >> self.frame_shift
        return (
            0 < index < len(self._frames)
            and self._frames[index] is not None
            and self._frames[index].allocated
        )

    def iter_frames(self):
        """All currently mapped frames (boot and heap)."""
        for frame in self._frames[1:]:
            if frame is not None and frame.allocated:
                yield frame

    # ------------------------------------------------------------------
    # Memory access
    # ------------------------------------------------------------------
    def _resolve(self, index: int, addr: int, op: str) -> Frame:
        """Frame-cache miss path: direct table lookup, then fill the cache."""
        frames = self._frames
        frame = frames[index] if 0 < index < len(frames) else None
        if frame is None or not frame.allocated:
            raise InvalidAddress(f"{op} unmapped address {addr:#x}")
        self._cache_index = index
        self._cache_frame = frame
        return frame

    def load(self, addr: int) -> int:
        """Load the word at byte address ``addr``."""
        # Hot path: the 3/2 literals are WORD_BYTES-1 / LOG_WORD_BYTES
        # (global lookups cost real time at this call frequency).
        if addr & 3:
            raise InvalidAddress(f"misaligned load from {addr:#x}")
        index = addr >> self.frame_shift
        frame = (
            self._cache_frame
            if index == self._cache_index
            else self._resolve(index, addr, "load from")
        )
        self.load_count += 1
        return frame.words[(addr >> 2) & self._word_mask]

    def store(self, addr: int, value: int) -> None:
        """Store ``value`` into the word at byte address ``addr``."""
        if addr & 3:
            raise InvalidAddress(f"misaligned store to {addr:#x}")
        index = addr >> self.frame_shift
        frame = (
            self._cache_frame
            if index == self._cache_index
            else self._resolve(index, addr, "store to")
        )
        self.store_count += 1
        frame.words[(addr >> 2) & self._word_mask] = value

    def load_slice(self, addr: int, nwords: int) -> List[int]:
        """Load ``nwords`` consecutive words starting at ``addr``.

        Equivalent to ``[self.load(addr + i * WORD_BYTES) for i in
        range(nwords)]`` — including the ``load_count`` accounting — but
        the words move as typed-array slices.  Runs spanning adjacent
        mapped frames are chunked per frame; touching any unmapped word
        raises :class:`InvalidAddress`.
        """
        if addr & _ALIGN_MASK:
            raise InvalidAddress(f"misaligned load from {addr:#x}")
        if nwords < 0:
            raise InvalidAddress(f"negative load_slice length {nwords}")
        if nwords == 0:
            return []
        shift = self.frame_shift
        word_mask = self._word_mask
        frame_words = self.frame_words
        self.load_count += nwords
        index = addr >> shift
        frame = (
            self._cache_frame
            if index == self._cache_index
            else self._resolve(index, addr, "load from")
        )
        offset = (addr >> LOG_WORD_BYTES) & word_mask
        if offset + nwords <= frame_words:  # fast path: one frame
            return frame.words[offset : offset + nwords].tolist()
        out: List[int] = []
        while nwords:
            chunk = min(nwords, frame_words - offset)
            out.extend(frame.words[offset : offset + chunk])
            nwords -= chunk
            if nwords:
                addr += chunk * WORD_BYTES
                frame = self._resolve(addr >> shift, addr, "load from")
                offset = 0
        return out

    def frame_base(self, frame: Frame) -> int:
        """Byte address of the first word of ``frame``."""
        return frame.index << self.frame_shift
