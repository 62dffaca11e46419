"""Belts and increments — the paper's two organisational principles.

An *increment* is an independently collectible region of memory (a bump
region over whole frames).  A *belt* is a FIFO queue of increments: the
oldest increment on a belt is always collected first, and belts are
collected independently of each other (§2.2).
"""

from __future__ import annotations

import weakref
from collections import deque
from itertools import count
from typing import Deque, Iterator, List, Optional, Set

from ..errors import HeapCorruption
from ..heap.allocator import BumpRegion
from ..heap.space import AddressSpace
from .config import BeltSpec


class Increment:
    """An independently collectible unit: whole frames, bump allocated."""

    def __init__(self, belt: "Belt", max_frames: Optional[int]):
        self.id = next(belt.ids)
        self._belt = weakref.ref(belt)
        self.max_frames = max_frames  # None = growable
        self.region = BumpRegion(belt.space)
        #: Relative collection-order stamp shared by all this increment's
        #: frames (maintained by repro.core.order).
        self.stamp = 0
        #: Words copied into this increment by collections (vs. allocated).
        self.copied_in_words = 0

    # ------------------------------------------------------------------
    @property
    def belt(self) -> "Belt":
        """The belt this increment is on (held weakly: the belt owns it)."""
        return self._belt()

    @property
    def num_frames(self) -> int:
        return self.region.num_frames

    @property
    def occupancy_words(self) -> int:
        return self.region.occupancy_words

    @property
    def is_empty(self) -> bool:
        return self.region.allocated_words == 0

    @property
    def at_max_size(self) -> bool:
        return self.max_frames is not None and self.num_frames >= self.max_frames

    def frame_indices(self) -> Set[int]:
        return {frame.index for frame in self.region.frames}

    def alloc(self, size_words: int) -> int:
        """Bump-allocate; 0 means the caller must grow the increment."""
        return self.region.alloc(size_words)

    def add_frame(self) -> None:
        """Grow by one frame (caller has already authorised the acquisition)."""
        if self.at_max_size:
            raise HeapCorruption(f"increment {self.id} grew past its max size")
        belt = self._belt()
        frame = belt.space.acquire_frame(f"belt{belt.index}")
        frame.increment = self
        self.region.add_frame(frame)
        belt.space.set_order(frame, self.stamp)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Increment {self.id} belt={self.belt.index} stamp={self.stamp} "
            f"frames={self.num_frames} occ={self.occupancy_words}w>"
        )


class Belt:
    """A FIFO queue of increments."""

    def __init__(
        self,
        index: int,
        spec: BeltSpec,
        space: AddressSpace,
        heap_frames: int,
        ids: Optional[Iterator[int]] = None,
    ):
        self.index = index
        #: Where increments on this belt draw their ids.  The heap hands
        #: all its belts one counter, so ids are unique heap-wide and
        #: restart with every VM — never a function of process history.
        self.ids = count() if ids is None else ids
        self.spec = spec
        self.space = space
        #: Max frames per increment on this belt (None = growable).
        self.increment_frames = spec.increment_frames(heap_frames)
        self.increments: Deque[Increment] = deque()

    # ------------------------------------------------------------------
    def open_increment(self) -> Increment:
        """Append a fresh, empty increment at the back of the belt."""
        inc = Increment(self, self.increment_frames)
        self.increments.append(inc)
        return inc

    def remove(self, inc: Increment) -> None:
        """Remove a (collected) increment from the belt."""
        try:
            self.increments.remove(inc)
        except ValueError:
            raise HeapCorruption(
                f"increment {inc.id} is not on belt {self.index}"
            ) from None

    def oldest_collectible(self) -> Optional[Increment]:
        """The front-most non-empty increment (FIFO collection order)."""
        for inc in self.increments:
            if not inc.is_empty:
                return inc
        return None

    def youngest(self) -> Optional[Increment]:
        return self.increments[-1] if self.increments else None

    @property
    def is_empty(self) -> bool:
        return all(inc.is_empty for inc in self.increments)

    @property
    def num_increments(self) -> int:
        return len(self.increments)

    @property
    def occupancy_words(self) -> int:
        return sum(inc.occupancy_words for inc in self.increments)

    @property
    def num_frames(self) -> int:
        return sum(inc.num_frames for inc in self.increments)

    def __iter__(self) -> Iterator[Increment]:
        return iter(self.increments)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Belt {self.index} increments={len(self.increments)}>"
