"""Bump-pointer allocation over a growing list of frames.

Both Beltway increments and the gctk baseline spaces allocate the same way
Jikes RVM's copying spaces do: a bump pointer through contiguous frames.
Objects never span frames; when an object does not fit in the tail of the
current frame the tail is wasted (tracked as ``wasted_words``) and
allocation moves to the next frame.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import OutOfMemory
from .address import WORD_BYTES
from .frame import Frame
from .space import AddressSpace


class BumpRegion:
    """A bump-allocated region composed of whole frames."""

    def __init__(self, space: AddressSpace):
        self.space = space
        self.frames: List[Frame] = []
        self._cursor = 0  # byte address of next free word
        self._limit = 0  # byte address one past the current frame
        self._frame_base = 0  # byte address of the current frame's word 0
        self._current: Optional[Frame] = None
        self._frame_words = space.frame_words
        self.allocated_words = 0  # words handed out to objects
        self.wasted_words = 0  # frame tails skipped by oversize objects
        self.rollovers = 0  # frames appended over the region's lifetime

    # ------------------------------------------------------------------
    def add_frame(self, frame: Frame) -> None:
        """Append a freshly acquired frame and point the cursor at it."""
        self.rollovers += 1
        if self.frames and self._cursor < self._limit:
            # Abandon the current tail; it becomes waste.
            self.wasted_words += (self._limit - self._cursor) // WORD_BYTES
            current = self.frames[-1]
            current.used_words = current.size_words
        self.frames.append(frame)
        self._cursor = self.space.frame_base(frame)
        self._limit = self._cursor + frame.size_bytes
        self._frame_base = self._cursor
        self._current = frame

    def alloc(self, size_words: int) -> int:
        """Bump-allocate ``size_words``; returns 0 if a new frame is needed."""
        if size_words > self._frame_words:
            raise OutOfMemory(
                f"object of {size_words} words exceeds the frame size "
                f"({self._frame_words} words); the reproduction, like "
                "GCTk, has no large-object space",
                requested_words=size_words,
            )
        cursor = self._cursor
        new_cursor = cursor + size_words * WORD_BYTES
        if new_cursor > self._limit:
            return 0
        self._cursor = new_cursor
        self._current.used_words = (new_cursor - self._frame_base) // WORD_BYTES
        self.allocated_words += size_words
        return cursor

    # ------------------------------------------------------------------
    @property
    def num_frames(self) -> int:
        return len(self.frames)

    @property
    def occupancy_words(self) -> int:
        """Words consumed (allocated plus waste) — the paper's "occupancy"."""
        return self.allocated_words + self.wasted_words

    def reset(self) -> None:
        """Forget all frames (the owner releases them separately)."""
        self.frames = []
        self._cursor = 0
        self._limit = 0
        self._frame_base = 0
        self._current = None
        self.allocated_words = 0
        self.wasted_words = 0
