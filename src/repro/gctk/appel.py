"""Independent Appel-style flexible-nursery generational collector [3].

The heap holds a mature region at the "bottom" and splits the remainder
evenly between the nursery and the copy reserve, so the nursery shrinks as
the mature space grows.  Minor collections copy nursery survivors into the
mature region; when the nursery would drop below a small fixed threshold
the whole heap is collected (major).  The boundary write barrier plus a
boot-image rescan per collection reproduce the baseline the paper tunes
and compares against (§4.1, §4.2.1).
"""

from __future__ import annotations

from ..errors import OutOfMemory
from ..heap.allocator import BumpRegion
from .base import GctkPlan, MATURE_ORDER, NURSERY_ORDER

#: Appel's "small fixed threshold": a nursery below this is a full heap.
MIN_NURSERY_FRAMES = 1


class AppelGctk(GctkPlan):
    """Flexible nursery: capacity = (heap − mature) / 2."""

    def __init__(self, space, model, boot, debug_verify=False,
                 name="gctk:Appel", kernels=None):
        super().__init__(name, space, model, boot, debug_verify,
                         kernels=kernels)
        self.nursery = BumpRegion(space)
        self.mature = BumpRegion(space)

    # ------------------------------------------------------------------
    def nursery_capacity_frames(self) -> int:
        """How many frames the nursery may hold right now.

        The gctk baselines fix the copy reserve at half the heap ("as it is
        in the semi-space collector and generational collector
        implementations", §3.1): nursery + mature share the usable half.
        """
        return self.space.heap_frames // 2 - self.mature.num_frames

    def _nursery_room(self) -> int:
        """Frames the nursery may still grow by before a collection."""
        return self.nursery_capacity_frames() - self.nursery.num_frames

    def _grow_nursery(self) -> None:
        frame = self._acquire_into(self.nursery, "nursery", NURSERY_ORDER)
        self.barrier.nursery_frames.add(frame.index)

    grow_mutator_region = _grow_nursery

    def frame_grant(self):
        room = max(0, self._nursery_room())
        return self.space.recycled_frames()[:room], NURSERY_ORDER, 1

    def _alloc_words(self, size: int) -> int:
        attempts = 0
        while True:
            addr = self.nursery.alloc(size)
            if addr:
                return addr
            if self._nursery_room() > 0:
                self._grow_nursery()
                continue
            if attempts >= 3:
                raise OutOfMemory(
                    f"{self.name}: no progress after minor+major collections",
                    requested_words=size,
                )
            self.minor_collect()
            if self._needs_major():
                self.major_collect()
                if self._needs_major():
                    # Even a full-heap collection could not restore the
                    # space layout: live data no longer fits this design.
                    raise OutOfMemory(
                        f"{self.name}: live data exceeds usable memory",
                        requested_words=size,
                    )
            attempts += 1

    def _needs_major(self) -> bool:
        """Appel majors when the mature space has squeezed the nursery below
        the small fixed threshold — i.e. usable memory (the non-reserve
        half) is effectively all mature."""
        return self.nursery_capacity_frames() < MIN_NURSERY_FRAMES

    def _regions(self):
        return [self.nursery, self.mature]

    def collect(self, reason: str = "forced"):
        if reason == "major":
            return self.major_collect()
        return self.minor_collect()

    # ------------------------------------------------------------------
    def minor_collect(self):
        result = self._new_result("minor")
        result.increments_collected = 1
        result.belts_collected = (0,)
        from_frames = {frame.index for frame in self.nursery.frames}
        result.from_frames = len(from_frames)
        result.from_words = self.nursery.allocated_words
        self._run_trace(
            tuple(self.ssb.slots), from_frames,
            self.mature, "mature", MATURE_ORDER, result,
        )
        result.freed_frames = self._release_region(self.nursery)
        self.ssb.clear()
        return self._emit(result)

    def major_collect(self):
        """Collect nursery and mature space together (full heap)."""
        result = self._new_result("major")
        result.increments_collected = 2
        result.belts_collected = (0, 1)
        result.was_full_heap = True
        from_frames = {frame.index for frame in self.nursery.frames}
        from_frames.update(frame.index for frame in self.mature.frames)
        result.from_frames = len(from_frames)
        result.from_words = (
            self.nursery.allocated_words + self.mature.allocated_words
        )
        to_space = BumpRegion(self.space)
        # SSB slots live inside the collected space: ignored (their objects
        # are re-scanned when copied).
        self._run_trace(
            (), from_frames, to_space, "mature", MATURE_ORDER, result,
        )
        result.freed_frames = self._release_region(self.nursery)
        result.freed_frames += self._release_region(self.mature)
        self.mature = to_space
        self.ssb.clear()
        return self._emit(result)
