"""Independent classic semi-space collector (Cheney 1970) — gctk baseline."""

from __future__ import annotations

from ..errors import OutOfMemory
from ..heap.allocator import BumpRegion
from .base import GctkPlan, MATURE_ORDER, NURSERY_ORDER


class SemiSpaceGctk(GctkPlan):
    """Half the heap is to-space reserve; collect when from-space fills."""

    def __init__(self, space, model, boot, debug_verify=False, kernels=None):
        super().__init__("gctk:SS", space, model, boot, debug_verify,
                         kernels=kernels)
        self.region = BumpRegion(space)
        self.half_frames = max(1, space.heap_frames // 2)
        # No generational remembering: the boundary barrier never fires
        # because nursery_frames stays empty; boot is rescanned per GC.

    def _alloc_words(self, size: int) -> int:
        attempts = 0
        while True:
            addr = self.region.alloc(size)
            if addr:
                return addr
            if self.region.num_frames < self.half_frames:
                self._acquire_into(self.region, "ss", NURSERY_ORDER)
                continue
            if attempts >= 2:
                raise OutOfMemory(
                    f"{self.name}: live data exceeds a semi-space",
                    requested_words=size,
                )
            self.collect("full")
            attempts += 1

    def _regions(self):
        return [self.region]

    def collect(self, reason: str = "full"):
        result = self._new_result(reason)
        result.increments_collected = 1
        result.belts_collected = (0,)
        result.was_full_heap = True
        from_frames = {frame.index for frame in self.region.frames}
        result.from_frames = len(from_frames)
        result.from_words = self.region.allocated_words
        to_space = BumpRegion(self.space)
        self._run_trace(
            (), from_frames, to_space, "ss", MATURE_ORDER, result,
        )
        result.freed_frames = self._release_region(self.region)
        self.region = to_space
        self.space.order_epoch += 1  # a wholesale relabel, like a restamp
        for frame in to_space.frames:
            self.space.set_order(frame, NURSERY_ORDER)
        return self._emit(result)
