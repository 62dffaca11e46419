"""Mature Object Space (train-algorithm) rules for the Beltway top belt.

The paper twice points at this extension as future work: "An alternative
approach to lack of completeness in the Beltway X.X collector is to use a
complete, incremental collector (such as the Mature Object Space
collector [24]) in place of the third belt" (§3.2, §5).  This module
implements it: configurations written ``X.X.MOS`` keep the two bounded
lower belts and manage the top belt with Hudson & Moss's train algorithm,
gaining *completeness without full-heap collections* — the worst-case
collection increment stays one car.

Train rules, adapted to Beltway's machinery:

* the top belt's increments ("cars") are grouped into FIFO *trains*;
  frames are stamped in (train, car) order, so the ordinary Beltway write
  barrier records exactly the pointers the train algorithm needs;
* promotions from the lower belts join the youngest train (a fresh train
  is started whenever the youngest grows past ``MAX_EXTERNAL_CARS``);
* collecting the top belt means collecting the *first car of the first
  train*; survivors referenced from another train move to *that* train's
  last car, survivors referenced from roots move to a train that is not
  the first, and transitively reached objects follow their referrer —
  this is what clusters each cyclic structure into a single train;
* before any car is collected, the first train is checked for external
  references (roots or remsets from outside it); if there are none the
  whole train is reclaimed *without copying a word*.

A cross-increment dead cycle therefore migrates, collection by
collection, into one train, which is then reclaimed wholesale — the
completeness mechanism that replaces X.X.100's full top-belt collection.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, List, Optional, Set

from ..errors import HeapCorruption, OutOfMemory
from .belt import Belt, Increment
from .collector import CollectionResult
from .config import BeltwayConfig
from .policy import GenerationalPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .beltway import BeltwayHeap

#: External promotions start a fresh train once the youngest train has
#: this many cars, bounding how much one train can accrete from outside.
MAX_EXTERNAL_CARS = 2

#: Every Nth belt-1 collection also services the mature space (collects
#: its first car, batched with the emptied lower belts), so garbage
#: trains are found at a steady rate instead of only under extreme
#: pressure — Hudson & Moss collect the young generation together with
#: the lowest car the same way.
MATURE_PERIOD = 2


class Train:
    """A FIFO sequence of cars (increments) collected front-first."""

    def __init__(self, train_id: int) -> None:
        self.id = train_id
        self.cars: List[Increment] = []

    @property
    def num_frames(self) -> int:
        return sum(car.num_frames for car in self.cars)

    def frame_indices(self) -> Set[int]:
        frames: Set[int] = set()
        for car in self.cars:
            frames.update(car.frame_indices())
        return frames

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Train {self.id} cars={len(self.cars)}>"


class MOSPolicy(GenerationalPolicy):
    """Generational promotion below, train-managed top belt above."""

    #: Train routing steers copies through destination contexts, which
    #: the compiled substrate trace does not model: Python engine only.
    kernel_traceable = False

    def __init__(self, config: BeltwayConfig):
        super().__init__(config)
        self.trains: List[Train] = []
        self._train_ids = count()  # per policy, so per heap
        self.trains_reclaimed = 0
        self._reclaim_counter = 0
        self._belt1_collections = 0

    # ------------------------------------------------------------------
    # Structure bookkeeping
    # ------------------------------------------------------------------
    def manages_belt(self, belt_index: int) -> bool:
        return belt_index == self.config.top_belt

    def _top_belt(self, heap: "BeltwayHeap") -> Belt:
        return heap.belts[self.config.top_belt]

    def _sync_belt(self, heap: "BeltwayHeap") -> None:
        """Rebuild the top belt's increment order from the train list and
        restamp, so the write barrier sees (train, car) collection order."""
        belt = self._top_belt(heap)
        belt.increments.clear()
        for train in self.trains:
            belt.increments.extend(train.cars)
        heap.restamp()

    def _new_car(self, heap: "BeltwayHeap", train: Train) -> Increment:
        belt = self._top_belt(heap)
        car = Increment(belt, belt.increment_frames)
        train.cars.append(car)
        self._sync_belt(heap)
        return car

    def _train_of(self, heap: "BeltwayHeap", frame_index: int) -> Optional[Train]:
        for train in self.trains:
            if frame_index in train.frame_indices():
                return train
        return None

    # ------------------------------------------------------------------
    # Destination contexts (the train rules)
    # ------------------------------------------------------------------
    def external_dest_context(self, heap: "BeltwayHeap", from_frames) -> Train:
        """Promotions from the lower belts join the youngest usable train.

        A train whose *every* car is being collected cannot receive
        (copying into from-space); partially collected trains are fine —
        ``copy_alloc_in_context`` opens a fresh car past the collected
        ones."""
        usable = [t for t in self.trains if t.cars]
        if usable:
            youngest = usable[-1]
            if len(youngest.cars) < MAX_EXTERNAL_CARS:
                return youngest
        train = Train(next(self._train_ids))
        self.trains.append(train)
        return train

    def root_dest_context(self, heap: "BeltwayHeap", from_frames) -> Train:
        """Root-referenced survivors leave the collected train: garbage
        must not ride along with what the mutator still uses."""
        return self.external_dest_context(heap, from_frames)

    def slot_dest_context(self, heap: "BeltwayHeap", slot_addr: int, from_frames):
        """Survivors referenced from a train move to *that* train (even
        their own — its tail — which is what clusters a cyclic structure
        into one train over successive car collections)."""
        frame_index = slot_addr >> heap.space.frame_shift
        if frame_index in from_frames:
            # The referrer itself is being evacuated; its copy re-scans
            # the pointer, so the context here is irrelevant — fall
            # through to external routing for safety.
            return self.external_dest_context(heap, from_frames)
        train = self._train_of(heap, frame_index)
        if train is not None:
            return train
        # Referrer outside the mature space (boot image): external.
        return self.external_dest_context(heap, from_frames)

    def copy_alloc_in_context(
        self, heap: "BeltwayHeap", ctx: Train, size_words: int, from_frames
    ) -> int:
        if not isinstance(ctx, Train):
            raise HeapCorruption(f"MOS destination context {ctx!r} is not a train")
        car = ctx.cars[-1] if ctx.cars else None
        if car is None or (car.frame_indices() & from_frames):
            car = self._new_car(heap, ctx)
        while True:
            addr = car.alloc(size_words)
            if addr:
                car.copied_in_words += size_words
                return addr
            if not car.at_max_size:
                car.add_frame()  # may raise OutOfMemory
                continue
            car = self._new_car(heap, ctx)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def min_reserve_frames(self, heap: "BeltwayHeap", ahead: int = 0) -> int:
        """A mature service cycle evacuates the lower belts plus one car
        in a single batch; the reserve must be able to hold all of it.
        Unlike X.X.100's reserve this never grows with the mature space —
        the point of the extension."""
        top = self.config.top_belt
        lower = 0
        for belt in heap.belts[:top]:
            for inc in belt.increments:
                # current occupancy only: nursery growth re-checks the
                # reserve frame by frame, so anticipation is not needed
                # and would inflate every reserve check
                lower += inc.num_frames
        car = heap.belts[top].increment_frames or 0
        # The allocation increment is on belt 0, below the mature belt.
        return lower + ahead + car + 1

    def choose_collection(self, heap: "BeltwayHeap"):
        batch = super().choose_collection(heap)
        if not batch:
            return batch
        top = self.config.top_belt
        if batch[0].belt.index == top - 1:
            # A mature-space service cycle: every MATURE_PERIOD-th belt-1
            # collection also collects the first car of the first train.
            # The lower belts must travel with it — pointers from them
            # into the later-collected mature space are (correctly) not
            # remembered by the barrier, so they are evacuated together.
            self._belt1_collections += 1
            if self._belt1_collections % MATURE_PERIOD == 0 and self.trains:
                for belt in heap.belts[:top]:
                    for inc in belt.increments:
                        if not inc.is_empty and inc not in batch:
                            batch.append(inc)
                first_car = self.trains[0].cars[0]
                if not first_car.is_empty and first_car not in batch:
                    batch.append(first_car)
        return batch

    def pre_collection(self, heap: "BeltwayHeap", reason: str):
        """Reclaim the first train wholesale if nothing outside references
        it — the train algorithm's completeness payoff."""
        if not self.trains:
            return None
        # Only sound once the lower belts are empty: pointers from them
        # into the (later-collected) mature space are not remembered.
        if any(
            not heap.belts[i].is_empty for i in range(self.config.top_belt)
        ):
            return None
        first = self.trains[0]
        frames = first.frame_indices()
        if not frames:
            self.trains.pop(0)
            return None
        shift = heap.space.frame_shift
        for array in heap.root_arrays:
            for value in array:
                if value and (value >> shift) in frames:
                    return None
        for src, tgt in heap.remsets.pairs():
            if tgt in frames and src not in frames:
                if heap.remsets.entries_for_pair(src, tgt):
                    return None
        # The whole train is garbage: release it without copying a word.
        self._reclaim_counter += 1
        result = CollectionResult(
            reason="train-reclaim", collection_id=-self._reclaim_counter
        )
        result.increments_collected = len(first.cars)
        result.belts_collected = (self.config.top_belt,)
        result.from_frames = len(frames)
        result.from_words = sum(
            car.region.allocated_words for car in first.cars
        )
        result.remset_entries_dropped = heap.remsets.drop_frames(frames)
        belt = self._top_belt(heap)
        for car in first.cars:
            for frame in list(car.region.frames):
                heap.space.release_frame(frame)
                result.freed_frames += 1
        self.trains.pop(0)
        self.trains_reclaimed += 1
        self._sync_belt(heap)
        return result

    def after_collection(self, heap: "BeltwayHeap") -> None:
        """Drop collected cars from their trains and empty trains, then
        reclaim any garbage trains at the front (sound whenever the lower
        belts are empty, which a mature service cycle guarantees)."""
        belt = self._top_belt(heap)
        live = set(id(inc) for inc in belt.increments)
        changed = False
        for train in self.trains:
            before = len(train.cars)
            train.cars = [car for car in train.cars if id(car) in live]
            changed = changed or len(train.cars) != before
        before_trains = len(self.trains)
        self.trains = [t for t in self.trains if t.cars]
        if changed or len(self.trains) != before_trains:
            self._sync_belt(heap)
        while True:
            reclaimed = self.pre_collection(heap, "post-collection")
            if reclaimed is None:
                break
            heap.record_auxiliary_collection(reclaimed)
