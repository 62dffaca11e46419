"""The Beltway copying collector: forward, copy, scan, promote.

One ``collect`` call collects a *batch* of increments together (usually a
single increment; the scheduling policy batches a lower-belt increment with
the next belt's oldest when promotion would immediately force that
collection anyway — the paper's collect-together optimisation, which also
lets the remsets *between* the batched increments be ignored).

The algorithm is a breadth-first copying trace (Cheney order, explicit
FIFO worklist):

1. roots = mutator root slots + every remembered slot pointing into the
   collected frames from outside them;
2. forwarding: the first visit to a from-space object copies it to its
   promotion destination and installs a forwarding pointer in its status
   word; later visits just read the forwarding pointer;
3. scanning a copied object forwards its from-space referents and re-runs
   the barrier check for its other pointers, because copying changed the
   pointer's *source* frame (remsets sourced in collected frames are
   dropped wholesale afterwards);
4. collected frames are released, remsets into/out of them deleted, and
   the frames restamped in the new predicted collection order.

Copy allocation is allowed to consume the copy reserve — that is what the
reserve is for — but a hard budget exhaustion raises ``OutOfMemory``,
which the harness reads as "this heap size is below the configuration's
minimum" (Table 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Set

from ..errors import HeapCorruption
from ..heap.cheney import trace_engine
from .belt import Increment

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .beltway import BeltwayHeap


@dataclass
class CollectionResult:
    """Work counters for one collection, consumed by the cost model."""

    reason: str
    collection_id: int = 0
    increments_collected: int = 0
    belts_collected: tuple = ()
    from_frames: int = 0
    from_words: int = 0  # allocated words in the collected increments
    freed_frames: int = 0
    copied_objects: int = 0
    copied_words: int = 0
    scanned_objects: int = 0
    scanned_ref_slots: int = 0
    root_slots: int = 0
    remset_slots: int = 0
    remset_entries_dropped: int = 0
    was_full_heap: bool = False
    #: Boot-image slots rescanned by collectors that do not remember
    #: boot→heap pointers (the gctk Appel baseline; Beltway leaves this 0).
    boot_slots_scanned: int = 0
    #: Copy-reserve frames the plan holds back *after* this collection
    #: (Beltway's dynamic conservative reserve; the gctk baselines' fixed
    #: half-heap).  Telemetry-only: the cost model never reads it.
    reserve_frames: int = 0

    @property
    def survival_rate(self) -> float:
        """Fraction of collected (allocated) words that survived."""
        return self.copied_words / self.from_words if self.from_words else 0.0


class Collector:
    """Stateless-between-collections copying machinery for a BeltwayHeap."""

    def __init__(self, heap: "BeltwayHeap"):
        self.heap = heap
        self._collections = 0
        # Policies that route copies through destination contexts (MOS
        # trains) are not kernel-traceable and always run the Python
        # engine; both engines are counter-bit-identical (DESIGN §9).
        self._open_engine = trace_engine(
            heap.model, heap.kernels if heap.policy.kernel_traceable else None
        )

    # ------------------------------------------------------------------
    def collect(self, batch: List[Increment], reason: str) -> CollectionResult:
        heap = self.heap
        if not batch:
            raise HeapCorruption("collect() called with an empty batch")
        # §3.3.1, checked where every policy's batch passes: stamped lower
        # means collected no later.  The barrier skips pointers *out of*
        # lower-stamped increments, so one left behind would dangle.
        last = max(batch, key=lambda inc: inc.stamp)
        for belt in heap.belts:
            for inc in belt.increments:
                if inc.stamp < last.stamp and not inc.is_empty and inc not in batch:
                    raise HeapCorruption(
                        f"collection out of stamp order: {last!r} is in the "
                        f"batch but the lower-stamped {inc!r} is not"
                    )
        self._collections += 1
        result = CollectionResult(reason=reason, collection_id=self._collections)
        result.increments_collected = len(batch)
        result.belts_collected = tuple(sorted({inc.belt.index for inc in batch}))
        policy = heap.policy
        #: Collected frame -> the belt its survivors promote to.
        lanes: Dict[int, int] = {}
        for inc in batch:
            if policy.copies_into_allocation_increment:
                target = policy.allocation_belt_index(heap)
            else:
                target = policy.target_belt_index(inc.belt.index)
            lanes.update(dict.fromkeys(inc.frame_indices(), target))
            result.from_words += inc.region.allocated_words
        from_frames: Set[int] = set(lanes)
        result.from_frames = len(from_frames)
        # "Full heap" in the generational sense: a *growable* top belt is
        # collected en masse.  Every BSS collection is full-heap; X.X and
        # X.X.MOS (bounded top increments) never perform one; OF-style
        # policies never perform one either (their incompleteness, §2.2).
        top_spec = heap.config.belts[heap.config.top_belt]
        result.was_full_heap = (
            not policy.copies_into_allocation_increment
            and heap.config.style.value == "generational"
            and top_spec.growable
            and heap.config.top_belt in result.belts_collected
        )

        # -- trace: roots, remembered slots, transitive closure ------------
        space = heap.space
        shift = space.frame_shift
        barrier = heap.barrier
        with self._open_engine(
            lanes, _ToSpace(heap, from_frames), result, heap.remsets.insert
        ) as engine:
            root_ctx = policy.root_dest_context(heap, from_frames)
            for array in heap.root_arrays:
                engine.forward_roots(array, root_ctx)
            # Slots inside the collected frames themselves are excluded:
            # their objects are copied and re-scanned, and remsets between
            # increments collected together are deliberately ignored
            # (§3.3.2).
            for slot in heap.remsets.slots_into(from_frames, from_frames):
                result.remset_slots += 1
                target = space.load(slot)
                if target and (target >> shift) in from_frames:
                    ctx = policy.slot_dest_context(heap, slot, from_frames)
                    new_target = engine.forward(target, ctx)
                    space.store(slot, new_target)
                    # The pair for the old target frame is dropped below,
                    # so re-record the pointer against the destination
                    # frame — before the drain's own discoveries.
                    barrier.record_collector_pointer(slot, slot, new_target)
            engine.drain()

        # -- reclaim -------------------------------------------------------
        result.remset_entries_dropped = heap.remsets.drop_frames(from_frames)
        for inc in batch:
            for frame in list(inc.region.frames):
                space.release_frame(frame)
                result.freed_frames += 1
            inc.belt.remove(inc)
        heap.note_increments_removed(batch)
        heap.restamp()
        policy.after_collection(heap)
        if heap.debug_verify:
            heap.verify()
        return result


class _ToSpace:
    """Where one collection's survivors go: lane = target belt.

    The plan half of the trace-engine contract (:mod:`repro.heap.cheney`).
    Copy allocation may consume the copy reserve — that is what the
    reserve is for — and a hard budget exhaustion raises ``OutOfMemory``.
    """

    def __init__(self, heap: "BeltwayHeap", from_frames: Set[int]):
        self.heap = heap
        self.from_frames = from_frames
        self.dests: Dict[int, Increment] = {}  # belt -> open destination

    def tail(self, belt_index: int):
        dest = self.dests.get(belt_index)
        return None if dest is None else (dest, dest.region)

    def alloc(self, belt_index: int, size_words: int, ctx=None) -> int:
        heap = self.heap
        policy = heap.policy
        if policy.manages_belt(belt_index):
            # The destination belt is policy-managed (MOS trains): route
            # through the referrer's context, or the external context for
            # promotions arriving from below.  Contexts only steer managed
            # belts; an object bound for an ordinary belt (e.g. a nursery
            # child of a train-resident object in a combined batch)
            # follows its normal promotion target.
            if ctx is None:
                ctx = policy.external_dest_context(heap, self.from_frames)
            return policy.copy_alloc_in_context(
                heap, ctx, size_words, self.from_frames
            )
        dests = self.dests
        dest = dests.get(belt_index)
        if dest is None:
            dest = dests[belt_index] = self._choose_dest(belt_index)
        while True:
            addr = dest.alloc(size_words)
            if addr:
                dest.copied_in_words += size_words
                return addr
            if not dest.at_max_size:
                dest.add_frame()  # may raise OutOfMemory: reserve exhausted
                continue
            # Destination increment is full: overflow into a fresh one.
            dest = dests[belt_index] = heap.open_increment(heap.belts[belt_index])
            if policy.copies_into_allocation_increment:
                # Allocation resumes behind the survivors, so the
                # allocation increment stays the belt's youngest.
                heap.allocation_increment = dest

    def _choose_dest(self, belt_index: int) -> Increment:
        """Youngest open increment of the target belt not being collected,
        else a fresh increment."""
        heap = self.heap
        from_frames = self.from_frames
        belt = heap.belts[belt_index]
        if heap.policy.copies_into_allocation_increment:
            candidate = heap.allocation_increment
            if (
                candidate is not None
                and candidate.belt.index == belt_index
                and not candidate.frame_indices() & from_frames
            ):
                return candidate
            return heap.open_increment(belt)
        candidate = belt.youngest()
        if (
            candidate is not None
            and not candidate.at_max_size
            and not candidate.frame_indices() & from_frames
        ):
            return candidate
        return heap.open_increment(belt)
