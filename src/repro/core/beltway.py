"""BeltwayHeap: the configured collector a mutator allocates against.

This is the equivalent of the paper's single GCTk collector whose
command-line options select the configuration (§4.1).  It owns the belts,
the write barrier, the remembered sets, the triggers, the dynamic copy
reserve and the copying collector, and exposes the three operations a
mutator needs: allocate, write a reference field, read a reference field.

Allocation policy (the paper's behaviours, expressed as one loop):

1. bump-allocate in the current allocation increment;
2. else grow that increment by a frame — allowed only while the dynamic
   conservative copy reserve still fits in the remaining free frames;
3. else open a new increment on the allocation belt if the belt's
   ``max_increments`` permits (bounding the nursery to one increment is
   the paper's nursery trigger) and the nursery could still reach the
   configured minimum size (Appel's "nursery below a small fixed threshold
   means the heap is full" rule);
4. else collect — the policy picks the FIFO-oldest increment of the lowest
   non-empty belt, escalating up the belts on successive failures until
   either allocation succeeds or nothing remains to collect
   (``OutOfMemory``: the heap is below this configuration's minimum size).
"""

from __future__ import annotations

from itertools import count
from typing import Callable, List, Optional

from ..errors import HeapCorruption, OutOfMemory
from ..heap.bootimage import BootImage
from ..heap.objectmodel import ObjectModel, TypeDescriptor
from ..heap.space import AddressSpace
from ..sanitizer.heapcheck import HeapVerifier, VerifyReport
from .barrier import FrameBarrier
from .belt import Belt, Increment
from .collector import CollectionResult, Collector
from .config import BeltwayConfig
from .order import restamp
from .policy import make_policy
from .remset import RememberedSets
from .reserve import required_reserve_frames
from .triggers import Triggers


class BeltwayHeap:
    """A Beltway collector instance bound to an address space."""

    def __init__(
        self,
        space: AddressSpace,
        model: ObjectModel,
        boot: BootImage,
        config: BeltwayConfig,
        debug_verify: bool = False,
        kernels=None,
    ):
        self.space = space
        self.model = model
        self.boot = boot
        self.config = config
        self.debug_verify = debug_verify
        #: Substrate-kernel tier (repro.kernels.KernelSet) or None for the
        #: pure-Python reference paths.
        self.kernels = kernels
        self.policy = make_policy(config)
        self.remsets = RememberedSets()
        self.barrier = FrameBarrier(space, self.remsets)
        # Compiled mutator fast paths (ISSUE 2): instance attributes bound
        # once at heap construction, so every reference store and field
        # read is one call frame of shifts/compares instead of a stack of
        # model/barrier/space method calls.  Accounting is bit-identical
        # to the layered reference paths (see DESIGN.md).
        self.write_ref_field = self.barrier.compile_write_field(model)
        self._init_object = self.barrier.compile_init_object(model)
        self.read_ref_field, _, _ = model.compile_field_ops()
        self.triggers = Triggers(config)
        self.collector = Collector(self)
        increment_ids = count()
        self.belts: List[Belt] = [
            Belt(i, spec, space, space.heap_frames, increment_ids)
            for i, spec in enumerate(config.belts)
        ]
        #: BOF role tracking: which physical belt is the allocation belt A.
        self.of_alloc_belt = 0
        self.allocation_increment: Optional[Increment] = None
        self.root_arrays: List[List[int]] = []
        #: Observers called with each CollectionResult (the VM's cost model).
        self.collection_listeners: List[Callable[[CollectionResult], None]] = []
        # Statistics.
        self.collections: List[CollectionResult] = []
        self.allocations = 0
        self.allocated_words = 0
        self.flips = 0

    @property
    def name(self) -> str:
        """Collector name shown in figures and tables."""
        return self.config.name

    # ------------------------------------------------------------------
    # Roots
    # ------------------------------------------------------------------
    def register_roots(self, array: List[int]) -> None:
        """Register a mutable array of root addresses (updated in place
        when a collection moves objects)."""
        self.root_arrays.append(array)

    # ------------------------------------------------------------------
    # Mutator interface
    # ------------------------------------------------------------------
    def alloc(self, desc: TypeDescriptor, length: int = 0) -> int:
        """Allocate and initialise an object; may trigger collections.

        Any references the caller needs across this call must already be
        reachable from registered roots.
        """
        size = desc.size_words(length)
        inc = self.allocation_increment
        addr = inc.alloc(size) if inc is not None else 0
        if not addr:
            addr = self._alloc_slow(size)
        # Header init plus the type-slot store through the barrier: the TIB
        # initialisation traffic of §3.3.2 (young source, boot target — the
        # barrier's order compare filters it without a remset insert).
        self._init_object(addr, desc, length)
        self.allocations += 1
        self.allocated_words += size
        return addr

    def mutator_region(self):
        """The one bump region mutator allocation is filling, if any."""
        inc = self.allocation_increment
        return inc.region if inc is not None else None

    def _alloc_slow(self, size: int) -> int:
        budget = 4 + 2 * (len(self.belts) + self.num_increments)
        collections = 0
        while True:
            inc = self.allocation_increment
            if inc is None:
                inc = self._adopt_youngest_increment()
            if inc is not None:
                addr = inc.alloc(size)
                if addr:
                    return addr
            reason = self.triggers.poll(self)
            if reason is not None:
                self.collect(reason)
                collections += 1
                continue
            if self.triggers.should_switch_nursery_increment(self):
                if self._try_open_allocation_increment(force=True):
                    continue
            if (
                inc is not None
                and not inc.at_max_size
                and self._reserve_allows(extra_frames=1)
            ):
                inc.add_frame()
                continue
            if self._try_open_allocation_increment():
                continue
            if collections >= budget:
                raise OutOfMemory(
                    f"{self.config.name}: no progress after {collections} "
                    f"collections for a {size}-word allocation",
                    requested_words=size,
                )
            self.collect("full")
            collections += 1

    def _adopt_youngest_increment(self) -> Optional[Increment]:
        """Resume allocation in the youngest open increment of the
        allocation belt, if any.

        This is what makes BSS a true semi-space (allocation continues
        after the survivors, in the same increment they were copied to)
        and what keeps BOF allocating at the back of belt A.  Belts whose
        nursery promotes elsewhere are empty after collection, so this is
        a no-op for Appel / X.X / X.X.100 nurseries.
        """
        belt = self.belts[self.policy.allocation_belt_index(self)]
        inc = belt.youngest()
        if inc is not None and not inc.at_max_size and inc.num_frames > 0:
            self.allocation_increment = inc
            return inc
        return None

    def _try_open_allocation_increment(self, force: bool = False) -> bool:
        belt = self.belts[self.policy.allocation_belt_index(self)]
        cap = belt.spec.max_increments
        if not force and cap is not None and belt.num_increments >= cap:
            return False
        # Appel's rule: a nursery that cannot reach the minimum size means
        # the heap is full.
        if not self._reserve_allows(extra_frames=self.config.min_nursery_frames):
            return False
        inc = self.open_increment(belt)
        inc.add_frame()
        self.allocation_increment = inc
        return True

    def _reserve_allows(self, extra_frames: int) -> bool:
        free_after = self.space.heap_frames_free() - extra_frames
        return free_after >= self.current_reserve_frames()

    # Field access: ``write_ref_field`` (barriered store) and
    # ``read_ref_field`` (no barrier — collections are stop-the-world) are
    # compiled per-instance fast paths bound in ``__init__``.

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def collect(self, reason: str = "forced") -> CollectionResult:
        """Run one collection chosen by the scheduling policy."""
        pre = self.policy.pre_collection(self, reason)
        if pre is not None:
            # Copy-free reclamation (a garbage MOS train).
            pre.reserve_frames = self.current_reserve_frames()
            self.collections.append(pre)
            for listener in self.collection_listeners:
                listener(pre)
            return pre
        batch = self.policy.choose_collection(self)
        if not batch:
            raise OutOfMemory(
                f"{self.config.name}: heap full and nothing collectible"
            )
        result = self.collector.collect(batch, reason)
        result.reserve_frames = self.current_reserve_frames()
        self.collections.append(result)
        for listener in self.collection_listeners:
            listener(result)
        return result

    def record_auxiliary_collection(self, result: CollectionResult) -> None:
        """Record a copy-free reclamation performed by the policy (MOS
        train reclamation) so statistics and the cost model see it."""
        result.reserve_frames = self.current_reserve_frames()
        self.collections.append(result)
        for listener in self.collection_listeners:
            listener(result)

    def current_reserve_frames(self) -> int:
        if self.config.fixed_half_reserve:
            # Ablation: the classic semi-space / generational reserve.
            return self.space.heap_frames // 2
        base = required_reserve_frames(
            self.belts, self.policy.target_belt_index, self.allocation_increment
        )
        return max(base, self.policy.min_reserve_frames(self))

    # ------------------------------------------------------------------
    # Structure maintenance (used by the collector and policies)
    # ------------------------------------------------------------------
    def open_increment(self, belt: Belt) -> Increment:
        inc = belt.open_increment()
        self.restamp()
        return inc

    def restamp(self) -> None:
        restamp(self.space, self.policy.priority_belts(self))

    def note_increments_removed(self, batch: List[Increment]) -> None:
        if self.allocation_increment in batch:
            self.allocation_increment = None

    def note_flip(self) -> None:
        """BOF belt flip: drop empty leftover increments, reset allocation."""
        self.flips += 1
        for belt in self.belts:
            for inc in list(belt.increments):
                if inc.is_empty:
                    for frame in list(inc.region.frames):
                        self.space.release_frame(frame)
                    belt.remove(inc)
        self.allocation_increment = None
        self.restamp()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_increments(self) -> int:
        return sum(belt.num_increments for belt in self.belts)

    @property
    def occupied_frames(self) -> int:
        return sum(belt.num_frames for belt in self.belts)

    @property
    def live_words_upper_bound(self) -> int:
        return sum(belt.occupancy_words for belt in self.belts)

    def roots(self):
        """All true roots: mutator arrays plus boot-image objects."""
        for array in self.root_arrays:
            yield from (value for value in array if value)
        yield from self.boot.iter_objects()

    def verify(self) -> VerifyReport:
        """Full-heap verification; raises HeapCorruption on any violation."""
        return HeapVerifier(self.space, self.model).verify(self.roots())

    def describe_structure(self) -> str:
        """ASCII belt/increment diagram (Figures 2 and 3 of the paper)."""
        lines = []
        for belt in reversed(self.belts):
            cells = []
            for inc in belt.increments:
                tag = "A" if inc is self.allocation_increment else " "
                cells.append(f"[{tag}#{inc.id} {inc.num_frames}f {inc.occupancy_words}w]")
            role = ""
            if len(self.belts) == 2 and self.config.style.value == "of":
                role = " (A)" if belt.index == self.of_alloc_belt else " (C)"
            lines.append(f"belt {belt.index}{role}: " + " ".join(cells))
        return "\n".join(lines)
