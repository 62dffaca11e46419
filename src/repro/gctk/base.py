"""Shared plan scaffolding for the independent gctk baseline collectors.

As in the paper's GCTk, where Beltway and its baselines were plans over
Jikes RVM's one scan/copy mechanism, these collectors share *mechanism*
with the Beltway core — the heap substrate, the Cheney trace engine
(:mod:`repro.heap.cheney`), the compiled barrier template
(:mod:`repro.core.barrier`) and the result/cost shapes — and no *policy*:
the plans, the boundary rule, the non-deduplicating SSB, the per-GC
boot-image rescan and the fixed half-heap reserve live only here.  The
paper compares Beltway against separately tuned generational collectors,
and independent plans also cross-validate the "Beltway 100.100 behaves
like Appel" equivalence claim (Fig. 5).
"""

from __future__ import annotations

from typing import Callable, List

from ..core.collector import CollectionResult
from ..errors import OutOfMemory
from ..heap.allocator import BumpRegion
from ..heap.bootimage import BootImage
from ..heap.cheney import trace_engine
from ..heap.objectmodel import ObjectModel, TypeDescriptor
from ..heap.space import AddressSpace
from ..sanitizer.heapcheck import HeapVerifier, VerifyReport
from .ssb import BoundaryBarrier, SequentialStoreBuffer

#: Arbitrary but stable collect-order stamps so the verifier recognises
#: gctk frames as live (the boundary barrier ignores these numbers).
NURSERY_ORDER = 1
MATURE_ORDER = 2


class GctkPlan:
    """Base class: roots, barrier plumbing, allocation accounting."""

    def __init__(
        self,
        name: str,
        space: AddressSpace,
        model: ObjectModel,
        boot: BootImage,
        debug_verify: bool = False,
        kernels=None,
    ):
        self.name = name
        #: Substrate-kernel tier (repro.kernels.KernelSet) or None for the
        #: pure-Python reference paths.
        self.kernels = kernels
        self.space = space
        self.model = model
        self.boot = boot
        self.debug_verify = debug_verify
        self.ssb = SequentialStoreBuffer()
        self.remsets = self.ssb  # interface parity with BeltwayHeap
        self.barrier = BoundaryBarrier(space, self.ssb)
        # Compiled mutator fast paths (ISSUE 2), accounting-identical to
        # the layered reference paths — see BeltwayHeap and DESIGN.md.
        self.write_ref_field = self.barrier.compile_write_field(model)
        self._init_object = self.barrier.compile_init_object(model)
        self.read_ref_field, _, _ = model.compile_field_ops()
        self.root_arrays: List[List[int]] = []
        self.collections: List[CollectionResult] = []
        self.collection_listeners: List[Callable[[CollectionResult], None]] = []
        self.allocations = 0
        self.allocated_words = 0
        self._gc_count = 0
        self._open_engine = trace_engine(model, kernels)

    # ------------------------------------------------------------------
    def register_roots(self, array: List[int]) -> None:
        self.root_arrays.append(array)

    # ``write_ref_field`` / ``read_ref_field`` are compiled per-instance
    # fast paths bound in ``__init__``.

    # ------------------------------------------------------------------
    def alloc(self, desc: TypeDescriptor, length: int = 0) -> int:
        size = desc.size_words(length)
        addr = self._alloc_words(size)
        self._init_object(addr, desc, length)
        self.allocations += 1
        self.allocated_words += size
        return addr

    def mutator_region(self) -> BumpRegion:
        """The one bump region mutator allocation is filling."""
        return self._regions()[0]

    def _alloc_words(self, size: int) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def grant_key(self):
        """What :meth:`frame_grant` depends on: collections and frames."""
        return self._gc_count, self.space.heap_frames_in_use

    def frame_grant(self):
        """Free-pool frames, in pop order, that ``_alloc_words`` would add
        to the mutator region with no decision in between, with their
        stamp and nursery flag (``cik.Replayer``); none by default."""
        return [], 0, 0

    def collect(self, reason: str = "forced") -> CollectionResult:
        raise NotImplementedError  # pragma: no cover - abstract

    # ------------------------------------------------------------------
    def _new_result(self, reason: str) -> CollectionResult:
        self._gc_count += 1
        return CollectionResult(reason=reason, collection_id=self._gc_count)

    def _emit(self, result: CollectionResult) -> CollectionResult:
        # Telemetry: the gctk baselines fix the copy reserve at half the
        # heap (§3.1), unlike Beltway's dynamic conservative reserve.
        result.reserve_frames = self.space.heap_frames // 2
        self.collections.append(result)
        for listener in self.collection_listeners:
            listener(result)
        if self.debug_verify:
            self.verify()
        return result

    def _acquire_into(self, region: BumpRegion, space_name: str, order: int):
        frame = self.space.acquire_frame(space_name)
        self.space.set_order(frame, order)
        region.add_frame(frame)
        return frame

    def _release_region(self, region: BumpRegion) -> int:
        freed = 0
        for frame in list(region.frames):
            self.barrier.nursery_frames.discard(frame.index)
            self.space.release_frame(frame)
            freed += 1
        region.reset()
        return freed

    @property
    def live_words_upper_bound(self) -> int:
        """Words currently occupied by heap objects (live + unreclaimed)."""
        return sum(region.allocated_words for region in self._regions())

    def _regions(self):  # pragma: no cover - overridden
        return []

    # ------------------------------------------------------------------
    def roots(self):
        for array in self.root_arrays:
            yield from (value for value in array if value)
        yield from self.boot.iter_objects()

    def verify(self) -> VerifyReport:
        return HeapVerifier(self.space, self.model).verify(self.roots())

    def _run_trace(
        self,
        ssb_slots,
        from_frames,
        region: BumpRegion,
        space_name: str,
        order: int,
        result: CollectionResult,
    ) -> None:
        """Evacuate everything reachable out of ``from_frames`` into
        ``region``: mutator roots, the store buffer, then — because the
        boundary barrier does not catch boot-image writes (§4.2.1) — the
        whole boot image, charged to ``boot_slots_scanned``; then drain.
        """
        space = self.space
        shift = space.frame_shift
        to_space = _RegionToSpace(self, region, space_name, order)
        with self._open_engine(
            dict.fromkeys(from_frames, 0), to_space, result
        ) as engine:
            for array in self.root_arrays:
                engine.forward_roots(array)
            for slot in ssb_slots:
                result.remset_slots += 1
                target = space.load(slot)
                if target and (target >> shift) in from_frames:
                    space.store(slot, engine.forward(target))
            engine.scan_boot(self.boot.iter_objects())
            engine.drain()


class _RegionToSpace:
    """One bump region grown frame by frame: the single lane a gctk
    collection copies into (the plan half of the trace-engine contract,
    :mod:`repro.heap.cheney`)."""

    def __init__(self, plan: GctkPlan, region: BumpRegion, space_name: str,
                 order: int):
        self.plan = plan
        self.region = region
        self.space_name = space_name
        self.order = order

    def tail(self, lane: int):
        return None, self.region

    def alloc(self, lane: int, size_words: int, ctx=None) -> int:
        region = self.region
        addr = region.alloc(size_words)
        if addr:
            return addr
        plan = self.plan
        plan._acquire_into(region, self.space_name, self.order)  # may raise OOM
        addr = region.alloc(size_words)
        if not addr:
            raise OutOfMemory(
                f"{plan.name}: copy of {size_words} words failed"
            )
        return addr
