"""The VM facade: heap + collector plan + cost accounting in one object.

A :class:`VM` is what benchmarks and examples construct: it assembles the
address space, boot image and a collector *plan* (a Beltway configuration
or one of the independent gctk baselines), charges the cost model for
every mutator and collector operation, and produces a
:class:`~repro.sim.stats.RunStats` at the end of a run.

Mutator time is accumulated in counters and flushed into the simulated
clock just before each collection pause and at the end of the run, so the
pause timeline (for the MMU analysis) has mutator progress between pauses
at exactly collection granularity.
"""

from __future__ import annotations

import weakref
from typing import Optional, Union

from ..core.beltway import BeltwayHeap
from ..core.collector import CollectionResult
from ..core.config import BeltwayConfig
from ..errors import ConfigError, OutOfMemory
from ..heap.bootimage import BootImage
from ..heap.objectmodel import ObjectModel, TypeDescriptor, TypeRegistry
from ..heap.space import AddressSpace
from ..sim.clock import Clock
from ..sim.cost import CostModel, DEFAULT_COST_MODEL
from ..sim.locality import NO_LOCALITY, LocalityModel
from ..sim.stats import RunStats
from ..heap.address import WORD_BYTES
from .seam import Seam

#: Frame size used by the scaled experiments (256 B; the workloads are
#: scaled 1024x down from the paper's SPEC runs, see repro.bench.spec).
EXPERIMENT_FRAME_SHIFT = 8
#: The same in bytes: the unit of every heap size the harness searches,
#: sweeps or reports.
FRAME_BYTES = 1 << EXPERIMENT_FRAME_SHIFT

#: Reference slots of boot-image "VM code" ballast.  Jikes RVM's boot
#: image is tens of MB; scaled 1024x it still holds on the order of a
#: thousand reference slots that boundary-barrier collectors (the gctk
#: baselines) rescan at every collection, and that Beltway's frame
#: barrier covers with remembered sets instead (§4.2.1).
DEFAULT_BOOT_BALLAST_SLOTS = 1200


class VM:
    """One simulated Java-like virtual machine instance."""

    #: Set by ``repro.sanitizer.attach_sanitizer``: an object whose
    #: ``observe_mutator(mu)`` is called by every new ``MutatorContext``
    #: (the thin runtime hook the shadow graph needs to see roots).  A
    #: class attribute so the unattached path pays one attribute load
    #: and an ``is None`` test — no instance state, no call.
    mutator_observer = None

    def __init__(
        self,
        heap_bytes: int,
        collector: Union[str, BeltwayConfig] = "25.25.100",
        frame_shift: int = EXPERIMENT_FRAME_SHIFT,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        locality: LocalityModel = NO_LOCALITY,
        debug_verify: bool = False,
        benchmark_name: str = "adhoc",
        boot_ballast_slots: int = DEFAULT_BOOT_BALLAST_SLOTS,
        tier: Optional[str] = None,
    ):
        frame_bytes = 1 << frame_shift
        heap_frames = max(2, heap_bytes // frame_bytes)
        self.heap_bytes = heap_frames * frame_bytes
        #: Where telemetry, profiler, sanitizer and faults attach (§10).
        self.seam = Seam()
        self.space = AddressSpace(heap_frames, frame_shift)
        self.types = TypeRegistry()
        self.model = ObjectModel(self.space, self.types)
        self.boot = BootImage(self.space, self.types, self.model)
        self.boot.alloc_ballast(boot_ballast_slots)
        # Substrate-kernel tier (DESIGN §13): python/cffi/auto, from
        # the ``tier`` argument, then $REPRO_SUBSTRATE_TIER, then "auto".
        from ..kernels import resolve as _resolve_kernels

        self.kernels = _resolve_kernels(tier)
        self.plan = self._make_plan(collector, debug_verify)
        # Mutator fast paths: the plan's compiled store/read closures plus
        # the model's compiled scalar accessors, bound once per VM.
        self._write_ref_field = self.plan.write_ref_field
        self._read_ref_field = self.plan.read_ref_field
        _, self._read_scalar, self._write_scalar = self.model.compile_field_ops()
        self.cost_model = cost_model
        self.locality = locality
        self.clock = Clock()
        self.benchmark_name = benchmark_name
        self.work_units = 0.0
        self.field_reads = 0
        self.field_writes = 0
        self.peak_footprint_frames = 0
        self.peak_remset_entries = 0
        self.post_gc_occupancy = []
        # flush snapshots
        self._flushed_allocs = 0
        self._flushed_alloc_words = 0
        self._flushed_fast = 0
        self._flushed_slow = 0
        self._flushed_reads = 0
        self._flushed_writes = 0
        self._flushed_work = 0.0
        # The plan reaches this VM through a weak reference: a bound
        # method in its listeners would be a cycle, and a finished VM —
        # with its address space — must be freed by reference counting.
        vm = weakref.ref(self)
        self._on_collection = lambda result: vm()._charge_collection(result)
        self.plan.collection_listeners.append(self._on_collection)

    # ------------------------------------------------------------------
    def _make_plan(self, collector, debug_verify: bool):
        if isinstance(collector, BeltwayConfig):
            return BeltwayHeap(
                self.space, self.model, self.boot, collector, debug_verify,
                kernels=self.kernels,
            )
        if not isinstance(collector, str):
            raise ConfigError(f"unsupported collector spec {collector!r}")
        if collector.startswith("gctk:"):
            from ..gctk import make_gctk_plan

            return make_gctk_plan(
                collector[len("gctk:"):],
                self.space,
                self.model,
                self.boot,
                debug_verify,
                kernels=self.kernels,
            )
        config = BeltwayConfig.parse(collector)
        return BeltwayHeap(
            self.space, self.model, self.boot, config, debug_verify,
            kernels=self.kernels,
        )

    @property
    def collector_name(self) -> str:
        return self.plan.name

    # ------------------------------------------------------------------
    # Type definition (boot-time)
    # ------------------------------------------------------------------
    def define_type(self, name: str, nrefs: int = 0, nscalars: int = 0) -> TypeDescriptor:
        return self.boot.define_type(name, nrefs=nrefs, nscalars=nscalars)

    def define_ref_array(self, name: str) -> TypeDescriptor:
        return self.boot.define_ref_array(name)

    def define_scalar_array(self, name: str) -> TypeDescriptor:
        return self.boot.define_scalar_array(name)

    # ------------------------------------------------------------------
    # Mutator operations (cost-charged)
    # ------------------------------------------------------------------
    def alloc(self, desc: TypeDescriptor, length: int = 0) -> int:
        addr = self.plan.alloc(desc, length)
        footprint = self.space.heap_frames_in_use
        if footprint > self.peak_footprint_frames:
            self.peak_footprint_frames = footprint
        return addr

    def write_ref(self, obj: int, index: int, value: int) -> None:
        self.field_writes += 1
        self._write_ref_field(obj, index, value)

    def read_ref(self, obj: int, index: int) -> int:
        self.field_reads += 1
        return self._read_ref_field(obj, index)

    def write_int(self, obj: int, index: int, value: int) -> None:
        self.field_writes += 1
        self._write_scalar(obj, index, value)

    def read_int(self, obj: int, index: int) -> int:
        self.field_reads += 1
        return self._read_scalar(obj, index)

    def work(self, units: float) -> None:
        """Charge benchmark-declared computation (non-memory work)."""
        self.work_units += units

    def collect(self, reason: str = "forced") -> CollectionResult:
        return self.plan.collect(reason)

    def sync_clock(self) -> float:
        """Flush pending mutator work into the clock; returns ``clock.now``.

        Mutator cycles normally reach the clock only at collection pauses
        and at :meth:`finish` — coarse enough for whole-run figures, too
        coarse for per-request latencies.  Request-driven engines call
        this at request boundaries so ``clock.now`` is exact there.  With
        the default locality model the flush schedule does not change any
        cycle total (the multiplier is 1.0), so figure workloads are
        unaffected.
        """
        self._flush_mutator()
        return self.clock.now

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def attach_telemetry(self, bus, snapshot_every: int = 1, profile: bool = False):
        """Publish this VM's events into a telemetry ``bus``; returns the
        :class:`~repro.obs.instrument.Instrumentation` handle.  A VM that
        never attaches runs with no telemetry branches at all."""
        from ..obs import attach  # lazy: keep the obs layer optional

        return attach(self, bus, snapshot_every=snapshot_every, profile=profile)

    # ------------------------------------------------------------------
    # Cost accounting
    # ------------------------------------------------------------------
    def _mutator_multiplier(self, delta_alloc_words: int) -> float:
        footprint_words = self.space.heap_frames_in_use * self.space.frame_words
        return self.locality.multiplier(delta_alloc_words, footprint_words)

    def _flush_mutator(self) -> None:
        plan = self.plan
        cm = self.cost_model
        d_allocs = plan.allocations - self._flushed_allocs
        d_words = plan.allocated_words - self._flushed_alloc_words
        stats = plan.barrier.stats
        d_fast = stats.fast_path - self._flushed_fast
        d_slow = stats.slow_path - self._flushed_slow
        d_reads = self.field_reads - self._flushed_reads
        d_writes = self.field_writes - self._flushed_writes
        d_work = self.work_units - self._flushed_work
        cycles = (
            cm.alloc_object * d_allocs
            + cm.alloc_word * d_words
            + cm.barrier_fast * d_fast
            + cm.barrier_slow * d_slow
            + cm.field_read * d_reads
            + cm.field_write * d_writes
            + cm.work_unit * d_work
        )
        cycles *= self._mutator_multiplier(d_words)
        if cycles:
            self.clock.charge_mutator(cycles)
        self._flushed_allocs = plan.allocations
        self._flushed_alloc_words = plan.allocated_words
        self._flushed_fast = stats.fast_path
        self._flushed_slow = stats.slow_path
        self._flushed_reads = self.field_reads
        self._flushed_writes = self.field_writes
        self._flushed_work = self.work_units

    def _charge_collection(self, result: CollectionResult) -> None:
        self._flush_mutator()
        cycles = self.cost_model.collection_cost(
            copied_objects=result.copied_objects,
            copied_words=result.copied_words,
            scanned_ref_slots=result.scanned_ref_slots,
            root_slots=result.root_slots,
            remset_slots=result.remset_slots,
            freed_frames=result.freed_frames,
            boot_slots_scanned=result.boot_slots_scanned,
        )
        self.clock.charge_pause(
            cycles, result.reason, copied_words=result.copied_words
        )
        entries = len(self.plan.remsets)
        if entries > self.peak_remset_entries:
            self.peak_remset_entries = entries
        self.post_gc_occupancy.append(
            self.plan.live_words_upper_bound * WORD_BYTES
        )

    # ------------------------------------------------------------------
    # Run lifecycle
    # ------------------------------------------------------------------
    def finish(self, completed: bool = True, failure: str = "") -> RunStats:
        """Flush outstanding mutator work and summarise the run."""
        self._flush_mutator()
        plan = self.plan
        results = plan.collections
        return RunStats(
            benchmark=self.benchmark_name,
            collector=self.collector_name,
            heap_bytes=self.heap_bytes,
            completed=completed,
            failure=failure,
            total_cycles=self.clock.total_cycles,
            gc_cycles=self.clock.gc_cycles,
            mutator_cycles=self.clock.mutator_cycles,
            pauses=list(self.clock.pauses),
            allocations=plan.allocations,
            allocated_bytes=plan.allocated_words * WORD_BYTES,
            copied_bytes=sum(r.copied_words for r in results) * WORD_BYTES,
            collections=len(results),
            full_heap_collections=sum(1 for r in results if r.was_full_heap),
            barrier_fast=plan.barrier.stats.fast_path,
            barrier_slow=plan.barrier.stats.slow_path,
            remset_inserts=plan.remsets.inserts,
            peak_remset_entries=self.peak_remset_entries,
            peak_footprint_bytes=self.peak_footprint_frames * self.space.frame_bytes,
            post_gc_occupancy_bytes=list(self.post_gc_occupancy),
        )
