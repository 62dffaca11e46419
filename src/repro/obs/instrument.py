"""Attach-time VM instrumentation: where telemetry events come from.

The fast paths of this repository (the compiled mutator store loop, the
inlined Cheney trace) must stay bit-identical and unslowed when nobody is
observing, so instrumentation is **attach-time wrapping**, not in-line
hooks: :func:`attach` wraps a VM's collection entry points, frame
acquisition, and (optionally, for profiling) its barriered store path as
instance attributes through ``vm.seam``.  A VM that was never attached
executes code with no telemetry branches at all — that is the "compiled
out when disabled" guarantee the golden-counter tests pin down.

The layering rule (DESIGN.md §10): instrumentation *reads* counters and
the simulated clock and *never* issues loads/stores, draws from the
benchmark RNG, or mutates collector state.

Event flow per collection::

    plan.collect(reason)            -> gc.start   (wrapper, before work)
      ... copying trace ...
      collection_listeners fire     -> gc.end, remset.batch   (listener,
                                       after the VM charged the pause)
      every Nth collection          -> heap.snapshot
    space.acquire_frame(...)        -> alloc.region (any region rollover)
    run end                         -> phase* , run.end  (harness-driven)
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..heap.address import WORD_BYTES
from .bus import TelemetryBus


def attach(
    vm,
    bus: TelemetryBus,
    snapshot_every: int = 1,
    profile: bool = False,
) -> "Instrumentation":
    """Wire ``vm`` to publish telemetry into ``bus``; returns the handle.

    ``snapshot_every`` emits a ``heap.snapshot`` event after every Nth
    collection; ``0`` disables periodic snapshots (``snapshot_now`` still
    works).  ``profile=True`` additionally wraps the barriered store path
    and the verifier with host timers — per-store overhead, so only the
    *split* of the resulting phase breakdown is meaningful.
    """
    return Instrumentation(vm, bus, snapshot_every=snapshot_every, profile=profile)


class Instrumentation:
    """One VM's telemetry hookup; owns the wrappers and the phase timers."""

    def __init__(
        self,
        vm,
        bus: TelemetryBus,
        snapshot_every: int = 1,
        profile: bool = False,
    ):
        if snapshot_every < 0:
            raise ValueError(
                f"snapshot_every must be >= 0 (0 disables periodic "
                f"snapshots), got {snapshot_every}"
            )
        self.vm = vm
        self.bus = bus
        self.snapshot_every = snapshot_every
        self.profile = profile
        #: Host wall time per phase; ``mutator`` and ``total`` are filled
        #: by :meth:`end`.  ``barrier``/``verify`` stay 0.0 unless
        #: ``profile=True`` wrapped their per-call timers.
        self.phases: Dict[str, float] = {
            "mutator": 0.0, "barrier": 0.0, "collect": 0.0,
            "verify": 0.0, "total": 0.0,
        }
        self._since_snapshot = 0
        self._last_inserts = 0
        self._gc_seq = 0
        #: Host time the current outermost collection was entered, else None.
        self._entry_wall: Optional[float] = None
        seam = vm.seam
        self._handles = [
            seam.around_collections(vm.plan, self._gc_begin, self._gc_end),
            seam.wrap(vm.space, "acquire_frame", self._emit_regions),
        ]
        if profile:
            self._handles += [
                seam.wrap(vm, "_write_ref_field", self._timed("barrier")),
                seam.wrap(vm.plan, "verify", self._timed("verify")),
            ]
        vm.plan.collection_listeners.append(self._on_collection)

    # ------------------------------------------------------------------
    # Wrapper factories (installed and removed through ``vm.seam``)
    # ------------------------------------------------------------------
    def _gc_begin(self, reason: str) -> None:
        vm = self.vm
        space = vm.space
        self._gc_seq += 1
        self.bus.emit("gc.start", vm.clock.now, {
            "seq": self._gc_seq,
            "reason": reason,
            "heap_frames_in_use": space.heap_frames_in_use,
            "heap_frames": space.heap_frames,
            "reserve_frames": self._reserve_frames(),
        })
        self._entry_wall = time.perf_counter()

    def _gc_end(self) -> None:
        self.phases["collect"] += time.perf_counter() - self._entry_wall
        self._entry_wall = None

    def _reserve_frames(self) -> int:
        current = getattr(self.vm.plan, "current_reserve_frames", None)
        return current() if current is not None else 0

    def _emit_regions(self, inner):
        space = self.vm.space
        bus = self.bus
        clock = self.vm.clock

        def acquire_frame(space_name, boot=False):
            frame = inner(space_name, boot)
            bus.emit("alloc.region", clock.now, {
                "frame": frame.index,
                "space": space_name,
                "heap_frames_in_use": space.heap_frames_in_use,
            })
            return frame

        return acquire_frame

    def _timed(self, phase: str):
        """Factory charging the wrapped call's host time to ``phase``
        (``profile=True``: the barriered store path and the verifier)."""
        phases = self.phases
        perf = time.perf_counter

        def make(inner):
            def timed(*args, **kwargs):
                t0 = perf()
                try:
                    return inner(*args, **kwargs)
                finally:
                    phases[phase] += perf() - t0

            return timed

        return make

    # ------------------------------------------------------------------
    # Detach: return the VM to the untouched-code path
    # ------------------------------------------------------------------
    def detach(self) -> None:
        """Remove every wrapper and listener this attachment installed.

        After ``detach`` the VM executes structurally untouched code
        again (the seam deletes the instance attributes it added), so
        fixed-seed counters from that point on are bit-identical to a VM
        that was never attached.  Safe to call twice, and in any order
        relative to other attachments.
        """
        for handle in self._handles:
            handle.remove()
        listeners = self.vm.plan.collection_listeners
        if self._on_collection in listeners:
            listeners.remove(self._on_collection)

    # ------------------------------------------------------------------
    # Collection listener
    # ------------------------------------------------------------------
    def _on_collection(self, result) -> None:
        """Emit gc.end + remset.batch; appended *after* the VM's own
        listener, so the pause is already on the clock when this runs."""
        vm = self.vm
        now = vm.clock.now
        pauses = vm.clock.pauses
        if pauses:
            pause = pauses[-1]
            pause_start, pause_end = pause.start, pause.end
        else:  # listener attached on a bare plan without a VM clock
            pause_start = pause_end = now
        # Host wall time from collection entry to this result's emission
        # (a batched collection's auxiliary results report partial times).
        entered = self._entry_wall
        wall_s = time.perf_counter() - entered if entered is not None else 0.0
        self.bus.emit("gc.end", now, {
            "id": result.collection_id,
            "reason": result.reason,
            "belts": list(result.belts_collected),
            "increments": result.increments_collected,
            "from_frames": result.from_frames,
            "copied_objects": result.copied_objects,
            "copied_words": result.copied_words,
            "copied_bytes": result.copied_words * WORD_BYTES,
            "freed_frames": result.freed_frames,
            "remset_slots": result.remset_slots,
            "full_heap": result.was_full_heap,
            # Enrichment keys (optional per schema; see GC_END_ENRICHMENT):
            # the work counters the profiler's cost attribution decomposes
            # each pause into, exactly mirroring CostModel.collection_cost.
            "from_words": result.from_words,
            "scanned_objects": result.scanned_objects,
            "scanned_ref_slots": result.scanned_ref_slots,
            "root_slots": result.root_slots,
            "boot_slots_scanned": result.boot_slots_scanned,
            "pause_start": pause_start,
            "pause_end": pause_end,
            "pause_cycles": pause_end - pause_start,
            "heap_frames_in_use": vm.space.heap_frames_in_use,
            "reserve_frames": result.reserve_frames,
            "wall_s": wall_s,
        })
        remsets = vm.plan.remsets
        inserts = remsets.inserts
        self.bus.emit("remset.batch", now, {
            "inserts": inserts - self._last_inserts,
            "drained_slots": result.remset_slots,
            "dropped_entries": result.remset_entries_dropped,
            "entries": len(remsets),
        })
        self._last_inserts = inserts
        if self.snapshot_every:
            self._since_snapshot += 1
            if self._since_snapshot >= self.snapshot_every:
                self.snapshot_now()
                self._since_snapshot = 0

    # ------------------------------------------------------------------
    # Harness-driven events
    # ------------------------------------------------------------------
    def snapshot_now(self) -> Dict[str, float]:
        """Emit (and return the payload of) a heap-occupancy snapshot."""
        vm = self.vm
        plan = vm.plan
        space = vm.space
        data = {
            "frames_in_use": space.heap_frames_in_use,
            "frames_total": space.heap_frames,
            "occupied_words": plan.live_words_upper_bound,
            "remset_entries": len(plan.remsets),
            "allocations": plan.allocations,
        }
        self.bus.emit("heap.snapshot", vm.clock.now, data)
        return data

    def begin(self, scale: float = 1.0, seed: int = 0) -> None:
        """Emit run.start for this VM's (benchmark, collector, heap)."""
        vm = self.vm
        self.bus.emit("run.start", vm.clock.now, {
            "benchmark": vm.benchmark_name,
            "collector": vm.collector_name,
            "heap_bytes": vm.heap_bytes,
            "scale": scale,
            "seed": seed,
        })

    def end(self, stats, total_wall_s: Optional[float] = None) -> Dict[str, float]:
        """Finalise phases, emit phase events and run.end; returns phases.

        ``stats`` is the run's :class:`~repro.sim.stats.RunStats`;
        ``total_wall_s`` is the harness-measured wall time of the whole
        run (mutator time is the remainder after barrier + collect).
        """
        phases = self.phases
        if total_wall_s is not None:
            phases["total"] = total_wall_s
            phases["mutator"] = max(
                0.0, total_wall_s - phases["barrier"] - phases["collect"]
            )
        now = self.vm.clock.now
        # Flush mutator remset inserts since the last collection, so the
        # per-batch inserts telescope exactly to the run's insert total.
        remsets = self.vm.plan.remsets
        inserts = remsets.inserts
        if inserts != self._last_inserts:
            self.bus.emit("remset.batch", now, {
                "inserts": inserts - self._last_inserts,
                "drained_slots": 0,
                "dropped_entries": 0,
                "entries": len(remsets),
            })
            self._last_inserts = inserts
        for name in ("mutator", "barrier", "collect", "verify", "total"):
            self.bus.emit("phase", now, {"name": name, "wall_s": phases[name]})
        counters = stats.counters()
        counters.update(self.vm.plan.barrier.stats.counters())
        counters.update(self.vm.plan.remsets.counters())
        self.bus.emit("run.end", now, {
            "completed": stats.completed,
            "failure": stats.failure,
            "counters": counters,
            "phases": dict(phases),
        })
        return dict(phases)
