"""``attach_profiler(vm)``: wire the GC profiler to a VM.

The profiler is a bus subscriber, like the JSONL and counter sinks: it
consumes ``gc.start`` / ``gc.end`` / ``heap.snapshot`` / ``run.*``
events (from a shared harness bus, or from a private bus + standard
instrumentation when attached standalone) and adds exactly two direct
hooks of its own, both wrapped through ``vm.seam``:

* ``vm.alloc`` — birth-stamps every allocation with the bytes-allocated
  clock (``MutatorContext`` resolves ``vm.alloc`` per call, so contexts
  created before attach are covered too);
* ``space.release_frame`` — walks the frame's stamped objects *before*
  the space zeroes it, reading raw status words to split forwarded
  survivors from deaths (the one moment lifetime outcomes are visible).

Layering (DESIGN.md §12): the profiler reads counters, the clock, frame
metadata and raw frame storage; it never issues ``space.load``/``store``,
never draws from the benchmark RNG, and never mutates collector state —
so an attached run's ``RunStats`` are bit-identical to an unprofiled
run's, and a VM that never attaches executes untouched code (both pinned
against the golden counters, like the sanitizer before it).
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from ...analysis.mmu import mmu_curve, worst_window
from ...analysis.pauses import summarise
from ...heap.address import WORD_BYTES
from ..bus import TelemetryBus
from ..instrument import attach
from .attribution import CostAttribution
from .demographics import CollectionTally, LifetimeCensus
from .geometry import GeometryTimeline
from .report import DEFAULT_STREAM_WINDOWS, ProfileReport, aggregate_by_label


class Profiler:
    """One VM's lifetime census, geometry timeline and cost attribution;
    pause analytics are computed post-hoc in :meth:`finalise`."""

    def __init__(self, vm, bus: Optional[TelemetryBus] = None):
        self.vm = vm
        if bus is None:
            bus = TelemetryBus()
            self._inst = attach(vm, bus)
        else:
            self._inst = None
        self.bus = bus
        self.census = LifetimeCensus(vm.space.frame_shift)
        self.geometry = GeometryTimeline()
        self.attribution = CostAttribution(vm.cost_model)
        self.survival_rows: List[dict] = []
        self._tally = CollectionTally()
        self._geometry_seq = 0
        self._identity = {}
        self._phases = {}
        self._handles = [
            vm.seam.wrap(vm, "alloc", self._stamp_births),
            vm.seam.wrap(vm.space, "release_frame", self._resolve_stamps),
        ]
        bus.subscribe(self)

    # ------------------------------------------------------------------
    # Direct hooks (wrapper factories for ``vm.seam``, DESIGN §10)
    # ------------------------------------------------------------------
    def _stamp_births(self, inner):
        plan = self.vm.plan
        birth = self.census.birth

        def alloc(desc, length: int = 0) -> int:
            addr = inner(desc, length)
            birth(
                addr,
                plan.allocated_words * WORD_BYTES,
                desc.size_words(length) * WORD_BYTES,
            )
            return addr

        return alloc

    def _resolve_stamps(self, inner):
        census = self.census
        plan = self.vm.plan
        shift = self.vm.space.frame_shift

        def release_frame(frame) -> None:
            # Resolve stamps before the inner release zeroes the storage.
            census.frame_released(
                frame,
                frame.index << shift,
                plan.allocated_words * WORD_BYTES,
                self._tally,
            )
            inner(frame)

        return release_frame

    # ------------------------------------------------------------------
    # Bus subscriber
    # ------------------------------------------------------------------
    def accept(self, event) -> None:
        kind = event.kind
        if kind == "gc.end":
            data = event.data
            self.attribution.on_gc_end(data)
            self._flush_tally(data["id"], event.time)
            self._sample_geometry(event.time, "gc.end")
        elif kind == "gc.start":
            # Releases between collections (empty-increment flips) carry
            # no stamps; anything tallied belongs to the collection now
            # starting, so a fresh tally per gc.start is sufficient.
            self._tally = CollectionTally()
            self._sample_geometry(event.time, "gc.start")
        elif kind == "heap.snapshot":
            self._sample_geometry(event.time, "heap.snapshot")
        elif kind == "run.start":
            self._identity = dict(event.data)
        elif kind == "run.end":
            self._phases = dict(event.data.get("phases", {}))

    def _flush_tally(self, collection: int, time: float) -> None:
        rows = self._tally.rows(collection)
        self._tally = CollectionTally()
        if not rows:
            return
        self.survival_rows.extend(rows)
        for row in rows:
            self.bus.emit("profiler.survival", time, row)

    def _sample_geometry(self, time: float, trigger: str) -> None:
        row = self.geometry.sample(time, trigger, self.vm.space)
        self._geometry_seq += 1
        self.bus.emit("profiler.geometry", time, {
            "sample": self._geometry_seq,
            "trigger": trigger,
            "frames_in_use": row["frames_in_use"],
            "frames_total": row["frames_total"],
            "occupancy": row["occupancy"],
        })

    # ------------------------------------------------------------------
    def finalise(self, stats) -> ProfileReport:
        """Close the census and assemble the :class:`ProfileReport`.

        ``stats`` is the run's :class:`~repro.sim.stats.RunStats`; the
        profiler is left attached (callers detach separately if the VM
        lives on).
        """
        total = stats.total_cycles
        pauses = stats.pause_intervals()
        worst_windows = []
        for window in DEFAULT_STREAM_WINDOWS:
            if not 0 < window < total:
                continue  # clamps to the whole run: nothing to locate
            util, start, paused = worst_window(pauses, total, window)
            if util < 1.0:
                worst_windows.append({
                    "window": window,
                    "utilisation": util,
                    "start": start,
                    "paused": paused,
                })
        self.census.finalise(self.vm.plan.allocated_words * WORD_BYTES)
        report = ProfileReport(
            benchmark=stats.benchmark,
            collector=stats.collector,
            heap_bytes=stats.heap_bytes,
            scale=float(self._identity.get("scale", 1.0)),
            seed=int(self._identity.get("seed", 0)),
            completed=stats.completed,
            total_cycles=total,
            gc_cycles=stats.gc_cycles,
            allocated_bytes=stats.allocated_bytes,
            demographics=self.census.summary(),
            survival_curve=self.census.survival_curve(),
            survival_by_collection=list(self.survival_rows),
            survival_by_label=aggregate_by_label(self.survival_rows),
            pauses=dataclasses.asdict(summarise(pauses)),
            mmu_curve=mmu_curve(pauses, total, DEFAULT_STREAM_WINDOWS),
            worst_windows=worst_windows,
            geometry=self.geometry.rows,
            geometry_labels=self.geometry.labels,
            attribution=self.attribution.rows,
            attribution_totals=self.attribution.totals(),
            phases=dict(self._phases),
        )
        return report

    def detach(self) -> None:
        """Remove the hooks; the VM executes untouched code again."""
        for handle in self._handles:
            handle.remove()
        self.bus.unsubscribe(self)
        if self._inst is not None:
            self._inst.detach()


def attach_profiler(vm, bus: Optional[TelemetryBus] = None) -> Profiler:
    """Attach a :class:`Profiler` to ``vm`` and return it (public API).

    With ``bus=None`` the profiler builds a private bus and attaches
    standard instrumentation to feed it (standalone use on a hand-built
    VM; a heap snapshot after every collection).  The harness passes its
    shared bus instead, so one set of wrappers serves tracing and
    profiling together.  Attach before the
    workload allocates — objects born earlier are invisible to the
    census (the boot image deliberately so).
    """
    return Profiler(vm, bus=bus)
