"""Run statistics: everything a paper table or figure consumes.

A :class:`RunStats` is the complete, serialisable outcome of executing one
benchmark against one collector configuration at one heap size.  The
analysis layer never reaches back into VM internals — every figure in the
paper is derived from these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .clock import PauseRecord
from .cost import cycles_to_seconds


@dataclass
class RunStats:
    """Outcome of one (benchmark, collector, heap size) run."""

    benchmark: str
    collector: str
    heap_bytes: int
    completed: bool = True
    failure: str = ""

    # time (cycles)
    total_cycles: float = 0.0
    gc_cycles: float = 0.0
    mutator_cycles: float = 0.0
    pauses: List[PauseRecord] = field(default_factory=list)

    # volume
    allocations: int = 0
    allocated_bytes: int = 0
    copied_bytes: int = 0
    collections: int = 0
    full_heap_collections: int = 0

    # write barrier
    barrier_fast: int = 0
    barrier_slow: int = 0

    # remsets
    remset_inserts: int = 0
    peak_remset_entries: int = 0

    # heap shape
    peak_footprint_bytes: int = 0
    #: bytes occupied by heap objects right after each collection — the
    #: reclamation floor; incomplete configurations show a rising floor
    #: (retained cross-increment cycles)
    post_gc_occupancy_bytes: List[int] = field(default_factory=list)

    #: Request-latency outcome (:class:`repro.workloads.latency.RequestStats`)
    #: for open-loop server workloads; ``None`` for the closed-loop SPEC
    #: replays.  Typed loosely so the sim layer stays independent of the
    #: workloads layer; the grid store rebuilds it on deserialisation.
    requests: Optional[object] = None

    # ------------------------------------------------------------------
    @property
    def gc_fraction(self) -> float:
        """Fraction of total time in GC (Fig. 1a)."""
        return self.gc_cycles / self.total_cycles if self.total_cycles else 0.0

    @property
    def total_seconds(self) -> float:
        return cycles_to_seconds(self.total_cycles)

    @property
    def gc_seconds(self) -> float:
        return cycles_to_seconds(self.gc_cycles)

    @property
    def max_pause_cycles(self) -> float:
        return max((p.duration for p in self.pauses), default=0.0)

    def late_occupancy_floor(self) -> int:
        """Lowest post-collection occupancy over the last half of the
        run's collections (0 if fewer than two collections)."""
        series = self.post_gc_occupancy_bytes
        if len(series) < 2:
            return 0
        return min(series[len(series) // 2:])

    def pause_intervals(self) -> List[Tuple[float, float]]:
        """(start, end) pairs for the MMU computation."""
        return [(p.start, p.end) for p in self.pauses]

    def counters(self) -> Dict[str, float]:
        """Prometheus-style ``name -> value`` export of this run.

        This is the counter snapshot the telemetry layer publishes in its
        ``run.end`` event and the analysis layer consumes instead of
        reaching into VM internals; names follow the ``*_total`` counter /
        bare-name gauge convention.
        """
        durations = [p.duration for p in self.pauses]
        counters = {
            "run_completed": float(self.completed),
            "run_total_cycles": float(self.total_cycles),
            "run_gc_cycles": float(self.gc_cycles),
            "run_mutator_cycles": float(self.mutator_cycles),
            "alloc_objects_total": float(self.allocations),
            "alloc_bytes_total": float(self.allocated_bytes),
            "gc_collections_total": float(self.collections),
            "gc_full_heap_total": float(self.full_heap_collections),
            "gc_copied_bytes_total": float(self.copied_bytes),
            "gc_pauses_total": float(len(durations)),
            "gc_pause_cycles_total": float(sum(durations)),
            "gc_max_pause_cycles": float(max(durations, default=0.0)),
            "barrier_fast_total": float(self.barrier_fast),
            "barrier_slow_total": float(self.barrier_slow),
            "remset_inserts_total": float(self.remset_inserts),
            "remset_peak_entries": float(self.peak_remset_entries),
            "heap_peak_footprint_bytes": float(self.peak_footprint_bytes),
        }
        if self.requests is not None:
            counters.update(self.requests.counters())
        return counters

    def summary_row(self) -> str:
        """One formatted line for console tables."""
        status = "ok" if self.completed else f"FAIL({self.failure})"
        return (
            f"{self.benchmark:<10} {self.collector:<14} "
            f"{self.heap_bytes / 1024:8.1f}KB  GCs={self.collections:<4} "
            f"gc={self.gc_seconds:7.3f}s total={self.total_seconds:7.3f}s "
            f"gc%={100 * self.gc_fraction:5.1f} {status}"
        )
