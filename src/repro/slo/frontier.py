"""Throughput–latency frontiers over a ladder of offered rates.

One :func:`sweep_frontier` call runs a server workload at every rate of a
ladder against one (collector, heap) operating point and returns the
frontier: offered rate → request percentiles, GC overhead, and MMU.  All
cells — the measured ladder *and* the per-rate no-GC references the
distillation subtracts — go through the grid executor as **one batch**,
so a warm store replays a whole frontier without executing a single run,
an interrupted sweep resumes from its checkpointed cells, and the ladder
parallelises like any other campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from ..analysis.mmu import mmu
from ..errors import ConfigError
from ..grid.executor import execute_jobs
from ..grid.store import ResultStore
from ..specs import load as load_spec
from ..workloads.model import ServerWorkloadSpec
from .bounds import SLOBound
from .distill import DistilledCost, baseline_heap_bytes
from .distill import distill as _distill

__all__ = ["Frontier", "FrontierPoint", "sweep_frontier"]


@dataclass(frozen=True)
class FrontierPoint:
    """One operating point: the workload at one offered rate."""

    rate_rps: float
    completed: bool
    requests: int
    offered: int
    p50_cycles: float
    p90_cycles: float
    p99_cycles: float
    p999_cycles: float
    max_cycles: float
    mean_cycles: float
    queue_peak: int
    paused_requests: int
    collections: int
    gc_fraction: float
    #: Minimum mutator utilisation at the frontier's window fraction.
    mmu: float
    distilled: Optional[DistilledCost] = None

    def to_dict(self) -> Dict[str, Any]:
        out = {
            "rate_rps": self.rate_rps,
            "completed": self.completed,
            "requests": self.requests,
            "offered": self.offered,
            "p50_cycles": self.p50_cycles,
            "p90_cycles": self.p90_cycles,
            "p99_cycles": self.p99_cycles,
            "p999_cycles": self.p999_cycles,
            "max_cycles": self.max_cycles,
            "mean_cycles": self.mean_cycles,
            "queue_peak": self.queue_peak,
            "paused_requests": self.paused_requests,
            "collections": self.collections,
            "gc_fraction": self.gc_fraction,
            "mmu": self.mmu,
        }
        if self.distilled is not None:
            out["distilled"] = self.distilled.to_dict()
        return out

    def meets(self, slo: SLOBound) -> bool:
        """Point-level SLO check from the recorded fields.

        The MMU clause is checked against this point's stored ``mmu``
        (computed at the *frontier's* window fraction) — declare the
        bound with the same fraction the sweep used.
        """
        if not self.completed:
            return False
        for bound, observed in (
            (slo.p50_cycles, self.p50_cycles),
            (slo.p99_cycles, self.p99_cycles),
            (slo.p999_cycles, self.p999_cycles),
        ):
            if bound is not None and observed > bound:
                return False
        if slo.min_mmu is not None and self.mmu < slo.min_mmu:
            return False
        return True


@dataclass
class Frontier:
    """The full rate ladder of one (workload, collector, heap) cell."""

    benchmark: str
    collector: str
    heap_bytes: int
    scale: float
    seed: int
    mmu_window_fraction: float
    points: List[FrontierPoint] = field(default_factory=list)
    #: Grid accounting of the sweep that produced this frontier.
    executed: int = 0
    cached: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "collector": self.collector,
            "heap_bytes": self.heap_bytes,
            "scale": self.scale,
            "seed": self.seed,
            "mmu_window_fraction": self.mmu_window_fraction,
            "points": [p.to_dict() for p in self.points],
        }

    def knee(self, slo: SLOBound) -> Optional[float]:
        """Highest ladder rate that meets the SLO (None: none does)."""
        sustainable = [p.rate_rps for p in self.points if p.meets(slo)]
        return max(sustainable) if sustainable else None

    def point_lines(self) -> List[str]:
        """Greppable full-precision lines, one per point (CI goldens)."""
        lines = []
        for p in self.points:
            overhead = (
                None if p.distilled is None else p.distilled.overhead_pct
            )
            lines.append(
                f"slo-frontier {self.benchmark}/{self.collector}"
                f"@{p.rate_rps:g}rps: p50={p.p50_cycles!r} "
                f"p99={p.p99_cycles!r} p99.9={p.p999_cycles!r} "
                f"mmu={p.mmu!r} overhead_pct={overhead!r}"
            )
        return lines


def _point_from_stats(stats, rate: float, window_fraction: float,
                      distilled: Optional[DistilledCost]) -> FrontierPoint:
    req = stats.requests
    total = stats.total_cycles
    point_mmu = (
        mmu(stats.pause_intervals(), total, window_fraction * total)
        if total > 0
        else 1.0
    )
    return FrontierPoint(
        rate_rps=rate,
        completed=stats.completed,
        requests=req.count if req else 0,
        offered=req.offered if req else 0,
        p50_cycles=req.p50_cycles if req else 0.0,
        p90_cycles=req.p90_cycles if req else 0.0,
        p99_cycles=req.p99_cycles if req else 0.0,
        p999_cycles=req.p999_cycles if req else 0.0,
        max_cycles=req.max_cycles if req else 0.0,
        mean_cycles=req.mean_cycles if req else 0.0,
        queue_peak=req.queue_peak if req else 0,
        paused_requests=req.paused_requests if req else 0,
        collections=stats.collections,
        gc_fraction=stats.gc_fraction,
        mmu=point_mmu,
        distilled=distilled,
    )


def sweep_frontier(
    spec_ref,
    collector: str,
    heap_bytes: int,
    rates: Sequence[float],
    *,
    scale: float = 1.0,
    seed: int = 13,
    store: Optional[ResultStore] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    bus=None,
    distill: bool = True,
    mmu_window_fraction: float = 0.01,
    cell_runner=None,
    force_pool: bool = False,
) -> Frontier:
    """The throughput–latency frontier of one (collector, heap) point.

    ``spec_ref`` is anything :func:`repro.specs.load` resolves to a
    :class:`~repro.workloads.model.ServerWorkloadSpec`; ``scale`` shrinks
    the observation window before the ladder is applied, so every rate
    runs the same scaled scenario.  ``rates`` is deduplicated and sorted
    ascending.  With ``distill`` (default), each rate also runs the no-GC
    reference cell and the point carries a
    :class:`~repro.slo.distill.DistilledCost`.  With a ``bus``, one
    ``slo.point`` event is emitted per point.
    """
    spec = load_spec(spec_ref, scale)
    if not isinstance(spec, ServerWorkloadSpec):
        raise ConfigError(
            f"frontier sweeps need a server workload, got {type(spec).__name__}"
        )
    ladder = sorted({float(r) for r in rates})
    if not ladder:
        raise ConfigError("frontier sweeps need at least one rate")
    for rate in ladder:
        if rate <= 0:
            raise ConfigError(f"offered rates must be positive, got {rate:g}")

    jobs = [
        (spec.with_rate(rate), collector, heap_bytes, 1.0, seed)
        for rate in ladder
    ]
    base_heap = baseline_heap_bytes(spec)
    if distill:
        jobs.extend(
            (spec.with_rate(rate), collector, base_heap, 1.0, seed)
            for rate in ladder
        )
    report = execute_jobs(
        jobs,
        store=store,
        parallel=parallel,
        max_workers=max_workers,
        bus=bus,
        cell_runner=cell_runner,
        force_pool=force_pool,
    )
    measured = report.results[: len(ladder)]
    references = report.results[len(ladder):] if distill else [None] * len(ladder)

    frontier = Frontier(
        benchmark=spec.name,
        collector=collector,
        heap_bytes=heap_bytes,
        scale=scale,
        seed=seed,
        mmu_window_fraction=mmu_window_fraction,
        executed=len(report.executed),
        cached=report.cached,
    )
    for i, (rate, stats, ref) in enumerate(zip(ladder, measured, references)):
        cost = _distill(stats, ref) if distill else None
        point = _point_from_stats(stats, rate, mmu_window_fraction, cost)
        frontier.points.append(point)
        if bus is not None:
            payload = {
                "benchmark": spec.name,
                "collector": collector,
                "heap_bytes": heap_bytes,
                "seed": seed,
                "rate_rps": rate,
                "completed": stats.completed,
                "p50_cycles": point.p50_cycles,
                "p99_cycles": point.p99_cycles,
                "p999_cycles": point.p999_cycles,
                "mmu": point.mmu,
                "gc_fraction": point.gc_fraction,
            }
            if cost is not None:
                payload["overhead_pct"] = cost.overhead_pct
                payload["p99_inflation"] = cost.p99_inflation
            bus.emit("slo.point", float(i), payload)
    return frontier
