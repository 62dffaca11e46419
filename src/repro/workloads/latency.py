"""Request-latency accounting: the server-side complement of RunStats.

Latency is measured open-loop: ``completion - arrival``, so it includes
queueing delay (a request that arrives mid-pause or behind a backlog waits)
as well as service time.  This is the "observed cost" framing of the
production-GC literature — a collector's pauses matter exactly as much as
they stretch request tails.

Percentiles use the shared nearest-rank definition
(:func:`repro.quantiles.percentile` — the same floats as the pause
analytics and the streaming profiler), computed once at the end of the
run over the full latency population — exact, not streamed, because a run's
request count is modest (10^3–10^5).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

from ..quantiles import percentile


@dataclass
class RequestStats:
    """Request-latency outcome of one server-workload run.

    All latencies are in abstract cycles (the cost model's unit).
    Serialises through ``dataclasses.asdict`` like RunStats, so grid
    cells round-trip it."""

    count: int = 0
    offered: int = 0  # arrivals generated (== count unless the run failed)
    p50_cycles: float = 0.0
    p90_cycles: float = 0.0
    p99_cycles: float = 0.0
    p999_cycles: float = 0.0
    max_cycles: float = 0.0
    mean_cycles: float = 0.0
    total_latency_cycles: float = 0.0
    queue_peak: int = 0  # max requests waiting at any completion
    paused_requests: int = 0  # requests with >= 1 GC pause in their timeline
    sessions_opened: int = 0
    sessions_closed: int = 0
    cache_inserts: int = 0
    cache_expirations: int = 0
    cache_lookups: int = 0
    cache_hits: int = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_latencies(
        cls, latencies: List[float], **fields: Any
    ) -> "RequestStats":
        """Build from the raw per-request latency population."""
        ordered = sorted(latencies)
        n = len(ordered)
        total = float(sum(ordered))
        return cls(
            count=n,
            p50_cycles=percentile(ordered, 0.50),
            p90_cycles=percentile(ordered, 0.90),
            p99_cycles=percentile(ordered, 0.99),
            p999_cycles=percentile(ordered, 0.999),
            max_cycles=ordered[-1] if ordered else 0.0,
            mean_cycles=total / n if n else 0.0,
            total_latency_cycles=total,
            **fields,
        )

    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, float]:
        """Prometheus-style export, merged into ``RunStats.counters()``."""
        return {
            "request_count_total": float(self.count),
            "request_offered_total": float(self.offered),
            "request_latency_p50_cycles": float(self.p50_cycles),
            "request_latency_p90_cycles": float(self.p90_cycles),
            "request_latency_p99_cycles": float(self.p99_cycles),
            "request_latency_p999_cycles": float(self.p999_cycles),
            "request_latency_max_cycles": float(self.max_cycles),
            "request_latency_cycles_total": float(self.total_latency_cycles),
            "request_queue_peak": float(self.queue_peak),
            "request_gc_paused_total": float(self.paused_requests),
            "sessions_opened_total": float(self.sessions_opened),
            "sessions_closed_total": float(self.sessions_closed),
            "cache_inserts_total": float(self.cache_inserts),
            "cache_expirations_total": float(self.cache_expirations),
            "cache_lookups_total": float(self.cache_lookups),
            "cache_hits_total": float(self.cache_hits),
        }

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequestStats":
        return cls(**data)

    def summary_row(self) -> str:
        """One formatted line for console tables (cycles)."""
        return (
            f"requests={self.count:<6} "
            f"p50={self.p50_cycles:10.1f} p99={self.p99_cycles:10.1f} "
            f"p99.9={self.p999_cycles:10.1f} max={self.max_cycles:10.1f} "
            f"queue_peak={self.queue_peak} gc_hit={self.paused_requests}"
        )
