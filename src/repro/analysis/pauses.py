"""Pause-time distribution analysis (beyond the single max-pause number).

The paper motivates MMU precisely because "simple measures, such as the
length of the longest GC pause or a distribution of pause times, do not
take into account clustering of GCs" (§4.3) — but the simple measures
are still the first thing one looks at, so the percentile summary lives
here.  It reads a list of ``(start, end)`` pause intervals: from
``RunStats.pause_intervals()`` for a live run, or from
``repro.obs.pauses_from_events`` over a telemetry stream (the ``gc.end``
events of a ``--trace`` JSONL file).  Clustering itself is measured by
:func:`repro.analysis.mmu.worst_window`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

from ..quantiles import percentile

Pause = Tuple[float, float]

#: Re-exported for callers that historically imported it from here; the
#: definition lives in :mod:`repro.quantiles` so request-latency and
#: pause percentiles are one implementation.
__all__ = ["PauseSummary", "percentile", "summarise"]


@dataclass(frozen=True)
class PauseSummary:
    """Percentile summary of a pause timeline."""

    count: int
    total: float
    mean: float
    p50: float
    p90: float
    p99: float
    max: float


def summarise(pauses: Sequence[Pause]) -> PauseSummary:
    durations = sorted(end - start for start, end in pauses)
    if not durations:
        return PauseSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    total = sum(durations)
    return PauseSummary(
        count=len(durations),
        total=total,
        mean=total / len(durations),
        p50=percentile(durations, 0.50),
        p90=percentile(durations, 0.90),
        p99=percentile(durations, 0.99),
        max=durations[-1],
    )
