"""Pause-time distribution analysis (beyond the single max-pause number).

The paper motivates MMU precisely because "simple measures, such as the
length of the longest GC pause or a distribution of pause times, do not
take into account clustering of GCs" (§4.3) — but the simple measures
are still the first thing one looks at, so they are provided here:
percentiles, histograms, and the paper's bounded-mutator-progress view
(the longest stretch of consecutive GC work per mutator progress).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..quantiles import percentile

Pause = Tuple[float, float]

#: Re-exported for callers that historically imported it from here; the
#: definition lives in :mod:`repro.quantiles` so request-latency and
#: pause percentiles are one implementation.
__all__ = [
    "PauseSummary",
    "histogram",
    "percentile",
    "render_histogram",
    "summarise",
    "summarise_events",
    "worst_cluster",
]


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

    def row(self) -> str:
        return (
            f"n={self.count} total={self.total:.0f} mean={self.mean:.0f} "
            f"p50={self.p50:.0f} p90={self.p90:.0f} p99={self.p99:.0f} "
            f"max={self.max:.0f}"
        )


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


def summarise_events(events: Sequence[object]) -> PauseSummary:
    """Percentile summary straight from a telemetry event stream.

    Accepts what :func:`repro.obs.load_jsonl` returns (flat dicts) or
    :class:`~repro.obs.events.Event` objects: the pause timeline is read
    from the ``gc.end`` events, so figures can be regenerated from a
    ``--trace`` JSONL file without re-running the benchmark.
    """
    from ..obs import pauses_from_events

    return summarise(pauses_from_events(events))


def histogram(
    pauses: Sequence[Pause], buckets: int = 8
) -> List[Tuple[float, float, int]]:
    """(lo, hi, count) buckets, log-spaced from the min to the max pause."""
    durations = [end - start for start, end in pauses if end > start]
    if not durations:
        return []
    lo, hi = min(durations), max(durations)
    if hi <= lo:
        return [(lo, hi, len(durations))]
    step = (hi / lo) ** (1.0 / buckets)
    edges = [lo * step ** i for i in range(buckets + 1)]
    edges[-1] = hi  # guard rounding
    out = []
    for i in range(buckets):
        count = sum(
            1
            for d in durations
            if edges[i] <= d <= edges[i + 1]
            and (i == buckets - 1 or d < edges[i + 1])
        )
        out.append((edges[i], edges[i + 1], count))
    return out


def worst_cluster(
    pauses: Sequence[Pause], window: float, total_time: float
) -> float:
    """Most GC time packed into any window of the given length — the
    clustering effect MMU exposes, as a raw number."""
    if not pauses:
        return 0.0
    worst = 0.0
    for anchor, _ in pauses:
        t0 = min(anchor, max(0.0, total_time - window))
        t1 = t0 + window
        packed = sum(
            max(0.0, min(end, t1) - max(start, t0)) for start, end in pauses
        )
        worst = max(worst, packed)
    return worst


def render_histogram(pauses: Sequence[Pause], buckets: int = 8) -> str:
    rows = histogram(pauses, buckets)
    if not rows:
        return "(no pauses)"
    peak = max(count for _, _, count in rows) or 1
    lines = []
    for lo, hi, count in rows:
        bar = "#" * int(round(20 * count / peak))
        lines.append(f"{lo:10.0f} - {hi:10.0f}  {bar:<20s} {count}")
    return "\n".join(lines)
