"""Minimum mutator utilisation (Cheng & Blelloch), for Fig. 11.

Mutator utilisation over an interval [t0, t1) is the fraction of that
interval the mutator (not the collector) was running.  A point (w, m)
lies on the MMU curve if every window of length w inside the run has
utilisation at least m.  MMU curves are monotonically non-decreasing in
w; the x-intercept is the maximum pause and the asymptote is overall
throughput (§4.3) — properties the tests assert.

The minimum over windows of a fixed length is attained at a window whose
start coincides with a pause start (sliding the window left from there
can only add pause time at the front faster than it removes at the back),
so the implementation evaluates only those O(n) anchors with prefix sums,
O(n log n) overall per window length.
"""

from __future__ import annotations

import bisect
from typing import List, Sequence, Tuple

Pause = Tuple[float, float]


def pause_time_in(
    starts: Sequence[float],
    ends: Sequence[float],
    prefix: Sequence[float],
    t0: float,
    t1: float,
) -> float:
    """Total pause time inside [t0, t1), given sorted pauses + prefix sums."""
    if t1 <= t0:
        return 0.0
    # Pauses overlapping [t0, t1) are exactly indices [i, j): any pause
    # straddling the window has end > t0 and start < t1, so falls inside.
    i = bisect.bisect_right(ends, t0)  # first pause ending after t0
    j = bisect.bisect_left(starts, t1)  # first pause starting at/after t1
    if i >= j:
        return 0.0
    total = prefix[j] - prefix[i]
    # Clip the partial pause at the left edge.
    if i < j and starts[i] < t0:
        total -= t0 - starts[i]
    # Clip the partial pause at the right edge.
    if j > 0 and ends[j - 1] > t1:
        total -= ends[j - 1] - t1
    return max(0.0, total)


def worst_window(
    pauses: Sequence[Pause], total_time: float, window: float
) -> Tuple[float, float, float]:
    """``(utilisation, start, paused)`` of the minimum-utilisation window
    of length ``window``: where it sits and the GC time packed into it.
    Of several windows attaining the minimum, the earliest."""
    if total_time <= 0:
        return 1.0, 0.0, 0.0
    window = min(window, total_time)
    if window <= 0:
        return (0.0 if pauses else 1.0), 0.0, 0.0
    starts = [p[0] for p in pauses]
    ends = [p[1] for p in pauses]
    prefix = [0.0]
    for s, e in pauses:
        prefix.append(prefix[-1] + (e - s))
    # Candidate anchors: windows starting at each pause start, windows
    # ending at each pause end, and the two run boundaries.
    anchors = [0.0, total_time - window]
    anchors.extend(starts)
    anchors.extend(e - window for e in ends)
    best = (1.0, 0.0, 0.0)
    for t0 in anchors:
        t0 = min(max(t0, 0.0), total_time - window)
        paused = pause_time_in(starts, ends, prefix, t0, t0 + window)
        # Tuple order: lowest utilisation, then earliest start.
        best = min(best, (1.0 - paused / window, t0, paused))
    return max(0.0, best[0]), best[1], best[2]


def mmu(pauses: Sequence[Pause], total_time: float, window: float) -> float:
    """Minimum mutator utilisation over all windows of length ``window``."""
    return worst_window(pauses, total_time, window)[0]


def mmu_curve(
    pauses: Sequence[Pause], total_time: float, windows: Sequence[float]
) -> List[Tuple[float, float]]:
    """(window, MMU) points for the given window lengths."""
    return [(w, mmu(pauses, total_time, w)) for w in windows]


def max_pause(pauses: Sequence[Pause]) -> float:
    return max((e - s for s, e in pauses), default=0.0)


def overall_utilisation(pauses: Sequence[Pause], total_time: float) -> float:
    """The MMU asymptote: fraction of the whole run spent in the mutator."""
    if total_time <= 0:
        return 1.0
    paused = sum(e - s for s, e in pauses)
    return 1.0 - paused / total_time


def mmu_from_events(
    events: Sequence[object], total_time: float, window: float
) -> float:
    """:func:`mmu` over the pause timeline of a telemetry event stream
    (flat dicts from :func:`repro.obs.load_jsonl` or ``Event`` objects)."""
    from ..obs import pauses_from_events

    return mmu(pauses_from_events(events), total_time, window)


def mmu_curve_from_events(
    events: Sequence[object], total_time: float, windows: Sequence[float]
) -> List[Tuple[float, float]]:
    """:func:`mmu_curve` from a telemetry event stream."""
    from ..obs import pauses_from_events

    return mmu_curve(pauses_from_events(events), total_time, windows)


def utilisation_from_counters(snapshot) -> float:
    """Overall mutator utilisation from a Prometheus-style counter
    snapshot (``CounterSink.snapshot()`` or a run's counter export):
    ``1 - gc_pause_cycles_total / run_total_cycles``."""
    total = float(snapshot.get("run_total_cycles", 0.0))
    if total <= 0:
        return 1.0
    paused = float(snapshot.get("gc_pause_cycles_total", 0.0))
    return 1.0 - paused / total


def default_windows(total_time: float, points: int = 24) -> List[float]:
    """Log-spaced window lengths from ~1e-4 of the run up to the run."""
    import math

    if total_time <= 0:
        return [1.0]
    lo = total_time * 1e-4
    hi = total_time
    step = (hi / lo) ** (1.0 / (points - 1))
    return [lo * step ** i for i in range(points)]
