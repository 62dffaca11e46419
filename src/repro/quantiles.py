"""The one nearest-rank percentile implementation.

Two layers report percentiles — request latencies
(:mod:`repro.workloads.latency`) and pause analytics
(:mod:`repro.analysis.pauses`, which the profiler's report reuses) — and
they are pinned bit-identical to each other by goldens and point-identity
tests.  That contract only holds if every caller computes the *same*
floats, so the
definition lives here, once, dependency-free (this module must stay
importable from any layer without cycles).

Nearest-rank (inclusive): the q-th percentile of n sorted values is the
value at rank ``max(1, ceil(q * n))``.  It is exact, monotone in q,
returns an element of the population (never an interpolation), and
``q=1.0`` is the maximum.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence

__all__ = ["percentile", "percentiles"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of pre-sorted data (q in [0, 1])."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def percentiles(
    sorted_values: Sequence[float], qs: Iterable[float]
) -> Dict[float, float]:
    """Many quantiles of one pre-sorted population, as ``{q: value}``."""
    return {q: percentile(sorted_values, q) for q in qs}
