"""Max-sustainable-rate search: the frontier knee in O(log n) probes.

"What load can this collector sustain under this SLO?" is a monotone
threshold question: queueing theory (and the open-loop engine) make SLO
violation monotone in the offered rate — below the knee the bound holds,
at and above some rate it breaks.  :func:`max_sustainable_rates` drives
one :class:`~repro.grid.monotone.MonotoneSearch` per (collector, heap)
target over the rate lattice, finding the *smallest violating rate*; the
knee is one step below it.  :func:`~repro.grid.monotone.drive_searches`
advances them in lockstep rounds, each round's probes one grid batch —
the driver :func:`~repro.grid.minsearch.find_min_heaps` uses — so many
collectors' searches fan out together and a warm store replays the whole
campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError
from ..grid.monotone import MonotoneSearch, drive_searches, round_to_step
from ..grid.store import ResultStore
from ..specs import load as load_spec
from ..workloads.model import ServerWorkloadSpec
from .bounds import SLOBound

__all__ = ["SearchResult", "max_sustainable_rate", "max_sustainable_rates"]

#: One search target: (collector, heap_bytes).
Target = Tuple[str, int]


@dataclass
class SearchResult:
    """Outcome of one max-sustainable-rate search."""

    collector: str
    heap_bytes: int
    #: Highest lattice rate (multiple of ``rate_step``) meeting the SLO.
    #: 0 when even the lowest lattice rate violates it.
    rate_rps: int = 0
    #: True when a violating rate was found (the knee is real); False
    #: when no probe up to ``max_rate`` violated the SLO — the workload
    #: never saturated in range and ``rate_rps`` is the highest *probed*
    #: sustainable rate, not a knee.
    saturated: bool = False
    #: Runs evaluated (== grid cells probed for this target).
    probes: int = 0
    #: Smallest violating rate found (None when unsaturated).
    first_violation: Optional[int] = None
    #: rate -> (ok, violated clauses) for every probed rate.
    evaluations: Dict[int, Tuple[bool, List[str]]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "collector": self.collector,
            "heap_bytes": self.heap_bytes,
            "rate_rps": self.rate_rps,
            "saturated": self.saturated,
            "probes": self.probes,
            "first_violation": self.first_violation,
            "evaluations": {
                str(rate): {"ok": ok, "reasons": reasons}
                for rate, (ok, reasons) in sorted(self.evaluations.items())
            },
        }

    def line(self) -> str:
        """Greppable one-line summary (CI goldens)."""
        status = "knee" if self.saturated else "unsaturated"
        return (
            f"slo-search {self.collector}@{self.heap_bytes}B: "
            f"max_rate={self.rate_rps} status={status} probes={self.probes}"
        )


def max_sustainable_rates(
    spec_ref,
    targets: Sequence[Target],
    slo: SLOBound,
    *,
    rate_step: int = 100,
    max_rate: Optional[int] = None,
    start_rate: Optional[int] = None,
    scale: float = 1.0,
    seed: int = 13,
    store: Optional[ResultStore] = None,
    parallel: bool = True,
    max_workers: Optional[int] = None,
    bus=None,
    cell_runner=None,
) -> Dict[Target, SearchResult]:
    """Max sustainable rate for many (collector, heap) targets at once.

    Returns ``{(collector, heap_bytes): SearchResult}``.  The searched
    lattice is multiples of ``rate_step`` rps from ``rate_step`` up to
    ``max_rate`` (default: 16x the start guess); the start guess defaults
    to the spec's own declared arrival rate.  Probe runs go through
    :func:`repro.grid.executor.execute_jobs`, so a store serves previous
    probes — including frontier cells at coinciding rates — and each
    lockstep round's probes execute in parallel.  ``cell_runner`` is the
    executor's test hook (synthetic stats instead of real runs).
    """
    if rate_step <= 0:
        raise ConfigError("rate_step must be a positive integer")
    spec = load_spec(spec_ref, scale)
    if not isinstance(spec, ServerWorkloadSpec):
        raise ConfigError(
            f"rate search needs a server workload, got {type(spec).__name__}"
        )
    start = round_to_step(
        start_rate if start_rate is not None else spec.arrival.rate_rps,
        rate_step,
        rate_step,
    )
    ceiling = round_to_step(
        max_rate if max_rate is not None else 16 * start, rate_step, rate_step
    )
    if ceiling < start:
        raise ConfigError(
            f"max_rate {ceiling} is below the start rate {start}"
        )

    searches: Dict[Target, MonotoneSearch] = {}
    results: Dict[Target, SearchResult] = {}
    for collector, heap_bytes in targets:
        target = (collector, heap_bytes)
        searches[target] = MonotoneSearch(
            start, ceiling, rate_step, floor=rate_step
        )
        results[target] = SearchResult(collector, heap_bytes)

    seq = count(1)

    def emit(target: Target, rate: int, ok: bool, status: str) -> None:
        if bus is None:
            return
        bus.emit(
            "slo.search",
            float(next(seq)),
            {
                "benchmark": spec.name,
                "collector": target[0],
                "heap_bytes": target[1],
                "seed": seed,
                "rate_rps": rate,
                "ok": ok,
                "status": status,
            },
        )

    def violates(target: Target, rate: int, stats) -> bool:
        """The search hunts the smallest *violating* rate."""
        ok, reasons = slo.evaluate(stats)
        results[target].probes += 1
        results[target].evaluations[rate] = (ok, reasons)
        emit(target, rate, ok, "probe")
        return not ok

    drive_searches(
        searches,
        lambda target, rate: (spec.with_rate(float(rate)), *target, 1.0, seed),
        violates,
        store=store,
        parallel=parallel,
        max_workers=max_workers,
        bus=bus,
        cell_runner=cell_runner,
    )

    for target, search in searches.items():
        result = results[target]
        if search.failed:
            # No probe violated the SLO before doubling left the range:
            # unsaturated.  ``hi`` is the highest rate actually probed
            # (the doubling stopped because 2*hi exceeded the ceiling).
            result.rate_rps = search.hi
        else:
            result.first_violation = search.result
            result.saturated = True
            result.rate_rps = max(0, search.result - rate_step)
        emit(
            target, result.rate_rps, True,
            "knee" if result.saturated else "unsaturated",
        )
    return results


def max_sustainable_rate(
    spec_ref,
    collector: str,
    heap_bytes: int,
    slo: SLOBound,
    **kwargs,
) -> SearchResult:
    """Single-target convenience wrapper over :func:`max_sustainable_rates`."""
    results = max_sustainable_rates(
        spec_ref, [(collector, heap_bytes)], slo, **kwargs
    )
    return results[(collector, heap_bytes)]
