"""A reusable doubling/bisection search over a monotone predicate.

Two campaigns in this repo are the same search wearing different units:

* the minimum-heap search (:mod:`repro.grid.minsearch`) — the smallest
  heap size, in frames, at which a run *completes*;
* the SLO rate search (:mod:`repro.slo.search`) — the smallest offered
  rate, in rate-step units, at which a server workload *violates* its
  latency/MMU bound (the knee sits one step below it).

Both assume a predicate that is monotone in the searched value: false
below some threshold, true at and above it.  :class:`MonotoneSearch` is
that search as a resumable state machine, value-axis agnostic — values
are multiples of ``step`` between ``floor`` and ``max_value``:

* Phase ``double``: double from the start guess until the predicate
  holds; doubling past ``max_value`` fails the search (no satisfying
  value in range).
* Phase ``down`` (the start guess already satisfies): bisect *downward*
  for the smallest satisfying multiple of ``step``, seeded with a
  virtual failure one step below ``floor`` — values below the floor do
  not exist, so they count as non-satisfying.
* Phase ``bisect``: the classic upward bisection between the last
  failure and the first success.

The probe sequence is exactly the one ``grid.minsearch`` has always
issued (property-pinned against a linear reference in ``tests/grid``),
so generalising did not move any minimum.  The driver protocol is
``probe()`` → next value to test (``None`` when done) and
``feed(satisfied)`` → consume the outcome; :func:`drive_searches` is the
one driver: it runs many searches in lockstep rounds and batches each
round's probes through the grid executor.  A campaign supplies only what
a probe *is* (its job tuple) and what its outcome *means* (the
predicate).
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from ..sim.stats import RunStats
from .executor import Job, execute_jobs

__all__ = ["MonotoneSearch", "drive_searches", "round_to_step"]


def round_to_step(value: float, step: int, floor: int) -> int:
    """``value`` rounded down onto the search lattice, clamped to the floor."""
    return max(floor, (int(value) // step) * step)


class MonotoneSearch:
    """One doubling/bisection search for the smallest satisfying value.

    ``probe()`` names the next value to test (``None`` when done);
    ``feed(satisfied)`` consumes the outcome and advances the state.
    Terminal state is either ``result`` (the smallest value, a multiple
    of ``step`` in ``[floor, max_value]``, at which the predicate held)
    or ``failed`` (the predicate held nowhere up to ``max_value``).
    """

    def __init__(self, start: int, max_value: int, step: int,
                 floor: Optional[int] = None):
        self.step = step
        self.max_value = max_value
        self.floor = 2 * step if floor is None else floor
        self.start = start
        self.phase = "double"
        self.lo = start  # in double/bisect: highest known-failing value
        self.hi = start  # lowest known-satisfying value (once one exists)
        self.result: Optional[int] = None
        self.failed = False
        self._pending: Optional[int] = None

    # -- probe selection, one per phase --------------------------------
    def probe(self) -> Optional[int]:
        if self.result is not None or self.failed:
            return None
        if self.phase == "double":
            self._pending = self.hi
        elif self.phase == "down":
            # Invariant: hi satisfies; everything at or below lo fails
            # (lo starts one step below the floor, a virtual failure —
            # values below the floor cannot exist).
            if self.hi - self.lo <= self.step:
                self.result = self.hi
                return None
            mid = ((self.lo + self.hi) // 2 // self.step) * self.step
            mid = max(mid, self.lo + self.step)
            if mid >= self.hi:
                self.result = self.hi
                return None
            self._pending = mid
        else:  # bisect (upward): lo fails, hi satisfies
            if self.hi - self.lo <= self.step:
                self.result = self.hi
                return None
            mid = round_to_step((self.lo + self.hi) // 2, self.step, self.floor)
            if mid in (self.lo, self.hi):
                self.result = self.hi
                return None
            self._pending = mid
        return self._pending

    # -- outcome consumption -------------------------------------------
    def feed(self, satisfied: bool) -> None:
        value = self._pending
        self._pending = None
        if self.phase == "double":
            if satisfied:
                if value == self.start:
                    # The start guess may already sit above the minimum:
                    # bisect down to the smallest satisfying value.
                    self.phase = "down"
                    self.lo = self.floor - self.step
                    self.hi = value
                else:
                    self.phase = "bisect"
                    self.lo = value // 2
                    self.hi = value
            else:
                doubled = value * 2
                if doubled > self.max_value:
                    self.failed = True
                else:
                    self.hi = doubled
        elif self.phase == "down":
            if satisfied:
                self.hi = value
            else:
                self.lo = value
        else:  # bisect
            if satisfied:
                self.hi = value
            else:
                self.lo = value


def drive_searches(
    searches: Dict[Hashable, MonotoneSearch],
    job_for: Callable[[Hashable, int], Job],
    satisfied: Callable[[Hashable, int, RunStats], bool],
    **grid,
) -> None:
    """Advance every search to its terminal state, in lockstep rounds.

    Each round takes one probe from every still-active search, runs them
    as one :func:`~repro.grid.executor.execute_jobs` batch (``grid`` is
    its keyword arguments: store, pool, bus, cell runner) and feeds
    ``satisfied(target, value, stats)`` back to each, in ``searches``
    order.  Every search issues exactly the probe sequence it would
    alone, so results equal the sequential algorithm's by construction.
    """
    while True:
        probes = [
            (target, value)
            for target, search in searches.items()
            if (value := search.probe()) is not None
        ]
        if not probes:
            return
        report = execute_jobs([job_for(t, v) for t, v in probes], **grid)
        for (target, value), stats in zip(probes, report.results):
            searches[target].feed(satisfied(target, value, stats))
