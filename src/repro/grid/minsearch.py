"""Minimum-heap search as a resumable state machine, batched across targets.

The paper's "smallest heap in which the program completes" (§4.1) is a
doubling-then-bisection search over heap sizes at frame granularity.
Each individual search is inherently sequential — every probe depends on
the last — but a campaign needs *many* searches (one per benchmark, per
collector, per scale), and those are independent.  :func:`find_min_heaps`
runs them as coupled state machines: every round collects one probe per
still-active search, executes the whole round as one grid batch (through
the store and the parallel executor), and feeds the outcomes back.  Six
benchmarks' bisections therefore fan out together instead of running six
serial O(log n) ladders — and with a warm store, replay without a single
run.

The probe sequence of each search is exactly the sequential algorithm's
(``find_min_heap`` in the harness delegates here with a single target),
so the returned minima are identical by construction.  Both the
double → downward-bisect → upward-bisect state machine and the lockstep
round loop are shared with the SLO rate search
(:class:`repro.grid.monotone.MonotoneSearch`,
:func:`repro.grid.monotone.drive_searches`); what this module supplies is
the instantiation — the searched value is the heap size, the lattice unit
is :data:`FRAME_BYTES`, the floor is the two-frame minimum heap, and the
monotone predicate is "the run completes".
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..errors import OutOfMemory
from ..runtime.vm import FRAME_BYTES
from ..specs import load as load_spec
from .monotone import MonotoneSearch, drive_searches, round_to_step
from .store import ResultStore

#: One search target: (benchmark, collector).
Target = Tuple[str, str]


def find_min_heaps(
    targets: Sequence[Target],
    scale: float = 1.0,
    seed: int = 13,
    start_bytes: Optional[int] = None,
    max_bytes: int = 4 * 1024 * 1024,
    *,
    store: Optional[ResultStore] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    bus=None,
) -> Dict[Target, int]:
    """Minimum heaps for many (benchmark, collector) targets at once.

    Returns ``{(benchmark, collector): min_heap_bytes}``.  Probe runs go
    through :func:`repro.grid.executor.execute_jobs`, so a store serves
    previously computed probes and each round's probes (one per active
    search) execute in parallel.  Raises :class:`OutOfMemory` naming the
    first target for which no heap up to ``max_bytes`` completes.
    """
    searches: Dict[Target, MonotoneSearch] = {}
    for benchmark, collector in targets:
        spec = load_spec(benchmark, scale)
        lo = start_bytes or max(4 * FRAME_BYTES, spec.total_alloc_bytes // 64)
        searches[(benchmark, collector)] = MonotoneSearch(
            round_to_step(lo, FRAME_BYTES, 2 * FRAME_BYTES), max_bytes, FRAME_BYTES
        )

    drive_searches(
        searches,
        lambda target, heap: (*target, heap, scale, seed),
        lambda _target, _heap, stats: stats.completed,
        store=store,
        parallel=parallel,
        max_workers=max_workers,
        bus=bus,
    )

    for (benchmark, collector), search in searches.items():
        if search.failed:
            raise OutOfMemory(
                f"{benchmark}/{collector}: no heap up to {max_bytes} bytes works"
            )
    return {target: search.result for target, search in searches.items()}
