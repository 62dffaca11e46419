"""Heap-size sweeps: the x-axis of every figure in the paper.

The paper ran each program "on 33 heap sizes, ranging from the smallest
one in which the program completes up to 3 times that size" (§4.1), with
a log-scaled x-axis.  :func:`heap_multipliers` reproduces that grid (the
point count is configurable so the quick benchmark targets can use a
coarser grid), :func:`sweep_grid` runs a whole (benchmark, collector,
multiplier) grid as one :func:`repro.grid.executor.execute_jobs` batch,
and :func:`sweep` is its one-pair case.

Every cell of a sweep is an independent fixed-seed simulation, so however
the executor runs the batch — pool, in-process, or straight from a store
— the ``RunStats`` are bit-identical to the serial loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..grid.executor import execute_jobs
from ..grid.monotone import round_to_step
from ..runtime.vm import FRAME_BYTES
from ..sim.stats import RunStats

#: The paper's grid size.
PAPER_POINTS = 33
#: The paper's largest heap, relative to the minimum.
MAX_RATIO = 3.0


def heap_multipliers(points: int = PAPER_POINTS, max_ratio: float = MAX_RATIO) -> List[float]:
    """Log-spaced multipliers from 1.0 to ``max_ratio`` inclusive."""
    if points < 2:
        raise ValueError("a sweep needs at least two points")
    step = max_ratio ** (1.0 / (points - 1))
    return [step ** i for i in range(points)]


@dataclass
class SweepResult:
    """All runs of one (benchmark, collector) across the heap grid."""

    benchmark: str
    collector: str
    min_heap_bytes: int
    multipliers: List[float]
    runs: List[RunStats] = field(default_factory=list)
    #: How the batch this sweep was part of executed, copied from
    #: :attr:`repro.grid.executor.GridReport.execution_mode`:
    #: ``"parallel"`` (process pool), ``"serial"`` — which may differ
    #: from the ``parallel=`` argument when the executor vetoes a pool
    #: (one effective CPU, one missing cell) — or ``"none"`` when the
    #: store served every cell.
    execution_mode: str = "none"

    @property
    def heap_sizes(self) -> List[int]:
        return [r.heap_bytes for r in self.runs]

    def series(self, metric: str) -> List[Optional[float]]:
        """Metric values aligned with the grid; failed runs become gaps."""
        out: List[Optional[float]] = []
        for run in self.runs:
            if not run.completed:
                out.append(None)
                continue
            value = getattr(run, metric)
            out.append(float(value))
        return out

    def total_time_series(self) -> List[Optional[float]]:
        return self.series("total_cycles")

    def gc_time_series(self) -> List[Optional[float]]:
        return self.series("gc_cycles")


def sweep(
    benchmark: str,
    collector: str,
    min_heap_bytes: int,
    multipliers: Sequence[float],
    scale: float = 1.0,
    seed: int = 13,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    store=None,
    bus=None,
) -> SweepResult:
    """Run ``collector`` on ``benchmark`` at every heap size in the grid:
    :func:`sweep_grid` for one (benchmark, collector) pair.

    Heap sizes are rounded to frame granularity; the minimum is the
    *benchmark's* minimum (under the baseline collector), so collectors
    with smaller minima simply succeed below 1.0× and collectors with
    larger minima leave gaps — exactly how the paper's figures read.
    """
    return sweep_grid(
        [benchmark], [collector], {benchmark: min_heap_bytes}, multipliers,
        scale, seed, parallel, max_workers, store, bus,
    )[(benchmark, collector)]


def sweep_grid(
    benchmarks: Sequence[str],
    collectors: Sequence[str],
    min_heap_bytes: Dict[str, int],
    multipliers: Sequence[float],
    scale: float = 1.0,
    seed: int = 13,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    store=None,
    bus=None,
) -> Dict[Tuple[str, str], SweepResult]:
    """Run the full (benchmark, collector, multiplier) grid of a figure.

    This is the experiment layer's unit of parallelism: the whole grid is
    flattened into independent jobs and handed to
    :func:`repro.grid.executor.execute_jobs` in one batch, so worker
    processes stay busy across benchmark boundaries instead of draining
    per-sweep.  The executor alone decides how the batch runs
    (``parallel=False`` rules a pool out; ``None`` / ``True`` let it use
    one when it can pay for itself) and every
    ``SweepResult.execution_mode`` records what it reported.  With a
    :class:`~repro.grid.store.ResultStore` as ``store``, previously
    computed cells are served from disk and fresh ones are checkpointed
    as they finish.  Returns one :class:`SweepResult` per (benchmark,
    collector) pair.
    """
    multipliers = list(multipliers)
    pairs = [(b, c) for b in benchmarks for c in collectors]
    # Heap sizes sit on the frame lattice, never below the two-frame floor.
    heaps = {
        b: [round_to_step(min_heap_bytes[b] * m, FRAME_BYTES, 2 * FRAME_BYTES)
            for m in multipliers]
        for b in benchmarks
    }
    report = execute_jobs(
        [(b, c, heap, scale, seed) for (b, c) in pairs for heap in heaps[b]],
        store=store, parallel=parallel, max_workers=max_workers, bus=bus,
    )
    out: Dict[Tuple[str, str], SweepResult] = {}
    for i, (b, c) in enumerate(pairs):
        out[(b, c)] = SweepResult(
            benchmark=b,
            collector=c,
            min_heap_bytes=min_heap_bytes[b],
            multipliers=list(multipliers),
            runs=report.results[i * len(multipliers) : (i + 1) * len(multipliers)],
            execution_mode=report.execution_mode,
        )
    return out
