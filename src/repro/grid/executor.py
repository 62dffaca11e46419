"""The sharded, fault-tolerant grid executor.

One call — :func:`execute_jobs` — takes a batch of independent grid
cells and returns their :class:`~repro.sim.stats.RunStats` in input
order, bit-identical to a fresh serial loop.  What happens in between is
where the wall-clock goes:

* **Store short-circuit.**  Cells already in the
  :class:`~repro.grid.store.ResultStore` are served without executing
  anything — a warm campaign is a sequence of dictionary lookups.

* **Cost-model ordering.**  Missing cells are dispatched longest-first.
  The dominant cost of a cell is its collection count, and collections
  scale with ``allocated bytes / heap size``, so small heaps run longest;
  scheduling them first keeps the tail of a parallel batch from idling
  behind one straggler (static ``pool.map`` chunking, which this
  replaces, regularly parked the longest cell last).

* **As-completed dispatch.**  Each cell is its own future; results are
  checkpointed into the store *as they finish*, so an interrupted
  campaign has lost nothing but the cells still in flight.

* **Fault tolerance.**  Worker-side exceptions are caught in the worker
  and retried up to ``retries`` times; a worker *crash* (hard exit — the
  pool is broken) falls back to executing the remaining cells serially
  in-process, each isolated, so one poison cell records a failure
  instead of losing the batch.  Permanently failed cells yield
  synthesised ``completed=False`` stats (``failure="grid: ..."``) and a
  :class:`GridFailure` record; they are never written to the store.

* **Progress events.**  With a ``bus``, every cell emits a ``grid.job``
  telemetry event (``status`` ∈ cached/done/failed/retry) carrying the
  producing worker pid, the cell's input ordinal, and campaign totals so
  far — live progress is computable from the bus alone.

* **Telemetry relay.**  With a ``bus`` and the default cell runner, each
  worker attaches a bounded :class:`~repro.obs.relay.ForwardingSink` to
  its private run; the buffered events ride home in the pickled result
  and are replayed onto the coordinator bus tagged with ``worker`` /
  ``job`` / ``key`` (see :mod:`repro.obs.relay` for the drop contract).
  Cells served from the store emit one ``run.replay`` event instead,
  carrying the stored pause list so warm campaigns still produce a full
  span timeline.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs.relay import (
    DEFAULT_FORWARD_CAPACITY,
    ForwardedCell,
    ForwardingSink,
    replay_events,
)
from ..sim.stats import RunStats
from ..specs import SpecRef, load as load_spec
from .store import ResultStore, cell_key

#: One grid cell: (benchmark ref, collector, heap_bytes, scale, seed).
#: The first element is any spec ref ``repro.specs.load`` resolves —
#: a registry name, a workload-file path, or a spec object.
Job = Tuple[SpecRef, str, int, float, int]


@dataclass
class GridFailure:
    """One cell the executor could not complete, after retries."""

    job: Job
    error: str
    attempts: int


@dataclass
class GridReport:
    """Everything one :func:`execute_jobs` call did."""

    #: Stats per job, in **input** order (failed cells: synthesised
    #: ``completed=False`` stats whose ``failure`` starts with ``grid:``).
    results: List[RunStats] = field(default_factory=list)
    #: Jobs actually executed this call (store misses), in dispatch order.
    executed: List[Job] = field(default_factory=list)
    #: Number of cells served straight from the store.
    cached: int = 0
    #: Worker-side retries performed (exceptions and crash recoveries).
    retries: int = 0
    #: Cells abandoned after exhausting retries.
    failures: List[GridFailure] = field(default_factory=list)
    #: How the missing cells ran: ``"parallel"``, ``"serial"``, or
    #: ``"none"`` when the store served everything.
    execution_mode: str = "none"
    #: Worker telemetry events replayed onto the coordinator bus.
    forwarded_events: int = 0
    #: Worker telemetry events lost to forwarding-buffer overflow
    #: (counted per cell, summed here; the CLI summary reports them).
    forwarded_dropped: int = 0


def effective_workers(max_workers: Optional[int] = None) -> int:
    """Worker processes a parallel batch would actually get.

    Prefers ``os.process_cpu_count`` (3.13+: honours affinity masks and
    cgroup quotas, i.e. what containerised CI actually grants) and falls
    back to ``os.cpu_count`` on older interpreters.
    """
    cpus = getattr(os, "process_cpu_count", os.cpu_count)() or 1
    if max_workers is not None:
        cpus = min(cpus, max_workers)
    return max(1, cpus)


def should_parallelise(num_jobs: int, max_workers: Optional[int] = None) -> bool:
    """Whether a batch of ``num_jobs`` independent cells should fan out.

    Serial when there is at most one job or when only one CPU is
    effectively available (and when the caller opted out, which
    :func:`execute_jobs` checks first): a process pool on one
    core pays fork + pickle + re-import per worker and can repay none of
    it, so "parallel" sweeps on single-CPU runners measured *slower* than
    the serial loop.  Results are bit-identical either way, so the
    fallback is purely a scheduling decision, asked once per batch — of
    the cells the store did not serve — and recorded in
    ``GridReport.execution_mode``.
    """
    return num_jobs > 1 and effective_workers(max_workers) > 1


def _run_cell(job: Job, forward: bool = False, capacity: Optional[int] = None):
    """Execute one grid cell: its ``RunStats``, or with ``forward`` a
    :class:`ForwardedCell` carrying the stats plus the telemetry prefix a
    bounded forwarding sink retained and its overflow count, for the
    coordinator to replay onto its own bus.

    Module-level (dispatched via :func:`functools.partial`) so the pool
    can pickle it; the one place below the harness that imports it.
    """
    from ..harness.runner import RunOptions, run

    benchmark, collector, heap_bytes, scale, seed = job
    sinks = (ForwardingSink(capacity),) if forward else ()
    options = RunOptions(scale=scale, seed=seed, sinks=sinks)
    stats = run(benchmark, collector, heap_bytes, options=options).stats
    if not forward:
        return stats
    return ForwardedCell(
        result=stats,
        events=sinks[0].events,
        dropped=sinks[0].dropped,
        worker=os.getpid(),
    )


def _guarded(runner: Callable[[Job], RunStats], job: Job):
    """Worker-side wrapper: exceptions become values, not pool poison."""
    try:
        return "ok", runner(job)
    except BaseException as error:  # noqa: BLE001 - isolate the cell
        return "error", f"{type(error).__name__}: {error}"


def _cost_estimate(job: Job) -> float:
    """Relative expected runtime of one cell: collections dominate, and
    collections scale with total allocation over heap size."""
    benchmark, _collector, heap_bytes, scale, _seed = job
    try:
        alloc = load_spec(benchmark, scale).total_alloc_bytes
    except Exception:  # unknown spec: schedule it like a mid-size cell
        alloc = 64 * 1024
    return alloc / max(1, heap_bytes)


def _job_identity(job: Job) -> Dict[str, object]:
    benchmark, collector, heap_bytes, scale, seed = job
    return {
        "benchmark": benchmark
        if isinstance(benchmark, str)
        else getattr(benchmark, "name", str(benchmark)),
        "collector": str(collector),
        "heap_bytes": heap_bytes,
        "scale": scale,
        "seed": seed,
    }


def _failed_stats(job: Job, error: str) -> RunStats:
    identity = _job_identity(job)
    return RunStats(
        benchmark=identity["benchmark"],
        collector=identity["collector"],
        heap_bytes=identity["heap_bytes"],
        completed=False,
        failure=f"grid: {error}",
    )


class _Emitter:
    """``grid.job`` / ``run.replay`` events for one batch on an optional
    telemetry bus; time is the dispatch sequence number (grid events are
    host-side orchestration, not simulated-clock phenomena).

    Every ``grid.job`` event carries the report's cached/executed/failed
    totals as they stand once the cell it announces is booked — live
    progress is computable from the bus alone, no report object needed.
    """

    def __init__(self, bus, report: GridReport, jobs, keys):
        self.bus = bus
        self.report = report
        self.jobs = jobs
        self.keys = keys
        self.seq = 0

    def _emit(self, kind: str, i: int, data: Dict[str, object]) -> None:
        self.seq += 1
        identity = _job_identity(self.jobs[i])
        identity["key"] = self.keys[i] or ""
        self.bus.emit(kind, float(self.seq), {**identity, **data})

    def emit(
        self,
        i: int,
        status: str,
        attempt: int = 0,
        worker: int = 0,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        if self.bus is None:
            return
        self._emit(
            "grid.job",
            i,
            {
                "status": status,
                "attempt": attempt,
                "job": i,
                "worker": worker,
                "cached": self.report.cached,
                "executed": len(self.report.executed),
                "failed": len(self.report.failures),
                **(extra or {}),
            },
        )

    def replay(self, i: int, stats: RunStats) -> None:
        """One ``run.replay`` event for a store-served cell: everything
        the span layer needs to synthesize the cell's timeline."""
        if self.bus is None:
            return
        self._emit(
            "run.replay",
            i,
            {
                "job": i,
                "completed": stats.completed,
                "total_cycles": float(stats.total_cycles),
                "gc_cycles": float(stats.gc_cycles),
                "collections": stats.collections,
                "pauses": [[p.start, p.end, p.reason] for p in stats.pauses],
            },
        )


def execute_jobs(
    jobs: Sequence[Job],
    *,
    store: Optional[ResultStore] = None,
    parallel: Optional[bool] = None,
    max_workers: Optional[int] = None,
    retries: int = 1,
    bus=None,
    cell_runner: Optional[Callable[[Job], RunStats]] = None,
    force_pool: bool = False,
    forward_capacity: Optional[int] = DEFAULT_FORWARD_CAPACITY,
) -> GridReport:
    """Run a batch of grid cells through the store and the executor.

    ``parallel=None`` (the default) and ``True`` both defer to
    :func:`should_parallelise` — a pool is used only when it can pay for
    itself; ``False`` forces the in-process loop.  ``cell_runner``
    replaces the real run for tests (must be a picklable module-level
    callable when a pool is involved).  ``force_pool`` bypasses the
    single-CPU veto so the pool path stays testable on one-core runners;
    real callers never need it.

    Worker telemetry is forwarded exactly when it can land somewhere: a
    ``bus`` is attached and the cell runner is the real run (a custom
    ``cell_runner`` may opt in by returning
    :class:`~repro.obs.relay.ForwardedCell` values itself — the unwrap
    below handles either).  ``forward_capacity`` bounds the per-cell
    buffer (``None`` = unbounded; see :mod:`repro.obs.relay`).
    """
    jobs = [tuple(job) for job in jobs]
    report = GridReport(results=[None] * len(jobs))
    runner = cell_runner or functools.partial(
        _run_cell, forward=bus is not None, capacity=forward_capacity
    )

    keys: List[Optional[str]] = []
    for job in jobs:
        # Non-string collector specs and unfingerprintable workload refs
        # (hand-built WorkloadSpec objects, unreadable files) have no
        # canonical identity; they execute uncached rather than risking
        # key aliasing.
        key = None
        if isinstance(job[1], str):
            try:
                key = cell_key(*job)
            except ReproError:
                pass
        keys.append(key)
    emitter = _Emitter(bus, report, jobs, keys)

    missing: List[int] = []
    for i, key in enumerate(keys):
        cached = store.get(key) if (store is not None and key is not None) else None
        if cached is not None:
            report.results[i] = cached
            report.cached += 1
            emitter.emit(i, "cached")
            # Warm replays still need a timeline: the stored stats carry
            # no event stream, so ship the pause list in one event.
            emitter.replay(i, cached)
        else:
            missing.append(i)

    if not missing:
        return report

    # Longest-first dispatch order (ties broken by input order so the
    # serial path remains deterministic).
    missing.sort(key=lambda i: (-_cost_estimate(jobs[i]), i))

    use_pool = force_pool or (
        parallel is not False and should_parallelise(len(missing), max_workers)
    )
    report.execution_mode = "parallel" if use_pool else "serial"
    attempts: Dict[int, int] = {}

    def settle(i: int, status: str, value) -> bool:
        """Book one attempt at cell ``i``; True means run it again.

        ``status`` is :func:`_guarded`'s (``ok`` / ``error``) or
        ``crash`` for a cell in flight when the pool broke, which is
        charged a retry but never given up on — the worker died, the
        cell may be innocent.
        """
        if status != "ok":
            attempts[i] = attempts.get(i, 0) + 1
            failed = status == "error" and attempts[i] > retries
            if failed:
                report.failures.append(GridFailure(jobs[i], value, attempts[i]))
                report.results[i] = _failed_stats(jobs[i], value)
            else:
                report.retries += 1
            emitter.emit(i, "failed" if failed else "retry", attempts[i])
            return not failed
        worker = 0
        stats = value
        extra = None
        if isinstance(value, ForwardedCell):
            stats = value.result
            worker = value.worker
            replayed = 0
            if bus is not None:
                replayed = replay_events(
                    bus,
                    value.events,
                    worker=value.worker,
                    job=i,
                    key=keys[i] or "",
                )
            report.forwarded_events += replayed
            report.forwarded_dropped += value.dropped
            # Loss accounting rides on the terminal event so bus-side
            # consumers (DropTally, the trace file itself) see it too.
            extra = {
                "forwarded_events": replayed,
                "forwarded_dropped": value.dropped,
            }
        report.results[i] = stats
        report.executed.append(jobs[i])
        if store is not None and keys[i] is not None:
            store.put(keys[i], stats)
        emitter.emit(i, "done", worker=worker, extra=extra)
        return False

    def run_serially(indices: List[int]) -> None:
        for i in indices:
            while settle(i, *_guarded(runner, jobs[i])):
                pass

    if not use_pool:
        run_serially(missing)
    else:
        # Imported lazily: worker processes re-importing this module must
        # not pay for (or recursively trigger) executor machinery.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        workers = (max_workers or 2) if force_pool else effective_workers(max_workers)
        unfinished = list(missing)
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    pool.submit(_guarded, runner, jobs[i]): i
                    for i in unfinished
                }
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        i = futures[future]
                        if settle(i, *future.result()):
                            retry = pool.submit(_guarded, runner, jobs[i])
                            futures[retry] = i
                            pending.add(retry)
                        else:
                            unfinished.remove(i)
        except BrokenProcessPool:
            # A worker died hard (segfault, os._exit): every in-flight
            # future is lost but nothing already checkpointed is.  Finish
            # the remaining cells in-process, each isolated, charging one
            # retry to each — the poison cell fails alone, the rest land.
            for i in unfinished:
                settle(i, "crash", None)
            run_serially(unfinished)

    if store is not None and report.executed:
        store.rebuild_index()
    return report
