"""The traced run: where a cell's host time goes, layer by layer.

Everything here is measured from outside, by timing calls into public
functions.  Spans are recorded in memory by :class:`Spans` (name, start,
end, parent, cell id) around the same steps ``harness.runner.run``
performs, and written out once, at the end, as Chrome trace-event JSON.
A span's *self time* is its duration minus the part its children cover.

The run follows one seeded sample of the workload's cells.  Each cell
runs four ways back to back, so a noisy stretch of the host lands on all
four alike:

1. traced (spans), and
2. through ``repro.run`` untraced — stats asserted equal, the wall ratio
   is the tracing cost;
3. with ``RunOptions(profile=True)``: the library's own mutator / barrier
   / collect wall split.  The profile wraps every pointer store in a
   timer, so only the *shares* are meaningful;
4. at a heap large enough never to collect — the no-GC baseline whose
   wall, subtracted, is the collector's whole cost.

Fixed-input probes then cover the layers a round does not isolate (kernel
tiers, telemetry attachments, store, executor, searches, CLI).
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import repro
from repro import (
    VM,
    OutOfMemory,
    ResultStore,
    RingBufferSink,
    RunOptions,
    RunStats,
    SLOBound,
    TelemetryBus,
    build_timeline,
    cell_key,
    find_min_heaps,
    max_sustainable_rate,
    sweep_frontier,
    to_perfetto,
    validate_perfetto,
)
from repro import kernels
from repro.bench.engine import SyntheticMutator, no_gc_heap_bytes
from repro.grid import execute_jobs
from repro.harness import experiments
from repro.workloads.engine import ServerMutator
from repro.workloads.model import ServerWorkloadSpec

from workloads import KB, REPO_ROOT, Checks, Job

#: Cells of the round the traced run follows (a seeded sample beyond it).
TRACE_SAMPLE = 24
#: Cells the per-attachment and per-tier probes repeat, and how often.
PROBE_CELLS = 2
PROBE_REPEATS = 3
#: Entries in the store/executor probes — one paper campaign's worth.
STORE_ENTRIES = 75

KVSTORE = str(REPO_ROOT / "examples" / "workloads" / "kvstore.json")
WEBFRONT = str(REPO_ROOT / "examples" / "workloads" / "webfront.yaml")


class Spans:
    """An in-memory span recorder; nothing is written until the end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.records: List[Dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str, cell: Optional[int] = None):
        parent = self._open[-1] if self._open else None
        if cell is None and parent is not None:
            cell = self.records[parent]["cell"]
        record = {
            "name": name, "start": self._clock(), "end": None,
            "parent": parent, "cell": cell,
        }
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            record["end"] = self._clock()
            self._open.pop()

    def durations(self) -> List[float]:
        return [r["end"] - r["start"] for r in self.records]

    def self_times(self) -> List[float]:
        """Per span: duration minus its direct children's durations."""
        durations = self.durations()
        own = list(durations)
        for record, duration in zip(self.records, durations):
            if record["parent"] is not None:
                own[record["parent"]] -= duration
        return own

    def self_time_by_name(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for record, own in zip(self.records, self.self_times()):
            totals[record["name"]] = totals.get(record["name"], 0.0) + own
        return totals

    def coverage(self, name: str) -> List[float]:
        """For every span called ``name``: the share of it its children cover."""
        durations = self.durations()
        own = self.self_times()
        return [
            1.0 - own[i] / durations[i] if durations[i] > 0 else 1.0
            for i, record in enumerate(self.records)
            if record["name"] == name
        ]

    def to_chrome(self, process: str) -> Dict:
        """Chrome trace-event JSON: one process, one thread, complete
        (``X``) events in start order, parents before their children."""
        origin = min((r["start"] for r in self.records), default=0.0)
        events: List[Dict] = [
            {"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
             "args": {"name": process}},
            {"ph": "M", "pid": 1, "tid": 1, "name": "thread_name",
             "args": {"name": "closed loop, one client"}},
        ]
        order = sorted(
            range(len(self.records)),
            key=lambda i: (self.records[i]["start"], -self.records[i]["end"]),
        )
        for i in order:
            record = self.records[i]
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": record["name"],
                "ts": (record["start"] - origin) * 1e6,
                "dur": (record["end"] - record["start"]) * 1e6,
                "args": {"cell": record["cell"], "parent": record["parent"]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def traced_cell(spans: Spans, index: int, job: Job) -> RunStats:
    """One cell, step by step as ``harness.runner.run`` performs it."""
    ref, plan, heap, scale, seed = job
    with spans.span("cell", cell=index):
        with spans.span("specs.load"):
            spec = repro.load_spec(ref, scale)
        with spans.span("runtime.vm.build"):
            vm = VM(heap, collector=plan, locality=spec.locality, benchmark_name=spec.name)
        server = isinstance(spec, ServerWorkloadSpec)
        with spans.span("mutator.engine.build"):
            engine = (ServerMutator if server else SyntheticMutator)(vm, spec, seed=seed)
        with spans.span("mutator.engine.run"):
            try:
                stats = engine.run()
            except OutOfMemory as error:
                stats = vm.finish(completed=False, failure=str(error))
                if server:
                    stats.requests = engine.request_stats()
    return stats


def _timed(fn, *args, **kwargs) -> Tuple[float, object]:
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - t0, value


def _best_timed(fn, *args, **kwargs) -> Tuple[float, object]:
    """The fastest of :data:`PROBE_REPEATS` timed calls."""
    return min(
        (_timed(fn, *args, **kwargs) for _ in range(PROBE_REPEATS)),
        key=lambda timed: timed[0],
    )


def plain_run(job: Job, **options) -> Tuple[float, object]:
    """``repro.run`` on a job tuple: (host seconds, report)."""
    ref, plan, heap, scale, seed = job
    run_options = RunOptions(scale=scale, seed=seed, **options)
    return _timed(repro.run, ref, plan, heap, options=run_options)


def best_run(job: Job, **options) -> Tuple[float, object]:
    """The fastest of :data:`PROBE_REPEATS` runs — the probes compare
    variants of one short cell, where a noisy burst would swamp the gap."""
    ref, plan, heap, scale, seed = job
    run_options = RunOptions(scale=scale, seed=seed, **options)
    return _best_timed(repro.run, ref, plan, heap, options=run_options)


def canned_cell(job: Job) -> RunStats:
    """A cell runner that does no work: what is left is the executor."""
    ref, plan, heap, _scale, _seed = job
    return RunStats(benchmark=getattr(ref, "name", str(ref)), collector=plan, heap_bytes=heap)


def _per(amount: float, seconds: float) -> float:
    """A rate, 0.0 when the sample spent no time there (a sample with no
    collection has no collector throughput)."""
    return amount / seconds if seconds > 0 else 0.0


def trace_workload(workload, seed: int, scale: float, scratch, trace_path, quick: bool):
    """Run the traced round and the layer probes for one workload.

    Returns ``(metrics, extra, checks)``: the per-layer metric values, the
    workload-specific numbers that ride along, and the check tally.
    """
    checks = Checks()
    metrics: Dict[str, float] = {}
    extra: Dict[str, object] = {}
    spans = Spans()
    sample_size = 6 if quick else TRACE_SAMPLE

    store_dir = None
    if workload.jobs_need_store:
        # Cells chosen inside the library (min-heap probes): one cold
        # serial round populates a store to read them back from.
        store_dir = tempfile.mkdtemp(prefix="cells-", dir=scratch)
        checks.absorb(workload.stored_round(seed, scale, store_dir, None))
    jobs = workload.jobs(seed, scale, store_dir)
    extra["round_cells"] = len(jobs)
    if len(jobs) > sample_size:
        picked = sorted(random.Random(seed).sample(range(len(jobs)), sample_size))
        jobs = [jobs[i] for i in picked]
    extra["traced_cells"] = len(jobs)

    # Each cell four ways, back to back, so a noisy stretch of the host
    # lands on all four alike: traced, plain, profiled, and (if the cell
    # completed — an OOM probe stops early, so its baseline would run
    # *longer* than it did) in a heap that never collects.
    traced: List[RunStats] = []
    phases = {"mutator": 0.0, "barrier": 0.0, "collect": 0.0, "verify": 0.0, "total": 0.0}
    plain_wall = cell_wall = baseline_wall = 0.0
    unclean = 0
    for i, job in enumerate(jobs):
        stats = traced_cell(spans, i, job)
        traced.append(stats)
        wall, report = plain_run(job)
        plain_wall += wall
        checks.expect(report.stats == stats, f"cell {i}: traced stats differ from repro.run")

        _, report = plain_run(job, profile=True)
        checks.expect(report.stats == stats, f"cell {i}: profiled stats differ")
        parts = sum(report.phases[k] for k in ("mutator", "barrier", "collect", "verify"))
        checks.expect(
            abs(parts - report.phases["total"]) <= 0.02 * report.phases["total"],
            f"cell {i}: phase shares sum to {parts / report.phases['total']:.3f}",
        )
        for name in phases:
            phases[name] += report.phases[name]

        if stats.completed:
            ref, plan, _heap, cell_scale, cell_seed = job
            roomy = no_gc_heap_bytes(repro.load_spec(ref, cell_scale))
            base_wall, report = plain_run((ref, plan, roomy, cell_scale, cell_seed))
            unclean += report.stats.collections > 0
            cell_wall += wall
            baseline_wall += base_wall

    coverage = spans.coverage("cell")
    checks.expect(min(coverage) >= 0.95, f"span coverage {min(coverage):.3f} < 0.95")
    n = len(jobs)
    own = spans.self_time_by_name()
    metrics["specs.load_s"] = own["specs.load"] / n
    metrics["runtime.vm.build_s"] = own["runtime.vm.build"] / n
    metrics["mutator.engine.build_s"] = own["mutator.engine.build"] / n
    metrics["mutator.engine.run_s"] = own["mutator.engine.run"] / n
    metrics["driver.trace_overhead_ratio"] = sum(
        duration for record, duration in zip(spans.records, spans.durations())
        if record["name"] == "cell"
    ) / plain_wall
    metrics["driver.span_coverage_min"] = min(coverage)

    totals = {
        name: sum(getattr(stats, name) for stats in traced)
        for name in ("allocations", "copied_bytes", "collections", "barrier_fast",
                     "barrier_slow", "remset_inserts")
    }
    metrics["runtime.mutator.share"] = phases["mutator"] / phases["total"]
    metrics["core.barrier.share"] = phases["barrier"] / phases["total"]
    metrics["core.collector.share"] = phases["collect"] / phases["total"]
    metrics["mutator.engine.allocs_per_s"] = _per(totals["allocations"], phases["mutator"])
    metrics["core.collector.copied_mb_per_s"] = _per(
        totals["copied_bytes"] / (1 << 20), phases["collect"]
    )
    metrics["core.collector.collections"] = totals["collections"]
    metrics["core.barrier.stores_per_s"] = _per(totals["barrier_fast"], phases["barrier"])
    metrics["core.barrier.slow_ratio"] = _per(totals["barrier_slow"], totals["barrier_fast"])
    metrics["core.remset.inserts"] = totals["remset_inserts"]
    metrics["slo.distill.gc_host_share"] = 1.0 - baseline_wall / cell_wall
    extra["slo.distill.unclean_baselines"] = unclean
    requests = sum(s.requests.count for s in traced if s.requests is not None)
    if requests:
        extra["workloads.engine.requests_per_s"] = requests / own["mutator.engine.run"]

    probe_jobs = [job for job, stats in zip(jobs, traced) if stats.completed][:PROBE_CELLS]
    probe_stats = [stats for stats in traced if stats.completed][:PROBE_CELLS]
    _probe_tiers(metrics, checks, probe_jobs, probe_stats)
    _probe_attachments(metrics, extra, checks, probe_jobs, probe_stats)
    _probe_store_and_executor(metrics, extra, checks, jobs, traced, scratch)
    _probe_searches(metrics, extra, checks, seed, scale, scratch)
    _probe_frontends(metrics, checks, seed, scale, scratch)

    document = spans.to_chrome(f"benchmarks/e2e {workload.name}")
    invalid = None
    try:
        extra["trace_events"] = validate_perfetto(document)
    except ValueError as error:
        invalid = error
    checks.expect(invalid is None, f"exported trace is not valid: {invalid}")
    Path(trace_path).write_text(json.dumps(document), encoding="utf-8")
    extra["trace_file"] = os.path.relpath(trace_path, REPO_ROOT)
    return metrics, extra, checks


def _probe_tiers(metrics, checks, jobs, expected) -> None:
    """The probe cells on every substrate tier; stats must not move."""
    saved = os.environ.get(kernels.TIER_ENV)
    try:
        for tier in ("python", "numpy", "cffi"):
            os.environ[kernels.TIER_ENV] = tier
            wall = 0.0
            for job, stats in zip(jobs, expected):
                cell_wall, report = best_run(job)
                wall += cell_wall
                checks.expect(report.stats == stats, f"tier {tier}: stats differ")
            metrics[f"kernels.{tier}.cell_s"] = wall / len(jobs)
    finally:
        if saved is None:
            os.environ.pop(kernels.TIER_ENV, None)
        else:
            os.environ[kernels.TIER_ENV] = saved
    calls = 200
    wall, _ = _timed(lambda: [kernels.resolve() for _ in range(calls)])
    metrics["kernels.resolve_s"] = wall / calls


def _probe_attachments(metrics, extra, checks, jobs, expected) -> None:
    """What each telemetry attachment costs over the plain run."""
    plain_wall = sum(best_run(job)[0] for job in jobs)
    for name, options in (
        ("obs.instrument", {"counters": True}),
        ("obs.profiler", {"profile": "full"}),
        ("sanitizer", {"sanitize": True}),
    ):
        wall = 0.0
        for job, stats in zip(jobs, expected):
            cell_wall, report = best_run(job, **options)
            wall += cell_wall
            checks.expect(report.stats == stats, f"{name}: stats differ")
        metrics[f"{name}.overhead_ratio"] = wall / plain_wall

    batch_wall, _ = _best_timed(execute_jobs, jobs, parallel=False)
    relay_wall = float("inf")
    for _ in range(PROBE_REPEATS):
        bus = TelemetryBus()
        ring = bus.subscribe(RingBufferSink())
        wall, report = _timed(execute_jobs, jobs, parallel=False, bus=bus)
        relay_wall = min(relay_wall, wall)
    checks.expect(report.results == list(expected), "obs.relay: stats differ")
    metrics["obs.relay.overhead_ratio"] = relay_wall / batch_wall
    metrics["obs.relay.forwarded_events"] = report.forwarded_events
    extra["obs.relay.dropped"] = report.forwarded_dropped
    metrics["obs.trace.build_timeline_s"], timeline = _timed(build_timeline, ring.events)
    metrics["obs.trace.export_s"], _ = _timed(lambda: json.dumps(to_perfetto(timeline)))


def _probe_store_and_executor(metrics, extra, checks, jobs, stats, scratch) -> None:
    """Store and executor costs over one campaign's worth of entries."""
    entries = [
        (jobs[i % len(jobs)][:4] + (i,), stats[i % len(jobs)])
        for i in range(STORE_ENTRIES)
    ]
    key_wall, keys = _timed(lambda: [cell_key(*job) for job, _ in entries])
    metrics["grid.store.cell_key_s"] = key_wall / STORE_ENTRIES
    store_dir = tempfile.mkdtemp(prefix="probe-", dir=scratch)
    store = ResultStore(store_dir)
    put_wall, _ = _timed(lambda: [store.put(k, s) for k, (_, s) in zip(keys, entries)])
    metrics["grid.store.close_s"], _ = _timed(store.close)
    metrics["grid.store.put_s"] = put_wall / STORE_ENTRIES
    metrics["grid.store.open_s"], store = _best_timed(ResultStore, store_dir)
    get_wall, got = _timed(lambda: [store.get(k) for k in keys])
    metrics["grid.store.get_s"] = get_wall / STORE_ENTRIES
    checks.expect(got == [s for _, s in entries], "grid.store: get differs from put")

    batch = [job for job, _ in entries]
    warm_wall, report = _timed(execute_jobs, batch, store=store, parallel=False)
    checks.expect(report.cached == STORE_ENTRIES, "grid.executor: warm batch executed cells")
    metrics["grid.executor.warm_dispatch_s"] = warm_wall / STORE_ENTRIES
    serial_wall, _ = _timed(execute_jobs, batch, parallel=False, cell_runner=canned_cell)
    metrics["grid.executor.serial_overhead_s"] = serial_wall / STORE_ENTRIES
    workers = os.cpu_count() or 1
    metrics["grid.executor.pool_startup_s"], report = _best_timed(
        execute_jobs, batch[: 2 * workers], cell_runner=canned_cell,
        force_pool=True, max_workers=max(2, workers),
    )
    checks.expect(not report.failures, "grid.executor: pool probe failed")
    extra["grid.executor.pool_workers"] = max(2, workers)


def _probe_searches(metrics, extra, checks, seed, scale, scratch) -> None:
    """One min-heap search and one max-sustainable-rate search."""
    store = ResultStore(tempfile.mkdtemp(prefix="minheap-", dir=scratch))
    metrics["grid.minsearch.wall_s"], found = _timed(
        find_min_heaps, [("raytrace", "gctk:Appel")],
        scale=scale, seed=seed, store=store, parallel=False,
    )
    store.close()
    metrics["grid.minsearch.probes"] = store.puts
    extra["grid.minsearch.min_heap_bytes"] = found[("raytrace", "gctk:Appel")]

    metrics["slo.search.wall_s"], result = _timed(
        max_sustainable_rate, KVSTORE, "25.25.100", 256 * KB,
        SLOBound.from_ms(p99=2.0), rate_step=200, max_rate=6400,
        scale=scale, seed=seed, parallel=False,
    )
    metrics["slo.search.probes"] = result.probes
    extra["slo.search.rate_rps"] = result.rate_rps

    _, report = plain_run((KVSTORE, "25.25.100", 256 * KB, scale, seed))
    metrics["slo.frontier.overhead_s"], frontier = _timed(
        sweep_frontier, KVSTORE, "25.25.100", 256 * KB, [600.0, 1200.0],
        scale=scale, seed=seed, parallel=False,
        cell_runner=lambda job: report.stats,
    )
    checks.expect(len(frontier.points) == 2, "slo.frontier: canned sweep lost points")


def _probe_frontends(metrics, checks, seed, scale, scratch) -> None:
    """Spec-file parsing, warm figure rendering and one CLI process."""
    parses = []
    for _ in range(5):
        wall, _ = _timed(lambda: [repro.load_workload(p) for p in (KVSTORE, WEBFRONT)])
        parses.append(wall)
    metrics["workloads.config.load_file_s"] = statistics.median(parses)

    store = ResultStore(tempfile.mkdtemp(prefix="figure-", dir=scratch))
    try:
        experiments.configure_grid(store=store, parallel=False)
        experiments.clear_caches()
        cold = experiments.figure4(scale=scale)
        experiments.clear_caches()
        metrics["harness.experiments.render_s"], warm = _timed(
            experiments.figure4, scale=scale
        )
        checks.expect(warm.data == cold.data, "harness.experiments: warm figure differs")
    finally:
        experiments.configure_grid()
        experiments.clear_caches()
        store.close()

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, "-m", "repro.harness.cli", "run", "--benchmark", "jess",
        "--collector", "25.25.100", "--heap-kb", "25",
        "--scale", repr(scale), "--seed", str(seed),
    ]
    metrics["harness.cli.run_s"], done = _timed(
        subprocess.run, command, env=env, capture_output=True, text=True, timeout=120
    )
    checks.expect(done.returncode == 0, f"harness.cli: exit {done.returncode}: {done.stderr[-200:]}")
