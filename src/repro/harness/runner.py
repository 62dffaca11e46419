"""Run benchmarks against collectors; discover minimum heap sizes.

Every figure in the paper is built from :func:`run` calls: one
(benchmark, collector, heap size) → :class:`RunReport`.  Minimum heaps
(Table 1 and the x-axis normalisation of every plot) come from
:func:`find_min_heap`, a doubling-then-bisection search over heap sizes
at frame granularity — the same "smallest heap in which the program
completes" definition the paper uses (§4.1).

:func:`run` is the single entry point for executing a run; telemetry
(tracing, profiling, counter export) is selected through
:class:`RunOptions` rather than through parallel ``run_*`` variants.
When no telemetry is requested the VM executes with **no instrumentation
attached at all** — the golden-counter tests pin that path bit-identical
to the pre-telemetry harness.

:func:`run_many` is the process-parallel fan-out behind the sweep layer:
each (benchmark, collector, heap size) run is completely independent (its
own VM, its own seeded PRNG), so farming the grid out over worker
processes returns *bit-identical* ``RunStats`` to the serial loop — same
seeds, same cost-model cycles — just sooner.  Dispatch lives in
:mod:`repro.grid.executor` (the pool decision, as-completed scheduling,
cost ordering, per-cell retry) and results can be served from /
checkpointed into a :class:`repro.grid.store.ResultStore` via the
``store`` argument; this module keeps the cell (:func:`run`) and the two
thin entry points :func:`run_many` / :func:`find_min_heap`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..bench.engine import TAPES, SyntheticMutator
from ..core.config import BeltwayConfig
from ..errors import ConfigError, OutOfMemory
from ..grid.executor import Job, execute_jobs
from ..grid.minsearch import find_min_heaps
from ..obs import CounterSink, JsonlSink, RingBufferSink, TelemetryBus, attach
from ..runtime.vm import FRAME_BYTES, VM
from ..sim.stats import RunStats
from ..specs import SpecRef, load as load_spec
from ..workloads.engine import ServerMutator
from ..workloads.model import ServerWorkloadSpec

@dataclass(frozen=True)
class RunOptions:
    """Everything about *how* to execute a run (the *what* — benchmark,
    collector, heap — stays positional on :func:`run`).

    Telemetry is attached to the VM only if at least one of ``profile``,
    ``trace``, ``ring_buffer``, ``counters`` or ``sinks`` asks for it;
    otherwise the run is instrumentation-free and bit-identical to the
    pre-telemetry harness.
    """

    #: Workload length multiplier (1.0 = the scaled paper workload).
    scale: float = 1.0
    #: Benchmark PRNG seed; runs are fully determined by it.
    seed: int = 13
    #: Run the heap verifier after every collection (slow; debugging).
    verify: bool = False
    #: ``False`` (default): no profiling.  ``True``: legacy host
    #: wall-time phase breakdown only (wraps the store path — adds
    #: per-store overhead, so only the *split* is meaningful).  ``"full"``
    #: or a :class:`~repro.obs.profiler.ProfileOptions`: additionally
    #: attach the GC profiler (lifetime demographics, pause
    #: analytics, heap-geometry timeline, cost attribution) and fill
    #: ``RunReport.profile`` with its :class:`ProfileReport`.
    profile: Union[bool, str, object] = False
    #: Write telemetry events as JSON lines to this path or text stream.
    trace: Optional[object] = None
    #: Emit a ``heap.snapshot`` event after every Nth collection
    #: (0 disables periodic snapshots).  Only used when telemetry is on.
    snapshot_every: int = 1
    #: Keep the last N events in memory (0 = unbounded); ``None`` disables
    #: the ring buffer.  Events land in ``RunReport.events``.
    ring_buffer: Optional[int] = None
    #: Fold events into a Prometheus-style counter snapshot
    #: (``RunReport.counters``).
    counters: bool = False
    #: Extra telemetry sinks (anything with ``accept(event)``) to
    #: subscribe for the duration of the run.  Not closed by the harness.
    sinks: Tuple = ()
    #: Attach the sanitizer (shadow graph + differential checker +
    #: invariant suite, ``repro.sanitizer``) for the whole run.  The
    #: first violation fails the run; the report lands in
    #: ``RunReport.sanitizer``.
    sanitize: bool = False
    #: Fault specs (:class:`~repro.sanitizer.faults.FaultSpec`) to arm
    #: before the run — deterministic collector sabotage for checker
    #: validation.  Implies nothing by itself; combine with ``sanitize``.
    faults: Tuple = ()


@dataclass
class RunReport:
    """Outcome of one :func:`run`: the stats plus whatever telemetry the
    options requested (``None`` for artefacts that were not enabled)."""

    stats: RunStats
    #: Host wall seconds per phase (``profile=True``), else ``None``.
    phases: Optional[Dict[str, float]] = None
    #: Prometheus-style name → value snapshot (``counters=True``).
    counters: Optional[Dict[str, float]] = None
    #: Ring-buffered :class:`~repro.obs.events.Event` list
    #: (``ring_buffer`` set).
    events: Optional[List] = None
    #: Lines written to the ``trace`` JSONL sink (0 when not tracing).
    trace_events_written: int = 0
    #: :class:`~repro.sanitizer.report.SanitizerReport` when
    #: ``options.sanitize`` was set, else ``None``.
    sanitizer: Optional[object] = None
    #: :class:`~repro.obs.profiler.ProfileReport` when ``options.profile``
    #: requested the full profiler (``"full"`` / ProfileOptions), else
    #: ``None``.
    profile: Optional[object] = None
    #: :class:`~repro.runtime.tape.ReplayPath`: which code replayed the
    #: mutator tape (compiled kernel or Python, and why), records run in
    #: C and bails by reason.  Host-side counts, not part of ``stats``;
    #: ``None`` for server workloads, which have no tape.
    replay: Optional[object] = None

    @property
    def completed(self) -> bool:
        return self.stats.completed

    @property
    def requests(self):
        """Request-latency results
        (:class:`~repro.workloads.latency.RequestStats`) for server
        workloads; ``None`` for the closed-loop SPEC replays."""
        return self.stats.requests


def _wants_telemetry(options: RunOptions) -> bool:
    return bool(
        options.profile
        or options.trace is not None
        or options.ring_buffer is not None
        or options.counters
        or options.sinks
    )


def _profile_options(options: RunOptions):
    """Coerce ``RunOptions.profile`` into a ProfileOptions-or-None.

    ``False`` and ``True`` keep their legacy meanings (no profiler;
    ``True`` still measures the host wall-time phase split).  ``"full"``
    means profiler defaults; a :class:`~repro.obs.profiler.ProfileOptions`
    instance is used as-is.  Anything else is a :class:`ConfigError`.
    """
    value = options.profile
    if value is False or value is True:
        return None
    # Imported lazily so the plain path never touches the profiler.
    from ..obs.profiler import ProfileOptions

    if value == "full":
        return ProfileOptions()
    if isinstance(value, ProfileOptions):
        return value
    raise ConfigError(
        f"RunOptions.profile must be False, True, 'full' or a "
        f"ProfileOptions, got {value!r}"
    )


def run(
    spec: SpecRef,
    plan: Union[str, BeltwayConfig],
    heap_bytes: int,
    *,
    options: Optional[RunOptions] = None,
) -> RunReport:
    """One complete run; OutOfMemory is reported, not raised.

    ``spec`` is any ref :func:`repro.specs.load` resolves — a benchmark
    name (``"jess"``), a declarative workload file (``"shop.yaml"``), or
    a spec object; ``plan`` a collector spec (``"25.25.100"``,
    ``"gctk:Appel"``, or a parsed
    :class:`~repro.core.config.BeltwayConfig`).  ``options`` selects
    scale/seed and any telemetry; with the defaults the run is
    instrumentation-free and ``RunReport.stats`` is all that is filled.
    Server workloads additionally fill ``RunReport.requests`` with
    request-latency percentiles.
    """
    options = options or RunOptions()
    profile_opts = _profile_options(options)  # validate before building a VM
    bench = load_spec(spec, options.scale)
    vm = VM(
        heap_bytes,
        collector=plan,
        locality=bench.locality,
        debug_verify=options.verify,
        benchmark_name=bench.name,
    )
    sanitizer = None
    injector = None
    if options.faults:
        # Imported lazily so the plain path never touches the sanitizer.
        from ..sanitizer.faults import arm_faults

        injector = arm_faults(vm, options.faults)
    if options.sanitize:
        from ..sanitizer import attach_sanitizer

        sanitizer = attach_sanitizer(vm)
    # The sanitizer (and any faults) must be in place before the engine
    # builds its MutatorContext — bound-method caches freeze the paths in.
    if isinstance(bench, ServerWorkloadSpec):
        engine = ServerMutator(vm, bench, seed=options.seed)
    else:
        engine = SyntheticMutator(vm, bench, seed=options.seed)

    if not _wants_telemetry(options):
        stats = _execute(engine, vm, sanitizer)
        return RunReport(
            stats=stats,
            sanitizer=_sanitizer_report(sanitizer, injector),
            replay=getattr(engine, "replay_path", None),
        )

    bus = TelemetryBus()
    jsonl = ring = counter_sink = None
    if options.trace is not None:
        jsonl = bus.subscribe(JsonlSink(options.trace))
    if options.ring_buffer is not None:
        ring = bus.subscribe(
            RingBufferSink(capacity=options.ring_buffer or None)
        )
    if options.counters:
        counter_sink = bus.subscribe(CounterSink())
    for sink in options.sinks:
        bus.subscribe(sink)
    inst = attach(
        vm, bus,
        snapshot_every=options.snapshot_every,
        profile=bool(options.profile),
    )
    if isinstance(engine, ServerMutator):
        # The engine reads ``bus`` at emit time, so handing it over after
        # attach() keeps the construction-order contract above intact.
        engine.bus = bus
    profiler = None
    if profile_opts is not None:
        from ..obs.profiler import Profiler

        # Shares the harness bus (one instrumentation feeds every sink);
        # attached before run.start so the profiler sees the identity.
        profiler = Profiler(vm, options=profile_opts, bus=bus)
    inst.begin(scale=options.scale, seed=options.seed)
    t0 = time.perf_counter()
    stats = _execute(engine, vm, sanitizer)
    phases = inst.end(stats, total_wall_s=time.perf_counter() - t0)
    profile_report = (
        profiler.finalise(stats) if profiler is not None else None
    )
    if jsonl is not None:
        jsonl.close()
    return RunReport(
        stats=stats,
        phases=phases if options.profile else None,
        counters=counter_sink.snapshot() if counter_sink is not None else None,
        events=list(ring.events) if ring is not None else None,
        trace_events_written=jsonl.count if jsonl is not None else 0,
        sanitizer=_sanitizer_report(sanitizer, injector),
        profile=profile_report,
        replay=getattr(engine, "replay_path", None),
    )


def _sanitizer_report(sanitizer, injector):
    """The run's SanitizerReport (None without ``sanitize``), with any
    fault firings folded in so the report names what was sabotaged."""
    if sanitizer is None:
        return None
    report = sanitizer.report
    if injector is not None:
        report.faults_injected.extend(injector.events)
    return report


def _execute(engine, vm, sanitizer) -> RunStats:
    """Run the mutator; fold OOM and sanitizer violations into the stats."""
    try:
        stats = engine.run()
        if sanitizer is not None:
            sanitizer.check_now()
        return stats
    except OutOfMemory as error:
        return _abort_stats(engine, vm, failure=str(error))
    except _sanitizer_violation() as error:
        return _abort_stats(engine, vm, failure=f"sanitizer: {error}")
    finally:
        TAPES.replayed.add(engine.replay_path)


def _abort_stats(engine, vm, failure: str) -> RunStats:
    """Failed-run stats; server engines still report partial latencies."""
    stats = vm.finish(completed=False, failure=failure)
    if isinstance(engine, ServerMutator):
        stats.requests = engine.request_stats()
    return stats


def _sanitizer_violation():
    """The sanitizer's exception type, imported only when it can occur."""
    from ..sanitizer.report import SanitizerViolation

    return SanitizerViolation


def run_many(
    jobs: Iterable[Job],
    parallel: Optional[bool] = True,
    max_workers: Optional[int] = None,
    store=None,
    bus=None,
) -> List[RunStats]:
    """Run a batch of independent grid cells, in input order: the
    ``results`` of :func:`repro.grid.executor.execute_jobs`, which alone
    decides how the batch runs (store, pool or in-process loop, retries,
    telemetry relay — see there).

    ``parallel=False`` is the explicit escape hatch (useful under
    debuggers, on platforms without ``fork``/``spawn`` headroom, or to
    rule the pool out when bisecting a bug).  All paths return
    bit-identical results: every run re-derives its whole world from
    ``(benchmark, collector, heap_bytes, scale, seed)``.
    """
    return execute_jobs(
        list(jobs), store=store, parallel=parallel, max_workers=max_workers,
        bus=bus,
    ).results


def find_min_heap(
    benchmark: str,
    collector: str,
    scale: float = 1.0,
    seed: int = 13,
    start_bytes: Optional[int] = None,
    max_bytes: int = 4 * 1024 * 1024,
    store=None,
    bus=None,
) -> int:
    """Smallest heap (bytes, frame granularity) where the run completes.

    The doubling/bisection state machine lives in
    :mod:`repro.grid.minsearch`; this is the single-target convenience.
    Batch many searches with :func:`repro.grid.find_min_heaps` so their
    probes fan out together, and pass a store to make replays free.
    The walk below an already-completing start guess bisects downward
    (O(log n) probes) instead of stepping one frame per full run; the
    returned minimum is unchanged.
    """
    return find_min_heaps(
        [(benchmark, collector)],
        scale=scale,
        seed=seed,
        start_bytes=start_bytes,
        max_bytes=max_bytes,
        store=store,
        bus=bus,
        parallel=False,  # a single search is sequential by nature
    )[(benchmark, collector)]
