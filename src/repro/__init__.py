"""repro — a faithful Python reproduction of *Beltway: Getting Around
Garbage Collection Gridlock* (Blackburn, Jones, McKinley, Moss; PLDI 2002).

The package implements, from scratch:

* a simulated word-addressed heap with frames, an object model and a boot
  image (:mod:`repro.heap`);
* the Beltway framework itself — belts, increments, the frame write
  barrier, per-frame-pair remembered sets, collection triggers and the
  dynamic conservative copy reserve (:mod:`repro.core`);
* independent baseline collectors: semi-space, Appel generational and
  fixed-size-nursery generational (:mod:`repro.gctk`);
* six synthetic SPEC-like workloads scaled 1024x down from the paper's
  benchmarks (:mod:`repro.bench`);
* a deterministic cost model and clock (:mod:`repro.sim`), analysis tools
  including MMU curves (:mod:`repro.analysis`), a streaming telemetry bus
  (:mod:`repro.obs`), and one harness entry point per table/figure of the
  paper (:mod:`repro.harness`).

Stable public surface
---------------------

The five names most users need are re-exported here:

* :func:`run` — one (benchmark, collector, heap) run → :class:`RunReport`;
  telemetry (tracing/profiling/counters) selected via :class:`RunOptions`;
* :func:`run_many` — a batch of runs, process-parallel and bit-identical
  to the serial loop;
* :func:`sweep` — one collector across a heap-size grid (the shape every
  figure is built from);
* :func:`find_min_heap` — the paper's "smallest heap that completes";
* :class:`ResultStore` / :func:`find_min_heaps` — the content-addressed
  on-disk result store and the batched minimum-heap search
  (:mod:`repro.grid`): pass ``store=ResultStore(path)`` to any of the
  above and reruns replay from disk instead of recomputing;
* :class:`SLOBound` / :func:`sweep_frontier` / :func:`max_sustainable_rate`
  — SLO-driven evaluation of server workloads (:mod:`repro.slo`):
  throughput–latency frontiers with distilled GC cost, and the knee of
  the frontier under a declared objective;
* :func:`build_timeline` / :class:`TraceExportSink` — the span model
  (:mod:`repro.obs.trace`): fold any telemetry stream into hierarchical
  run → gc → phase spans and export Chrome trace-event / Perfetto JSON;
  :func:`compare_artefacts` diffs two trace/report artefacts
  (``beltway-bench compare``);
* :func:`load_spec` / :func:`load_workload` — unified spec acquisition
  (:mod:`repro.specs`): one loader resolving benchmark names, declarative
  ``.json``/``.yaml`` workload files and spec objects, used by every entry
  point above.  Server workloads (:class:`ServerWorkloadSpec`,
  :mod:`repro.workloads`) run open-loop and report request-latency
  percentiles (:class:`RequestStats`) alongside :class:`RunStats`.

Quick start::

    import repro

    report = repro.run("jess", "25.25.100", 48 * 1024)
    print(report.stats.summary_row())

or, driving a VM by hand::

    from repro import VM, MutatorContext

    vm = VM(heap_bytes=64 * 1024, collector="25.25.100")
    node = vm.define_type("node", nrefs=2, nscalars=1)
    mu = MutatorContext(vm)
    head = mu.alloc(node)           # a rooted handle
    child = mu.alloc(node)
    mu.write(head, 0, child)        # barriered pointer store
    stats = vm.finish()             # cost-model run statistics
"""

from .analysis.compare import (
    ArtefactError,
    CompareResult,
    compare_artefacts,
    compare_metrics,
    extract_metrics,
)
from .analysis.sweep import sweep
from .core.beltway import BeltwayHeap
from .core.config import PAPER_CONFIGS, BeltSpec, BeltwayConfig, PromotionStyle
from .errors import (
    BarrierError,
    ConfigError,
    HeapCorruption,
    InvalidAddress,
    OutOfMemory,
    ReproError,
)
from .grid import ResultStore, cell_key, find_min_heaps
from .harness.runner import (
    RunOptions,
    RunReport,
    find_min_heap,
    run,
    run_many,
)
from .obs import (
    CounterSink,
    Event,
    JsonlLoadReport,
    JsonlSink,
    ProfileReport,
    Profiler,
    RingBufferSink,
    TelemetryBus,
    attach_profiler,
    iter_jsonl,
)
from .obs.trace import (
    Span,
    Timeline,
    TraceExportSink,
    build_timeline,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
)
from .runtime.mutator import MutatorContext
from .runtime.roots import Handle
from .runtime.vm import VM
from .sanitizer import (
    FaultSpec,
    Sanitizer,
    SanitizerReport,
    SanitizerViolation,
    arm_faults,
    attach_sanitizer,
)
from .sim.stats import RunStats
from .slo import (
    Frontier,
    FrontierPoint,
    SLOBound,
    max_sustainable_rate,
    sweep_frontier,
)
from .specs import fingerprint, load as load_spec
from .workloads import (
    ArrivalSpec,
    RequestStats,
    RequestTask,
    ServerWorkloadSpec,
    load_file as load_workload,
)

__version__ = "3.0.0"

__all__ = [
    # consolidated run API
    "run",
    "run_many",
    "sweep",
    "find_min_heap",
    "RunOptions",
    "RunReport",
    # unified spec acquisition + server workloads
    "load_spec",
    "fingerprint",
    "load_workload",
    "ServerWorkloadSpec",
    "RequestTask",
    "ArrivalSpec",
    "RequestStats",
    # grid store + batched search
    "ResultStore",
    "cell_key",
    "find_min_heaps",
    # SLO-driven evaluation
    "SLOBound",
    "Frontier",
    "FrontierPoint",
    "sweep_frontier",
    "max_sustainable_rate",
    # telemetry
    "TelemetryBus",
    "Event",
    "JsonlSink",
    "RingBufferSink",
    "CounterSink",
    "iter_jsonl",
    "JsonlLoadReport",
    # span model + trace export
    "Span",
    "Timeline",
    "TraceExportSink",
    "build_timeline",
    "to_perfetto",
    "validate_perfetto",
    "write_perfetto",
    # artefact comparison
    "ArtefactError",
    "CompareResult",
    "compare_artefacts",
    "compare_metrics",
    "extract_metrics",
    # profiler
    "attach_profiler",
    "Profiler",
    "ProfileReport",
    # sanitizer
    "attach_sanitizer",
    "Sanitizer",
    "SanitizerReport",
    "SanitizerViolation",
    "FaultSpec",
    "arm_faults",
    # VM building blocks
    "VM",
    "MutatorContext",
    "Handle",
    "RunStats",
    "BeltwayHeap",
    "BeltwayConfig",
    "BeltSpec",
    "PromotionStyle",
    "PAPER_CONFIGS",
    # errors
    "ReproError",
    "ConfigError",
    "OutOfMemory",
    "HeapCorruption",
    "InvalidAddress",
    "BarrierError",
    "__version__",
]
