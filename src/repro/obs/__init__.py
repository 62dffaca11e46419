"""repro.obs — the streaming GC observability layer (telemetry bus).

One event substrate for everything the paper's evaluation measures:
collections (start/end, bytes copied, reserve state), remset batches,
allocation-region rollovers, per-phase host time and periodic heap
occupancy — published by attach-time instrumentation so a run with no
subscriber executes the untouched fast paths (golden counters stay
bit-identical), and consumed by JSONL streams, in-memory ring buffers or
Prometheus-style counter snapshots.

Typical use::

    from repro.obs import TelemetryBus, JsonlSink, attach

    bus = TelemetryBus()
    bus.subscribe(JsonlSink("trace.jsonl"))
    attach(vm, bus, snapshot_every=1)
    ...  # run the workload
    bus.close()

The harness wires this up for you: ``repro.run(...)`` with
``RunOptions(trace=...)``, or ``beltway-bench run --trace out.jsonl``.
"""

from .bus import TelemetryBus
from .events import (
    EVENT_SCHEMAS,
    Event,
    SchemaError,
    pauses_from_events,
    validate_event,
    validate_events,
)
from .instrument import Instrumentation, attach
from .relay import DropTally, ForwardedCell, ForwardingSink, replay_events
from .sinks import (
    CounterSink,
    JsonlLoadReport,
    JsonlSink,
    RingBufferSink,
    iter_jsonl,
)
from .profiler import (
    ProfileReport,
    Profiler,
    attach_profiler,
)

__all__ = [
    "CounterSink",
    "DropTally",
    "EVENT_SCHEMAS",
    "Event",
    "ForwardedCell",
    "ForwardingSink",
    "Instrumentation",
    "JsonlLoadReport",
    "JsonlSink",
    "ProfileReport",
    "Profiler",
    "RingBufferSink",
    "SchemaError",
    "TelemetryBus",
    "attach",
    "attach_profiler",
    "iter_jsonl",
    "pauses_from_events",
    "replay_events",
    "validate_event",
    "validate_events",
]
