"""The cross-process telemetry relay: bounded forwarding, loss accounting.

The drop contract under test (see ``repro.obs.relay``): the forwarding
buffer keeps a contiguous causal *prefix* of the worker's stream
(drop-newest), every drop is counted, and the counts surface in the
campaign report, on the terminal ``grid.job`` event, and in the
:class:`DropTally` — never silently.
"""

from repro.grid import ResultStore, execute_jobs
from repro.obs import Event, RingBufferSink, TelemetryBus
from repro.obs.events import validate_events
from repro.obs.relay import (
    DEFAULT_FORWARD_CAPACITY,
    DropTally,
    ForwardedCell,
    ForwardingSink,
    replay_events,
)
from repro.obs.trace import build_timeline

SCALE = 0.2
JOB = ("jess", "25.25.100", 24 * 1024, SCALE, 13)


def _event(i):
    return Event("phase", float(i), {"name": f"p{i}", "wall_s": 0.0})


# ----------------------------------------------------------------------
# ForwardingSink
# ----------------------------------------------------------------------
def test_forwarding_sink_keeps_everything_under_capacity():
    sink = ForwardingSink(capacity=8)
    for i in range(5):
        sink.accept(_event(i))
    assert sink.accepted == 5 and sink.dropped == 0
    assert [t for _, t, _ in sink.events] == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_forwarding_sink_drops_newest_on_overflow():
    sink = ForwardingSink(capacity=3)
    for i in range(10):
        sink.accept(_event(i))
    assert sink.accepted == 10
    assert sink.dropped == 7
    # The retained events are the contiguous *head* of the stream: a
    # drop-oldest policy would orphan gc.end events from their run.start.
    assert [t for _, t, _ in sink.events] == [0.0, 1.0, 2.0]
    assert sink.accepted == len(sink.events) + sink.dropped


def test_forwarding_sink_unbounded_and_default():
    assert ForwardingSink().capacity == DEFAULT_FORWARD_CAPACITY
    sink = ForwardingSink(capacity=None)
    for i in range(20000):
        sink.accept(_event(i))
    assert sink.dropped == 0 and len(sink.events) == 20000


def test_forwarding_sink_rejects_nonpositive_capacity():
    import pytest

    with pytest.raises(ValueError):
        ForwardingSink(capacity=0)


def test_forwarding_sink_snapshots_event_data():
    sink = ForwardingSink(capacity=4)
    event = _event(0)
    sink.accept(event)
    event.data["name"] = "mutated"
    assert sink.events[0][2]["name"] == "p0"


# ----------------------------------------------------------------------
# replay_events + DropTally
# ----------------------------------------------------------------------
def test_replay_tags_worker_job_and_key():
    sink = ForwardingSink(capacity=4)
    for i in range(3):
        sink.accept(_event(i))
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=16))
    count = replay_events(bus, sink.events, worker=4242, job=7, key="k123")
    assert count == 3
    for event in ring.events:
        assert event.data["worker"] == 4242
        assert event.data["job"] == 7
        assert event.data["key"] == "k123"
    # Tags are extra keys; the replayed events stay schema-valid.
    assert validate_events(ring.events) == 3


def test_drop_tally_sums_grid_job_annotations():
    tally = DropTally()
    tally.accept(Event("grid.job", 0.0, {"forwarded_events": 10,
                                         "forwarded_dropped": 3}))
    tally.accept(Event("grid.job", 1.0, {"forwarded_events": 5}))
    tally.accept(Event("phase", 2.0, {"forwarded_dropped": 99}))  # ignored
    assert tally.forwarded == 15
    assert tally.dropped == 3


# ----------------------------------------------------------------------
# Executor integration: overflow is loud, the timeline stays coherent
# ----------------------------------------------------------------------
def test_executor_overflow_is_counted_and_timeline_stays_coherent(tmp_path):
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=65536))
    tally = bus.subscribe(DropTally())
    report = execute_jobs([JOB], parallel=False, bus=bus, forward_capacity=16)
    assert report.forwarded_events == 16
    assert report.forwarded_dropped > 0
    # The terminal grid.job event carries the same accounting ...
    done = [e for e in ring.events if e.kind == "grid.job"][-1]
    assert done.data["forwarded_events"] == 16
    assert done.data["forwarded_dropped"] == report.forwarded_dropped
    # ... and the tally saw it without access to the report.
    assert tally.forwarded == 16
    assert tally.dropped == report.forwarded_dropped
    # The merged timeline is truncated, not corrupt: the run span closes
    # at the last observed instant and the truncation is flagged.
    timeline = build_timeline(ring.events)
    runs = timeline.of_cat("run")
    assert len(runs) == 1
    assert runs[0].attrs.get("truncated") is True
    assert timeline.attrs["truncated"] == ["job:0"]
    for span in timeline.of_cat("gc"):
        assert runs[0].start <= span.start <= span.end <= runs[0].end


def test_executor_forwarding_report_counts_lossless_case():
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=65536))
    report = execute_jobs([JOB], parallel=False, bus=bus)
    assert report.forwarded_dropped == 0
    assert report.forwarded_events > 0
    kinds = {e.kind for e in ring.events}
    assert {"run.start", "gc.end", "run.end", "grid.job"} <= kinds


def test_executor_without_bus_does_not_forward():
    report = execute_jobs([JOB], parallel=False)
    assert report.forwarded_events == 0 and report.forwarded_dropped == 0


def test_custom_cell_runner_may_return_forwarded_cell():
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=64))
    report = execute_jobs(
        [JOB], parallel=False, bus=bus, cell_runner=_wrapped_runner
    )
    assert report.results[0].completed
    assert report.forwarded_events == 1
    assert report.forwarded_dropped == 2
    replayed = [e for e in ring.events if e.kind == "phase"]
    assert replayed and replayed[0].data["worker"] == 99


def _wrapped_runner(job):
    from repro.grid.executor import _run_cell

    return ForwardedCell(
        result=_run_cell(job),
        events=[("phase", 0.0, {"name": "x", "wall_s": 0.0})],
        dropped=2,
        worker=99,
    )
