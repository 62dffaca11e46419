"""Unit tests for the telemetry bus, event schemas, and the three sinks."""

import io
import json

import pytest

from repro.obs import (
    CounterSink,
    Event,
    JsonlSink,
    RingBufferSink,
    SchemaError,
    TelemetryBus,
    iter_jsonl,
    pauses_from_events,
    validate_event,
    validate_events,
)


def _gc_end(time=100.0, **over):
    data = {
        "id": 1, "reason": "belt0", "belts": [0], "increments": 1,
        "from_frames": 2, "copied_objects": 3, "copied_words": 12,
        "copied_bytes": 48, "freed_frames": 2, "remset_slots": 0,
        "full_heap": False, "pause_start": 90.0, "pause_end": 100.0,
        "pause_cycles": 10.0, "heap_frames_in_use": 5, "reserve_frames": 1,
        "wall_s": 0.001,
    }
    data.update(over)
    return Event("gc.end", time, data)


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
def test_emit_without_sinks_constructs_nothing():
    bus = TelemetryBus()
    assert not bus.active
    assert bus.emit("gc.start", 0.0, {}) is None


def test_emit_fans_out_to_all_sinks():
    bus = TelemetryBus()
    a, b = RingBufferSink(), RingBufferSink()
    bus.subscribe(a)
    bus.subscribe(b)
    assert bus.active
    event = bus.emit("phase", 1.0, {"name": "mutator", "wall_s": 0.5})
    assert event is not None
    assert a.events == [event] and b.events == [event]
    bus.unsubscribe(b)
    bus.emit("phase", 2.0, {"name": "total", "wall_s": 1.0})
    assert len(a) == 2 and len(b) == 1


def test_subscribe_rejects_non_sinks():
    with pytest.raises(TypeError):
        TelemetryBus().subscribe(object())


# ----------------------------------------------------------------------
# Events / schemas
# ----------------------------------------------------------------------
def test_event_json_roundtrip():
    event = _gc_end()
    parsed = json.loads(event.to_json())
    assert parsed["kind"] == "gc.end" and parsed["time"] == 100.0
    rebuilt = Event.from_dict(parsed)
    assert rebuilt == event


def test_validate_accepts_event_and_flat_dict():
    event = _gc_end()
    validate_event(event)
    validate_event(json.loads(event.to_json()))
    assert validate_events([event, event]) == 2


def test_validate_rejects_unknown_kind_and_missing_fields():
    with pytest.raises(SchemaError):
        validate_event(Event("gc.teleport", 0.0, {}))
    with pytest.raises(SchemaError):
        validate_event(Event("gc.start", 0.0, {"seq": 1}))  # missing keys


def test_validate_rejects_bool_where_number_declared():
    with pytest.raises(SchemaError):
        validate_event(_gc_end(copied_words=True))


def test_extra_keys_allowed():
    validate_event(_gc_end(custom_annotation="ok"))


def test_pauses_from_events():
    events = [_gc_end(pause_start=10.0, pause_end=15.0),
              Event("phase", 20.0, {"name": "total", "wall_s": 1.0}),
              _gc_end(pause_start=30.0, pause_end=37.0)]
    assert pauses_from_events(events) == [(10.0, 15.0), (30.0, 37.0)]
    flat = [json.loads(e.to_json()) for e in events]
    assert pauses_from_events(flat) == [(10.0, 15.0), (30.0, 37.0)]


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
def test_jsonl_sink_stream_and_load():
    stream = io.StringIO()
    sink = JsonlSink(stream)
    sink.accept(_gc_end())
    sink.accept(_gc_end(time=200.0, id=2))
    sink.close()  # external stream: flushed, not closed
    assert not stream.closed
    assert sink.count == 2
    stream.seek(0)
    lines = list(iter_jsonl(stream))
    assert [l["id"] for l in lines] == [1, 2]
    assert validate_events(lines) == 2


def test_jsonl_sink_owns_path(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    sink.accept(_gc_end())
    sink.close()
    assert len(list(iter_jsonl(path))) == 1


def test_ring_buffer_capacity_and_kinds():
    ring = RingBufferSink(capacity=3)
    for i in range(5):
        ring.accept(_gc_end(time=float(i), id=i))
    ring.accept(Event("phase", 9.0, {"name": "total", "wall_s": 1.0}))
    assert ring.accepted == 6
    assert len(ring) == 3  # oldest evicted
    assert [e.data["id"] for e in ring.of_kind("gc.end")] == [3, 4]
    with pytest.raises(ValueError):
        RingBufferSink(capacity=0)


def test_ring_buffer_overflow_counts_oldest_dropped():
    """Overflow is oldest-dropped and explicitly accounted: ``dropped``
    counts evictions, and ``accepted == len(sink) + dropped`` always."""
    ring = RingBufferSink(capacity=2)
    assert ring.dropped == 0
    ring.accept(_gc_end(id=0))
    ring.accept(_gc_end(id=1))
    assert ring.dropped == 0  # full, but nothing evicted yet
    for i in range(2, 7):
        ring.accept(_gc_end(id=i))
    assert ring.dropped == 5
    assert ring.accepted == 7
    assert ring.accepted == len(ring) + ring.dropped
    # Survivors are the most recent events, in arrival order.
    assert [e.data["id"] for e in ring.events] == [5, 6]


def test_ring_buffer_unbounded_never_drops():
    ring = RingBufferSink()  # capacity=None: keep everything
    for i in range(100):
        ring.accept(_gc_end(id=i))
    assert ring.dropped == 0
    assert len(ring) == ring.accepted == 100
    # clear() empties the buffer but keeps the lifetime accounting.
    ring.clear()
    assert len(ring) == 0 and ring.accepted == 100 and ring.dropped == 0


def test_counter_sink_folds_stream():
    sink = CounterSink()
    sink.accept(_gc_end(pause_cycles=10.0))
    sink.accept(_gc_end(id=2, pause_cycles=30.0, full_heap=True))
    sink.accept(Event("remset.batch", 110.0, {
        "inserts": 7, "drained_slots": 5, "dropped_entries": 1, "entries": 2,
    }))
    sink.accept(Event("alloc.region", 120.0, {
        "frame": 9, "space": "belt0", "heap_frames_in_use": 6,
    }))
    snap = sink.snapshot()
    assert snap["gc_collections_total"] == 2
    assert snap["gc_full_heap_total"] == 1
    assert snap["gc_pause_cycles_total"] == 40.0
    assert snap["gc_max_pause_cycles"] == 30.0
    assert snap["remset_inserts_total"] == 7
    assert snap["alloc_region_rollovers_total"] == 1
    assert snap["heap_frames_in_use"] == 6.0


# ----------------------------------------------------------------------
# Streaming loader
# ----------------------------------------------------------------------
def _jsonl_with_noise():
    good = _gc_end()
    unknown = Event("gc.teleport", 1.0, {"x": 1})
    return "\n".join([
        good.to_json(),
        "{not json at all",
        unknown.to_json(),
        "",  # blank lines are not an error
        _gc_end(time=200.0, id=2).to_json(),
    ]) + "\n"


def test_iter_jsonl_is_lazy_and_matches_load(tmp_path):
    path = tmp_path / "events.jsonl"
    sink = JsonlSink(path)
    sink.accept(_gc_end())
    sink.accept(_gc_end(time=200.0, id=2))
    sink.close()
    iterator = iter_jsonl(path)
    assert iter(iterator) is iterator  # a generator, not a list
    assert list(iterator) == [json.loads(line) for line in path.read_text().splitlines()]


def test_iter_jsonl_validate_skips_and_counts(tmp_path):
    from repro.obs import JsonlLoadReport

    path = tmp_path / "noisy.jsonl"
    path.write_text(_jsonl_with_noise())
    report = JsonlLoadReport()
    events = list(iter_jsonl(path, validate=True, report=report))
    assert [e["id"] for e in events] == [1, 2]
    assert report.corrupt == 1 and report.invalid == 1
    assert report.skipped == 2
    assert report.events == 2
    assert report.lines == 4  # blank lines are not counted


def test_iter_jsonl_without_validate_raises_on_corruption(tmp_path):
    path = tmp_path / "noisy.jsonl"
    path.write_text(_jsonl_with_noise())
    with pytest.raises(ValueError):
        list(iter_jsonl(path))
