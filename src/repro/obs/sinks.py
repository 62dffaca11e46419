"""Telemetry sinks: JSONL streaming, ring buffer, counter export.

A sink is any object with ``accept(event)``; these three cover the uses
the harness and tests need:

* :class:`JsonlSink` streams every event as one JSON line — the
  ``beltway-bench run --trace out.jsonl`` artefact, diffable and
  replayable by the analysis layer;
* :class:`RingBufferSink` keeps the last N events in memory — what tests
  and interactive sessions inspect;
* :class:`CounterSink` folds the stream into a flat Prometheus-style
  ``name -> value`` dict — the scrape-shaped export the analysis layer
  consumes instead of reaching into VM internals.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Dict, Iterator, List, Optional, Union

from .events import Event, SchemaError, validate_event


class JsonlSink:
    """Stream events as JSON lines to a path or an open text stream.

    When constructed from a path the file is owned (and closed) by the
    sink; an externally supplied stream is flushed but left open.
    """

    def __init__(self, target: Union[str, Path, IO[str]]):
        if isinstance(target, (str, Path)):
            self._stream: IO[str] = open(target, "w", encoding="utf-8")
            self._owned = True
        else:
            self._stream = target
            self._owned = False
        self.count = 0

    def accept(self, event: Event) -> None:
        self._stream.write(event.to_json())
        self._stream.write("\n")
        self.count += 1

    def close(self) -> None:
        if self._owned:
            if not self._stream.closed:
                self._stream.close()
        else:
            try:
                self._stream.flush()
            except (ValueError, OSError):  # already closed by the owner
                pass


@dataclass
class JsonlLoadReport:
    """What one JSONL load saw: lines read, events yielded, lines skipped.

    ``corrupt`` counts lines that were not valid JSON objects; ``invalid``
    counts parsed events that failed schema validation (unknown kind,
    missing/mistyped required field).  Both are only ever non-zero in
    ``validate=True`` mode — without validation, corrupt lines raise.
    """

    lines: int = 0
    events: int = 0
    corrupt: int = 0
    invalid: int = 0

    @property
    def skipped(self) -> int:
        return self.corrupt + self.invalid


def iter_jsonl(
    source: Union[str, Path, IO[str]],
    *,
    validate: bool = False,
    report: Optional[JsonlLoadReport] = None,
) -> Iterator[dict]:
    """Stream a JSONL trace as flat event dicts, one line at a time.

    The one JSONL reader: a multi-gigabyte campaign trace is consumed
    without materialising the event list (``list(iter_jsonl(path))``
    when the whole list is wanted).  With ``validate=True`` every line
    is checked against the event schemas and bad input is *skipped, not
    raised*: corrupt JSON and schema-invalid events are counted into
    ``report`` (pass a :class:`JsonlLoadReport` to observe the counts)
    so one truncated line cannot take down a whole trace build.  Without
    ``validate``, corrupt JSON raises and no schema checking happens.
    """
    report = report if report is not None else JsonlLoadReport()
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as stream:
            yield from _iter_stream(stream, validate, report)
    else:
        yield from _iter_stream(source, validate, report)


def _iter_stream(stream, validate: bool, report: JsonlLoadReport):
    for line in stream:
        if not line.strip():
            continue
        report.lines += 1
        if validate:
            try:
                obj = json.loads(line)
            except ValueError:
                report.corrupt += 1
                continue
            if not isinstance(obj, dict):
                report.corrupt += 1
                continue
            try:
                validate_event(obj)
            except SchemaError:
                report.invalid += 1
                continue
        else:
            obj = json.loads(line)
        report.events += 1
        yield obj


class RingBufferSink:
    """Keep the most recent ``capacity`` events (all of them if None).

    Overflow semantics are oldest-dropped: once ``capacity`` events are
    buffered, each further ``accept`` silently evicts the oldest event
    before appending the new one (the buffer always holds the most recent
    ``capacity`` events, never blocks, never raises).  ``dropped`` counts
    evictions so far and ``accepted`` counts every event ever offered, so
    ``accepted == len(sink) + sink.dropped`` holds at all times.
    """

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity <= 0:
            raise ValueError(f"ring buffer capacity must be positive, got {capacity}")
        self._buffer: deque = deque(maxlen=capacity)
        self.accepted = 0
        #: Events evicted to make room (oldest-dropped overflow count).
        self.dropped = 0

    def accept(self, event: Event) -> None:
        maxlen = self._buffer.maxlen
        if maxlen is not None and len(self._buffer) == maxlen:
            self.dropped += 1
        self._buffer.append(event)
        self.accepted += 1

    @property
    def events(self) -> List[Event]:
        return list(self._buffer)

    def of_kind(self, kind: str) -> List[Event]:
        return [e for e in self._buffer if e.kind == kind]

    def clear(self) -> None:
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)


class CounterSink:
    """Fold the event stream into a Prometheus-style name→value dict.

    ``*_total`` names are monotonic counters accumulated across events;
    bare names are gauges carrying the latest observation.  ``run.end``
    merges the run's full counter export (see ``RunStats.counters``), so
    a finished run's snapshot is a superset of the live-updated subset.
    """

    def __init__(self) -> None:
        self._values: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def _add(self, name: str, amount: float) -> None:
        self._values[name] = self._values.get(name, 0.0) + amount

    def _max(self, name: str, value: float) -> None:
        if value > self._values.get(name, 0.0):
            self._values[name] = value

    def accept(self, event: Event) -> None:
        kind = event.kind
        data = event.data
        if kind == "gc.end":
            self._add("gc_collections_total", 1)
            self._add("gc_copied_bytes_total", data["copied_bytes"])
            self._add("gc_freed_frames_total", data["freed_frames"])
            self._add("gc_pause_cycles_total", data["pause_cycles"])
            self._max("gc_max_pause_cycles", data["pause_cycles"])
            if data["full_heap"]:
                self._add("gc_full_heap_total", 1)
            self._values["heap_frames_in_use"] = float(data["heap_frames_in_use"])
        elif kind == "remset.batch":
            self._add("remset_inserts_total", data["inserts"])
            self._add("remset_drained_slots_total", data["drained_slots"])
            self._add("remset_dropped_entries_total", data["dropped_entries"])
            self._values["remset_entries"] = float(data["entries"])
        elif kind == "alloc.region":
            self._add("alloc_region_rollovers_total", 1)
            self._values["heap_frames_in_use"] = float(data["heap_frames_in_use"])
        elif kind == "heap.snapshot":
            self._values["heap_frames_in_use"] = float(data["frames_in_use"])
            self._values["heap_occupied_words"] = float(data["occupied_words"])
        elif kind == "phase":
            self._values[f"phase_{data['name']}_seconds"] = float(data["wall_s"])
        elif kind == "run.end":
            for name, value in data["counters"].items():
                self._values[name] = float(value)
            self._values["run_completed"] = float(bool(data["completed"]))

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, float]:
        """A copy of the current name→value export."""
        return dict(self._values)
