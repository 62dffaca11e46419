"""Event tracing: a machine-readable timeline of a run.

Records the collection-level events of a run — when each GC happened on
the simulated clock, what it collected, what it copied and freed — plus
periodic heap-shape snapshots, and serialises them as JSON lines.  This
is the artefact to diff when two collector versions disagree, and the
input for external plotting.

Since the telemetry bus landed (``repro.obs``), :class:`Tracer` is a thin
*subscriber* on that bus rather than a second hook path into the
collector: attaching a tracer attaches standard VM instrumentation
(``repro.obs.instrument.attach``) to a private bus and folds the richer
``gc.end`` / ``heap.snapshot`` events down to the legacy two-kind
``TraceEvent`` timeline, so traces written before and after the bus
existed stay diffable line for line.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import IO, Dict, List

from ..obs import TelemetryBus, attach
from ..runtime.vm import VM

#: gc.end payload keys copied verbatim into a "collection" TraceEvent —
#: exactly the fields the pre-bus tracer recorded, in its spelling.
_COLLECTION_KEYS = (
    "id", "reason", "belts", "from_frames", "copied_words",
    "copied_objects", "freed_frames", "remset_slots", "full_heap",
)


@dataclass(frozen=True)
class TraceEvent:
    """One traced event (collection or snapshot)."""

    kind: str  # "collection" | "snapshot"
    time: float  # simulated cycles at the event
    data: Dict

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "time": self.time, **self.data},
            sort_keys=True,
        )


class Tracer:
    """Attach to a VM before the run; read ``events`` after it.

    ``snapshot_every=N`` records a heap-shape snapshot after every Nth
    collection; ``snapshot_every=0`` (the default) disables periodic
    snapshots — :meth:`snapshot` still records one on demand.  Negative
    values raise ``ValueError``.
    """

    def __init__(self, vm: VM, snapshot_every: int = 0):
        self.vm = vm
        self.events: List[TraceEvent] = []
        self.bus = TelemetryBus()
        # All hooks into the VM live in the shared instrumentation; the
        # tracer itself only folds bus events down to TraceEvents.
        self._inst = attach(vm, self.bus, snapshot_every=snapshot_every)
        self.bus.subscribe(self)

    # ------------------------------------------------------------------
    # Bus subscriber
    # ------------------------------------------------------------------
    def accept(self, event) -> None:
        if event.kind == "gc.end":
            data = {key: event.data[key] for key in _COLLECTION_KEYS}
            self.events.append(
                TraceEvent(kind="collection", time=event.time, data=data)
            )
        elif event.kind == "heap.snapshot":
            self.events.append(
                TraceEvent(kind="snapshot", time=event.time, data=dict(event.data))
            )

    def snapshot(self) -> TraceEvent:
        """Record the current heap shape."""
        self._inst.snapshot_now()
        return self.events[-1]

    def detach(self) -> None:
        """Stop tracing and return the VM to the untouched-code path.

        The recorded ``events`` stay readable; the VM's counters advance
        bit-identically to a never-traced VM from here on.  Safe to call
        more than once.
        """
        self._inst.detach()
        self.bus.unsubscribe(self)

    # ------------------------------------------------------------------
    def collections(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "collection"]

    def snapshots(self) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == "snapshot"]

    def write_jsonl(self, stream: IO[str]) -> int:
        """Write one JSON object per line; returns the event count."""
        for event in self.events:
            stream.write(event.to_json())
            stream.write("\n")
        return len(self.events)


def attach_tracer(vm: VM, snapshot_every: int = 0) -> Tracer:
    """Attach a :class:`Tracer` to ``vm`` and return it (public API)."""
    return Tracer(vm, snapshot_every=snapshot_every)


def load_jsonl(stream: IO[str]) -> List[Dict]:
    """Parse a trace written by :meth:`Tracer.write_jsonl`."""
    return [json.loads(line) for line in stream if line.strip()]
