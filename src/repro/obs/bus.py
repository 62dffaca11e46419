"""The telemetry bus: one publish point, any number of sinks.

A :class:`TelemetryBus` is deliberately tiny: publishers call
:meth:`~TelemetryBus.emit` and every subscribed sink's ``accept`` method
receives the :class:`~repro.obs.events.Event`.  The zero-overhead story
lives one layer up — the instrumentation in :mod:`repro.obs.instrument`
only wraps a VM's hooks when a bus is attached, so a run with no bus
executes the exact pre-telemetry code paths — but the bus itself also
short-circuits: with no sinks, ``emit`` returns before constructing the
event object.

Events must never perturb the simulation: sinks observe counters and the
simulated clock, they do not call back into the heap (the layering rule
in DESIGN.md §10).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from .events import Event


class TelemetryBus:
    """Fan-out of telemetry events to subscribed sinks."""

    __slots__ = ("_sinks",)

    def __init__(self) -> None:
        self._sinks: List[Any] = []

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when at least one sink would observe an event."""
        return bool(self._sinks)

    def subscribe(self, sink):
        """Attach a sink (any object with ``accept(event)``); returns it."""
        if not callable(getattr(sink, "accept", None)):
            raise TypeError(f"sink {sink!r} has no accept(event) method")
        self._sinks.append(sink)
        return sink

    def unsubscribe(self, sink) -> None:
        """Stop delivering to ``sink``; a no-op if it is not subscribed."""
        if sink in self._sinks:
            self._sinks.remove(sink)

    # ------------------------------------------------------------------
    def emit(self, kind: str, time: float, data: Dict[str, Any]) -> Optional[Event]:
        """Publish one event; returns it, or None when nobody listens."""
        if not self._sinks:
            return None
        event = Event(kind, time, data)
        for sink in self._sinks:
            sink.accept(event)
        return event

    def close(self) -> None:
        """Close every sink that supports it (flush files, etc.)."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
