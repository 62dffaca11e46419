"""Span model: hierarchical intervals derived purely from the event stream.

A :class:`Span` is a named ``[start, end]`` interval on a track, with a
deterministic id and an optional parent — the trace-viewer shape of what
the telemetry bus already publishes.  :func:`build_timeline` folds any
event stream (live :class:`~repro.obs.events.Event` objects or parsed
JSONL dicts) into a :class:`Timeline`; nothing here ever touches the VM
(reads-never-acts, DESIGN §10).

The hierarchy:

* **campaign → job**: ``grid.job`` orchestration events become one
  ``grid:<i>`` span per cell on the campaign track (host-side dispatch
  sequence, not simulated time);
* **run → gc → phase**: each run partition gets a ``run`` span covering
  ``[0, total_cycles]``, one ``gc <reason>`` child per collection, and —
  when the enriched ``gc.end`` counters are present — phase children
  (setup/copy/scan/roots/remset/free/boot) that tile the pause exactly,
  re-derived through the same :class:`~repro.sim.cost.CostModel` linear
  decomposition the pause was charged through;
* **requests**: ``request.start``/``request.end`` pairs become spans on a
  sibling track (service start → completion).

Partitioning is by provenance: events tagged with a ``job`` ordinal (the
cross-process relay tags everything it forwards; ``run.replay`` carries
one) belong to that grid cell, everything else to the root stream, which
is segmented into ``run:<n>`` partitions at ``run.start`` boundaries.

Determinism contract: span ids are built from the cell's *input ordinal*
and per-run collection ordinals — never from store keys (which
fingerprint the substrate tier) or host times — so fixed-seed timelines
are bit-identical across the python and cffi tiers.  The
:meth:`Timeline.canonical` projection (run + gc spans only) is
additionally bit-identical between a cold run whose telemetry was
forwarded live and a warm replay synthesized from ``run.replay`` events,
and is what ``tests/data/golden_trace.json`` pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ...sim.cost import COLLECTION_COMPONENTS as PHASE_COMPONENTS, CostModel
from ..events import Event

#: Event kinds that belong to a run partition (everything the VM and the
#: server engine emit on the simulated clock).
_RUN_KINDS = frozenset(
    {
        "run.start",
        "run.end",
        "gc.start",
        "gc.end",
        "remset.batch",
        "alloc.region",
        "heap.snapshot",
        "phase",
        "request.start",
        "request.end",
        "profiler.survival",
        "profiler.geometry",
    }
)


@dataclass
class Span:
    """One named interval on a track.

    ``sid`` is the deterministic span id (``job:0/gc:3``); ``track`` is a
    ``(partition, thread)`` pair (``("job:0", "vm")``) the exporter maps
    to pid/tid; ``cat`` classifies (``run``/``gc``/``phase``/``request``/
    ``grid``); ``parent`` is the enclosing span's id or ``None``.
    """

    sid: str
    name: str
    cat: str
    start: float
    end: float
    track: Tuple[str, str]
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Timeline:
    """All spans of one trace, in deterministic build order, plus build
    metadata (event/ignore counts, truncated partitions, drop totals)."""

    spans: List[Span] = field(default_factory=list)
    attrs: Dict[str, Any] = field(default_factory=dict)

    def of_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def tracks(self) -> List[Tuple[str, str]]:
        """Distinct tracks in first-appearance order (export pid/tid map)."""
        seen: List[Tuple[str, str]] = []
        for span in self.spans:
            if span.track not in seen:
                seen.append(span.track)
        return seen

    def canonical(self) -> List[Dict[str, Any]]:
        """The tier- and replay-invariant projection: run + gc spans only.

        Campaign spans are host-side scheduling (dispatch order varies
        with pool timing), phase spans require the enriched cold-run
        counters, and request spans cannot be synthesized from a stored
        ``RunStats`` — so none of them can be part of a projection that
        must be bit-identical across cold/warm replays.  What remains —
        ids, names, nesting, and durations in cycles — is pinned by
        ``tests/data/golden_trace.json``.
        """
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
            }
            for s in self.spans
            if s.cat in ("run", "gc")
        ]


def _as_triple(event) -> Tuple[str, float, Dict[str, Any]]:
    if isinstance(event, Event):
        return event.kind, event.time, event.data
    kind = event.get("kind")
    time = event.get("time", 0.0)
    data = {k: v for k, v in event.items() if k not in ("kind", "time")}
    return kind, time, data


def _run_name(data: Dict[str, Any]) -> str:
    return (
        f"{data.get('benchmark', '?')} {data.get('collector', '?')}"
        f"@{data.get('heap_bytes', 0)}"
    )


def partition_runs(events: Iterable):
    """Partition an event stream into runs — the one statement of the
    provenance rule in the module docstring.

    Returns ``(partitions, campaign, ignored)``.  ``partitions`` is a
    list of ``(prefix, [(kind, time, data), ...])`` in timeline order:
    grid cells by job ordinal, then the root stream's ``run:<n>``.  A
    job ordinal can recur across sequential batches (adaptive searches
    like minheap re-dispatch single-cell batches), so a job stream is
    segmented at run boundaries just like the root stream; the first run
    keeps the bare ``job:<i>`` prefix — single-batch campaign ids, the
    golden case — and later ones are ``job:<i>#<n>``.  ``campaign`` is
    the ``grid.job`` events as ``(time, data)``; ``ignored`` counts
    events of unknown or orchestration-only kinds.
    """
    campaign: List[Tuple[float, Dict[str, Any]]] = []
    jobs: Dict[int, List[Tuple[str, float, Dict[str, Any]]]] = {}
    root: List[Tuple[str, float, Dict[str, Any]]] = []
    ignored = 0
    for event in events:
        kind, time, data = _as_triple(event)
        if kind == "grid.job":
            campaign.append((time, data))
        elif kind == "run.replay" or ("job" in data and kind in _RUN_KINDS):
            jobs.setdefault(int(data["job"]), []).append((kind, time, data))
        elif kind in _RUN_KINDS:
            root.append((kind, time, data))
        else:
            ignored += 1
    partitions = []
    for index in sorted(jobs):
        for n, segment in enumerate(_segments(jobs[index]), start=1):
            prefix = f"job:{index}" if n == 1 else f"job:{index}#{n}"
            partitions.append((prefix, segment))
    for n, segment in enumerate(_segments(root), start=1):
        partitions.append((f"run:{n}", segment))
    return partitions, campaign, ignored


def build_timeline(events: Iterable, *, cost_model: Optional[CostModel] = None) -> Timeline:
    """Fold an event stream into a :class:`Timeline`.

    Accepts :class:`~repro.obs.events.Event` objects or parsed JSONL
    dicts, in stream order.  Unknown or orchestration-only kinds are
    counted (``attrs["ignored"]``), never raised on — the builder is a
    reader of last resort and must survive any schema-valid stream.
    """
    cost_model = cost_model or CostModel()
    partitions, campaign, ignored = partition_runs(events)
    timeline = Timeline()
    timeline.attrs = {
        "events": ignored + len(campaign) + sum(len(p) for _, p in partitions),
        "ignored": ignored,
        "jobs": sum(
            prefix.startswith("job:") and "#" not in prefix
            for prefix, _ in partitions
        ),
        "truncated": [],
    }
    _build_campaign(timeline, campaign)
    for prefix, segment in partitions:
        _build_partition(timeline, prefix, segment, cost_model)
    return timeline


def _segments(stream):
    """Split an event stream at run boundaries (``run.start`` or a warm
    ``run.replay``), each of which begins a new partition segment."""
    current: List[Tuple[str, float, Dict[str, Any]]] = []
    for kind, time, data in stream:
        if kind in ("run.start", "run.replay") and current:
            yield current
            current = []
        current.append((kind, time, data))
    if current:
        yield current


def _build_campaign(timeline: Timeline, events) -> None:
    """One ``grid:<i>`` span per cell from its ``grid.job`` events.

    The span covers the cell's dispatch-sequence footprint (first event
    to terminal event); status/worker/attempts ride along as attrs.
    """
    if not events:
        return
    cells: Dict[int, List[Tuple[float, Dict[str, Any]]]] = {}
    for time, data in events:
        cells.setdefault(int(data.get("job", 0)), []).append((time, data))
    for index in sorted(cells):
        rows = cells[index]
        first_t = min(t for t, _ in rows)
        last_t, last = max(rows, key=lambda r: r[0])
        timeline.spans.append(
            Span(
                sid=f"grid:{index}",
                name=f"job {index} {_run_name(last)}",
                cat="grid",
                start=first_t,
                end=last_t,
                track=("campaign", f"job:{index}"),
                attrs={
                    "status": last.get("status", ""),
                    "worker": last.get("worker", 0),
                    "key": last.get("key", ""),
                    "attempts": max(int(d.get("attempt", 0)) for _, d in rows),
                },
            )
        )


def _build_partition(timeline: Timeline, prefix: str, events, cost_model) -> None:
    """Spans of one run partition: run → gc → phase, plus requests.

    Cold partitions carry the live (possibly forwarded) event stream;
    warm partitions carry a single ``run.replay``.  Both produce the
    same canonical run/gc spans.
    """
    replay = None
    run_start = None
    run_end = None
    gc_ends: List[Tuple[float, Dict[str, Any]]] = []
    requests: Dict[Any, Dict[str, Any]] = {}
    request_spans: List[Tuple[Any, float, float, Dict[str, Any]]] = []
    max_time = 0.0
    worker = None
    for kind, time, data in events:
        max_time = max(max_time, float(time))
        if worker is None and "worker" in data:
            worker = data["worker"]
        if kind == "run.replay":
            replay = data
        elif kind == "run.start":
            run_start = data
        elif kind == "run.end":
            run_end = data
        elif kind == "gc.end":
            gc_ends.append((time, data))
            max_time = max(max_time, float(data.get("pause_end", time)))
        elif kind == "request.start":
            requests[data.get("id")] = (time, data)
        elif kind == "request.end":
            started = requests.pop(data.get("id"), None)
            if started is not None:
                request_spans.append((data.get("id"), started[0], time, data))

    vm_track = (prefix, "vm")
    if run_start is None and replay is not None:
        # Warm partition: synthesize run + gc spans from the stored stats.
        run_sid = f"{prefix}/run"
        timeline.spans.append(
            Span(
                sid=run_sid,
                name=_run_name(replay),
                cat="run",
                start=0.0,
                end=float(replay["total_cycles"]),
                track=vm_track,
                attrs={"completed": bool(replay["completed"]), "replay": True},
            )
        )
        for k, pause in enumerate(replay["pauses"], start=1):
            start, end, reason = pause[0], pause[1], pause[2]
            timeline.spans.append(
                Span(
                    sid=f"{prefix}/gc:{k}",
                    name=f"gc {reason}",
                    cat="gc",
                    start=float(start),
                    end=float(end),
                    track=vm_track,
                    parent=run_sid,
                    attrs={"replay": True},
                )
            )
        return
    if run_start is None:
        # Nothing to anchor a run span on; skip the partition entirely.
        return

    run_sid = f"{prefix}/run"
    attrs: Dict[str, Any] = {}
    if worker is not None:
        attrs["worker"] = worker
    if run_end is not None:
        counters = run_end.get("counters", {})
        total_cycles = float(counters.get("run_total_cycles", max_time))
        attrs["completed"] = bool(run_end.get("completed", False))
    else:
        # The forwarding buffer overflowed before run.end: close the run
        # at the last observed instant and say so, loudly.
        total_cycles = max_time
        attrs["truncated"] = True
        timeline.attrs["truncated"].append(prefix)
    timeline.spans.append(
        Span(
            sid=run_sid,
            name=_run_name(run_start),
            cat="run",
            start=0.0,
            end=total_cycles,
            track=vm_track,
            attrs=attrs,
        )
    )

    for k, (time, data) in enumerate(gc_ends, start=1):
        gc_sid = f"{prefix}/gc:{k}"
        gc_attrs: Dict[str, Any] = {
            "collection": data.get("id"),
            "belts": list(data.get("belts", [])),
            "copied_bytes": data.get("copied_bytes", 0),
            "full_heap": data.get("full_heap", False),
        }
        if worker is not None:
            gc_attrs["worker"] = worker
        start = float(data.get("pause_start", time))
        end = float(data.get("pause_end", time))
        timeline.spans.append(
            Span(
                sid=gc_sid,
                name=f"gc {data.get('reason', '?')}",
                cat="gc",
                start=start,
                end=end,
                track=vm_track,
                parent=run_sid,
                attrs=gc_attrs,
            )
        )
        _decompose_phases(
            timeline, gc_sid, vm_track, start, end, data, cost_model, worker
        )

    req_track = (prefix, "requests")
    for rid, start, end, data in request_spans:
        timeline.spans.append(
            Span(
                sid=f"{prefix}/req:{rid}",
                name=str(data.get("task", "request")),
                cat="request",
                start=float(start),
                end=float(end),
                track=req_track,
                parent=run_sid,
                attrs={
                    "latency_cycles": data.get("latency_cycles", 0),
                    "gc_pauses": data.get("gc_pauses", 0),
                    "queue_depth": data.get("queue_depth", 0),
                },
            )
        )


def _decompose_phases(
    timeline, gc_sid, track, start, end, data, cost_model, worker
) -> None:
    """Tile one pause with its cost-model components, exactly.

    ``CostModel.collection_components`` is the linear model the pause
    was charged through, term by term, so the components sum to the pause
    by construction; if they do not (a foreign cost model, or a stream
    without the enrichment counters), no phase spans are emitted rather
    than emitting a lie.
    """
    if "copied_objects" not in data or "scanned_ref_slots" not in data:
        return
    cycles = cost_model.collection_components(**data)
    if sum(cycles.values()) != float(data.get("pause_cycles", end - start)):
        return
    t = start
    for comp, dur in cycles.items():
        if dur <= 0:
            continue
        attrs: Dict[str, Any] = {}
        if worker is not None:
            attrs["worker"] = worker
        timeline.spans.append(
            Span(
                sid=f"{gc_sid}/{comp}",
                name=comp,
                cat="phase",
                start=t,
                end=t + dur,
                track=track,
                parent=gc_sid,
                attrs=attrs,
            )
        )
        t += dur
