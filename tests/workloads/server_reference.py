"""Server cells observed down to the root table, and the file that pins
them to the engine this repo had before the request program went on tape.

``tests/data/server_tape_reference.json`` was written by this module at
commit ``d3ea195`` (``ServerMutator`` still an interleaved Python loop)::

    PYTHONPATH=<that checkout>/src python -m tests.workloads.server_reference

It uses nothing newer than that commit's public surface, so running it
again at any later commit must reproduce the file byte for byte — which
is what ``tests/workloads/test_server_tape.py`` asserts, cell by cell, on
a miss and on a hit, on every tier.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.bench.engine import no_gc_heap_bytes
from repro.errors import OutOfMemory
from repro.grid.store import stats_to_dict
from repro.obs.bus import TelemetryBus
from repro.obs.sinks import RingBufferSink
from repro.runtime.vm import VM
from repro.workloads import ServerMutator, from_mapping

REFERENCE = Path(__file__).resolve().parents[1] / "data" / "server_tape_reference.json"
SEED = 13

#: Every lifetime scope, cache traffic with TTLs a few requests long,
#: session churn, old→young links, fractional reads: ~80 requests at the
#: declared rate, ~330 at 4x.
DOC = {
    "name": "mini",
    "duration_s": 0.1,
    "arrival": {"rate_rps": 800},
    "sessions": {"max_concurrent": 4, "requests_per_session": [2, 6],
                 "slots": 6, "seed_objects": 2},
    "cache": {"slots": 48, "ttl_s": [0.005, 0.02]},
    "lifetimes": {"idx": {"lo_bytes": 512, "hi_bytes": 4096}},
    "tasks": [
        {"name": "get", "weight": 3, "cache_lookups": 2, "reads": 1.5,
         "request_bytes": [96, 256],
         "sites": [{"type": "small", "lifetime": "request"}]},
        {"name": "set", "weight": 1, "request_bytes": [128, 384],
         "sites": [
             {"weight": 2, "type": "buf", "lifetime": "cache",
              "length": [8, 24]},
             {"weight": 1, "type": "node", "lifetime": "session",
              "link_prob": 0.5},
             {"weight": 1, "type": "node", "lifetime": "idx"},
         ]},
    ],
}

COLLECTORS = ("25.25.100", "100.100", "gctk:Appel", "gctk:SemiSpace")
#: Heap KB: 4 runs out of memory mid-request, 8 collects inside requests
#: (so expiry stamps move), 96 barely collects; 0 = the no-GC reference.
HEAPS_KB = (4, 8, 96, 0)
RATE_MULTIPLIERS = (1.0, 4.0)
CELLS = [
    (collector, heap_kb, multiplier)
    for collector in COLLECTORS
    for heap_kb in HEAPS_KB
    for multiplier in RATE_MULTIPLIERS
]


def cell_id(collector: str, heap_kb: int, multiplier: float) -> str:
    return f"{collector}@{heap_kb}KBx{multiplier:g}"


def mini_spec(multiplier: float = 1.0, doc=None):
    spec = from_mapping(doc or DOC)
    return spec.with_rate(spec.arrival.rate_rps * multiplier)


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def request_events(events) -> dict:
    """The ``request.start`` / ``request.end`` stream: its length and digest."""
    stream = [
        (event.kind, event.time, sorted(event.data.items()))
        for event in events
        if event.kind in ("request.start", "request.end")
    ]
    return {"request_events": len(stream), "events_sha": _sha(stream)}


def observe(spec, collector: str, heap_bytes: int, *, tier=None, seed=SEED):
    """Run one cell with a bus handed to the engine (nothing attached to
    the VM) -> (what it left behind, the engine)."""
    vm = VM(heap_bytes, collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink())
    engine = ServerMutator(vm, spec, seed=seed, bus=bus)
    try:
        stats = engine.run()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
        stats.requests = engine.request_stats()
    barrier = vm.plan.barrier.stats
    remsets = vm.plan.remsets
    state = {
        "stats": stats_to_dict(stats),
        "load_count": vm.space.load_count,
        "store_count": vm.space.store_count,
        "barrier": (barrier.fast_path, barrier.slow_path, barrier.null_stores),
        "remset": (remsets.inserts, remsets.duplicate_inserts, len(remsets)),
        "field_ops": (vm.field_reads, vm.field_writes, vm.work_units),
        "peak_footprint_frames": vm.peak_footprint_frames,
        "root_slots": list(engine.mu.table.slots),
    }
    return {
        "failure": stats.failure,
        "collections": stats.collections,
        "requests": stats.requests.to_dict(),
        **request_events(ring.events),
        "state_sha": _sha(state),
    }, engine


def observe_cell(collector: str, heap_kb: int, multiplier: float, **kwargs):
    spec = mini_spec(multiplier)
    heap = heap_kb * 1024 if heap_kb else no_gc_heap_bytes(spec)
    return observe(spec, collector, heap, **kwargs)


def main() -> None:
    cells = {cell_id(*cell): observe_cell(*cell)[0] for cell in CELLS}
    REFERENCE.write_text(
        json.dumps({"seed": SEED, "cells": cells}, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(cells)} cells to {REFERENCE}")


if __name__ == "__main__":
    main()
