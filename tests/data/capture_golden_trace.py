#!/usr/bin/env python3
"""Capture the fixed-seed golden span timeline (ISSUE 10).

Run from the repository root::

    PYTHONPATH=src python tests/data/capture_golden_trace.py [--out PATH]

The golden pins the *canonical projection* of the span model — run + gc
spans (ids, names, nesting, start/end in simulated cycles) for a small
fixed-seed campaign.  The projection is required to be bit-identical

* across the python and cffi substrate tiers,
* between a cold run (telemetry forwarded live from the worker) and a
  warm replay (spans synthesized from stored ``RunStats``),

so ``tests/obs/test_golden_trace.py`` replays the same campaign against
this file on every tier.  Campaign/phase/request spans are deliberately
outside the projection — see ``Timeline.canonical``.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.grid import execute_jobs
from repro.obs import RingBufferSink, TelemetryBus
from repro.obs.trace import build_timeline

#: The pinned campaign: one Beltway and one gctk collector, both on a
#: heap small enough to force several collections at scale 0.2.
SCALE = 0.2
SEED = 13
JOBS = [
    ("jess", "25.25.100", 24 * 1024, SCALE, SEED),
    ("jess", "gctk:Appel", 24 * 1024, SCALE, SEED),
]


def capture() -> list:
    bus = TelemetryBus()
    ring = bus.subscribe(RingBufferSink(capacity=65536))
    execute_jobs(JOBS, parallel=False, bus=bus)
    return build_timeline(ring.events).canonical()


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument(
        "--out", type=Path,
        default=Path(__file__).resolve().parent / "golden_trace.json")
    args = parser.parse_args()
    golden = {
        "jobs": [list(job) for job in JOBS],
        "canonical": capture(),
    }
    args.out.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    spans = len(golden["canonical"])
    print(f"golden trace: {spans} canonical spans -> {args.out}")


if __name__ == "__main__":
    main()
