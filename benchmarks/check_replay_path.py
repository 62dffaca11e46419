#!/usr/bin/env python3
"""CI guard: which code replays the mutator tape on this runner?

    check_replay_path.py cffi      # the compiled kernel, bail ratio < 10%
    check_replay_path.py python    # the Python replay, because of the tier

Runs one plain (nothing attached) jess cell and one kvstore server cell
under a Beltway and a gctk collector and reads ``RunReport.replay``.  A
tier that silently fell back to Python for good — no compiler, an unknown
plan, a kernel that hands every record back — produces the same
statistics as a healthy one, so only this count can fail it (DESIGN §13,
the bail-out rule).  Marks are scheduled hand-backs and not in the ratio,
and neither is a move onto a frame the plan granted (``granted``), so
both cells are gated: what crosses a frame without a grant is a trigger,
a time-to-die switch, a full increment or the end of a storage slab.  A
plan that stopped granting fresh frames would still pass the ratio, so
the kvstore cells, mostly a heap's first fill, are also gated on
``granted`` being over MIN_GRANTS_PER_BAIL times ``alloc_slow``.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402

MAX_BAIL_RATIO = 0.10
MIN_GRANTS_PER_BAIL = 20
KVSTORE = str(Path(__file__).resolve().parent.parent / "examples/workloads/kvstore.json")
#: (label, spec ref, heap bytes)
CELLS = (("jess", "jess", 25600), ("kvstore", KVSTORE, 256 * 1024))


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("cffi", "python"):
        print(__doc__, file=sys.stderr)
        return 2
    expected = argv[0]
    status = 0
    for label, ref, heap in CELLS:
        for collector in ("25.25.100", "gctk:Appel"):
            report = repro.run(ref, collector, heap)
            path = report.replay
            print(f"{label}/{collector}: {path.summary_row()}")
            if not report.completed or path.path != expected:
                status = 1
            elif expected == "cffi" and not path.bail_ratio < MAX_BAIL_RATIO:
                status = 1
            elif (expected == "cffi" and label == "kvstore" and
                  path.bails["alloc_slow"] * MIN_GRANTS_PER_BAIL > path.granted):
                status = 1
            elif expected == "python" and path.why != "tier":
                status = 1
    print("ok" if status == 0 else f"FAIL: expected the {expected} path")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
