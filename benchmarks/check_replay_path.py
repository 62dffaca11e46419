#!/usr/bin/env python3
"""CI guard: which code replays the mutator tape on this runner?

    check_replay_path.py cffi      # the compiled kernel, bail ratio < 10%
    check_replay_path.py python    # the Python replay, because of the tier

Runs one plain (nothing attached) jess cell under a Beltway and a gctk
collector and reads ``RunReport.replay``.  A tier that silently fell
back to Python for good — no compiler, an unknown plan, a kernel that
hands every record back — produces the same statistics as a healthy one,
so only this count can fail it (DESIGN §13, the bail-out rule).
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402

MAX_BAIL_RATIO = 0.10


def main(argv) -> int:
    if len(argv) != 1 or argv[0] not in ("cffi", "python"):
        print(__doc__, file=sys.stderr)
        return 2
    expected = argv[0]
    status = 0
    for collector in ("25.25.100", "gctk:Appel"):
        report = repro.run("jess", collector, 25600)
        path = report.replay
        print(f"jess/{collector}: {path.summary_row()}")
        if not report.completed or path.path != expected:
            status = 1
        elif expected == "cffi" and not path.bail_ratio < MAX_BAIL_RATIO:
            status = 1
        elif expected == "python" and path.why != "tier":
            status = 1
    print("ok" if status == 0 else f"FAIL: expected the {expected} path")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
