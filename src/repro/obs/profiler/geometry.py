"""Heap-geometry timeline: who owns the frames, sampled over the run.

Each sample walks the mapped frames of the address space directly
(``frame.space_name`` / ``frame.used_words`` — metadata reads, never
``space.load``) and records per-label occupancy: frames held and words
bumped per belt (``belt0``, ``belt1``, ...) or gctk space (``nursery``,
``mature``, ``ss``).  Samples are taken at collection boundaries and at
every ``heap.snapshot`` event, so the timeline has exactly the cadence
the telemetry layer already exposes.  ``ProfileReport.to_markdown``
renders it as a table: one row per sample, one column per label.
"""

from __future__ import annotations

from typing import Dict, List


class GeometryTimeline:
    """Per-label frame/word occupancy samples over simulated time."""

    def __init__(self) -> None:
        self.rows: List[dict] = []
        self._labels: Dict[str, None] = {}  # insertion-ordered label set

    def sample(self, time: float, trigger: str, space) -> dict:
        """Record one occupancy sample; returns the row just appended."""
        occupancy: Dict[str, List[int]] = {}
        for frame in space.iter_frames():
            label = frame.space_name
            if label == "boot":
                continue
            cell = occupancy.get(label)
            if cell is None:
                cell = occupancy[label] = [0, 0]
                self._labels.setdefault(label, None)
            cell[0] += 1
            cell[1] += frame.used_words
        row = {
            "time": time,
            "trigger": trigger,
            "frames_in_use": space.heap_frames_in_use,
            "frames_total": space.heap_frames,
            "occupancy": occupancy,
        }
        self.rows.append(row)
        return row

    @property
    def labels(self) -> List[str]:
        """Every label ever observed, in first-seen order."""
        return list(self._labels)
