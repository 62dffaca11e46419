"""Tests for RunStats derived metrics."""

import pytest

from repro.sim.clock import PauseRecord
from repro.sim.stats import RunStats


def make_stats(**kwargs):
    base = dict(benchmark="x", collector="y", heap_bytes=1024)
    base.update(kwargs)
    return RunStats(**base)


def test_gc_fraction():
    stats = make_stats(total_cycles=100.0, gc_cycles=25.0)
    assert stats.gc_fraction == 0.25
    assert make_stats().gc_fraction == 0.0


def test_seconds_conversion_consistent():
    stats = make_stats(total_cycles=1e6, gc_cycles=5e5)
    assert stats.gc_seconds == pytest.approx(stats.total_seconds / 2)


def test_max_pause():
    pauses = [PauseRecord(0, 10, "a"), PauseRecord(20, 55, "b")]
    stats = make_stats(pauses=pauses)
    assert stats.max_pause_cycles == 35
    assert make_stats().max_pause_cycles == 0.0


def test_pause_intervals():
    pauses = [PauseRecord(1, 2, "a")]
    stats = make_stats(pauses=pauses)
    assert stats.pause_intervals() == [(1, 2)]


def test_late_occupancy_floor():
    stats = make_stats(post_gc_occupancy_bytes=[100, 90, 80, 50, 70, 60])
    # last half = [50, 70, 60] -> 50
    assert stats.late_occupancy_floor() == 50
    assert make_stats().late_occupancy_floor() == 0
    assert make_stats(post_gc_occupancy_bytes=[5]).late_occupancy_floor() == 0


def test_summary_row_mentions_failure():
    ok = make_stats()
    bad = make_stats(completed=False, failure="OOM")
    assert "ok" in ok.summary_row()
    assert "FAIL" in bad.summary_row()
    assert "OOM" in bad.summary_row()
