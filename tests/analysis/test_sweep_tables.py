"""Unit tests for heap sweeps and console table rendering."""

import pytest

from repro.analysis.sweep import FRAME_BYTES, heap_multipliers, sweep
from repro.analysis.tables import format_bytes, render_mmu, render_series, render_table


def test_heap_multipliers_grid():
    grid = heap_multipliers(points=33)
    assert len(grid) == 33
    assert grid[0] == pytest.approx(1.0)
    assert grid[-1] == pytest.approx(3.0)
    ratios = [b / a for a, b in zip(grid, grid[1:])]
    assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=1e-9)


def test_heap_multipliers_rejects_tiny():
    with pytest.raises(ValueError):
        heap_multipliers(points=1)


def test_sweep_runs_and_aligns():
    result = sweep("jess", "25.25.100", 16 * 1024, [1.0, 2.0], scale=0.2)
    assert len(result.runs) == 2
    assert result.runs[0].heap_bytes % FRAME_BYTES == 0
    series = result.total_time_series()
    assert len(series) == 2
    assert all(v is None or v > 0 for v in series)


def test_sweep_failure_becomes_gap():
    result = sweep("jess", "gctk:Fixed.50", 2 * 1024, [1.0], scale=0.2)
    assert result.total_time_series() == [None]


def test_render_table_alignment():
    text = render_table(["a", "bbb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bbb" in lines[1]
    assert len(lines) == 5


def test_render_series_gaps():
    text = render_series([1.0, 2.0], {"x": [1.5, None]}, "fig")
    assert "--" in text
    assert "1.500" in text
    assert "2.00x" in text


def test_render_mmu():
    curves = {"a": [(10.0, 0.1), (100.0, 0.5)], "b": [(10.0, 0.2), (100.0, 0.6)]}
    text = render_mmu(curves, "mmu")
    assert "0.100" in text and "0.600" in text


def test_format_bytes():
    assert format_bytes(2048) == "2.0KB"
    assert format_bytes(3 * 1024 * 1024) == "3.0MB"
