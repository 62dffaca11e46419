"""Tests for pause-time distribution analysis."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.pauses import percentile, summarise


PAUSES = [(0, 10), (50, 55), (100, 140), (200, 202)]


def test_summarise_basics():
    out = summarise(PAUSES)
    assert out.count == 4
    assert out.total == 10 + 5 + 40 + 2
    assert out.mean == pytest.approx(57 / 4)
    assert out.max == 40
    assert out.p50 in (5, 10)


def test_summarise_empty():
    out = summarise([])
    assert out.count == 0 and out.max == 0.0


def test_percentile_nearest_rank():
    values = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert percentile(values, 0.5) == 5
    assert percentile(values, 0.9) == 9
    assert percentile(values, 0.99) == 10
    assert percentile(values, 0.01) == 1
    assert percentile([], 0.5) == 0.0


@given(st.lists(st.floats(min_value=0.1, max_value=1000), min_size=1, max_size=40))
def test_percentile_bounds(durations):
    values = sorted(durations)
    for q in (0.1, 0.5, 0.9, 1.0):
        p = percentile(values, q)
        assert values[0] <= p <= values[-1]
