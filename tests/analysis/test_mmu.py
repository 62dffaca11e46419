"""Unit + property tests for the MMU computation (Fig. 11 machinery)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.mmu import (
    max_pause,
    mmu,
    mmu_curve,
    overall_utilisation,
    worst_window,
)


def test_no_pauses_full_utilisation():
    assert mmu([], 1000.0, 100.0) == 1.0
    assert overall_utilisation([], 1000.0) == 1.0


def test_single_pause_blocks_small_windows():
    pauses = [(400.0, 500.0)]
    # any window of exactly the pause length inside it has zero utilisation
    assert mmu(pauses, 1000.0, 100.0) == pytest.approx(0.0)
    assert mmu(pauses, 1000.0, 50.0) == pytest.approx(0.0)
    # a 200-cycle window can be at worst half paused
    assert mmu(pauses, 1000.0, 200.0) == pytest.approx(0.5)


def test_x_intercept_is_max_pause():
    """The MMU curve is zero up to the maximum pause (Fig. 11 x-intercept)."""
    pauses = [(100.0, 150.0), (300.0, 420.0)]
    assert max_pause(pauses) == 120.0
    assert mmu(pauses, 1000.0, 120.0) == pytest.approx(0.0)
    assert mmu(pauses, 1000.0, 121.0) > 0.0


def test_asymptote_is_overall_throughput():
    pauses = [(100.0, 200.0), (500.0, 600.0)]
    total = 1000.0
    assert mmu(pauses, total, total) == pytest.approx(
        overall_utilisation(pauses, total)
    )
    assert overall_utilisation(pauses, total) == pytest.approx(0.8)


def test_clustered_pauses_hurt_mmu():
    """Clustering matters: same total pause time, worse MMU when adjacent
    (the phenomenon MMU was designed to expose, §4.3)."""
    spread = [(100.0, 150.0), (800.0, 850.0)]
    clustered = [(100.0, 150.0), (160.0, 210.0)]
    window = 300.0
    assert mmu(clustered, 1000.0, window) < mmu(spread, 1000.0, window)


def test_curve_monotone_and_bounded():
    pauses = [(50.0, 80.0), (200.0, 260.0), (270.0, 300.0)]
    curve = mmu_curve(pauses, 1000.0, [10, 50, 100, 200, 400, 1000])
    values = [m for _, m in curve]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values)  # monotonically non-decreasing


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=900),
            st.floats(min_value=1, max_value=80),
        ),
        max_size=12,
    ),
    st.floats(min_value=1, max_value=1000),
)
def test_mmu_bounds_property(raw, window):
    # build sorted, disjoint pauses
    pauses = []
    cursor = 0.0
    for start, duration in sorted(raw):
        begin = max(start, cursor)
        end = begin + duration
        if end > 2000.0:
            break
        pauses.append((begin, end))
        cursor = end + 1.0
    total = 2500.0
    value = mmu(pauses, total, window)
    assert 0.0 <= value <= 1.0
    # never better than the overall utilisation
    assert value <= overall_utilisation(pauses, total) + 1e-9


def test_window_longer_than_run_clamped():
    pauses = [(10.0, 20.0)]
    assert mmu(pauses, 100.0, 500.0) == pytest.approx(0.9)


def test_worst_window_locates_the_minimum():
    pauses = [
        (100.0, 150.0), (400.0, 420.0), (420.0, 500.0), (1000.0, 1500.0),
        (5000.0, 5010.0), (9000.0, 9900.0),
    ]
    # A 100-cycle window is fully paused in the back-to-back [400, 500)
    # stretch and inside both long pauses; the earliest is reported.
    assert worst_window(pauses, 10_000.0, 100.0) == (0.0, 400.0, 100.0)
    # Every 200-cycle window holding all of [400, 500) ties; the earliest
    # anchor is the one *ending* at 500.
    assert worst_window(pauses[:3], 10_000.0, 200.0) == (0.5, 300.0, 100.0)
    # Nothing to locate: no pauses, or a zero-length run.
    assert worst_window([], 100.0, 10.0) == (1.0, 0.0, 0.0)
    assert worst_window(pauses, 0.0, 10.0) == (1.0, 0.0, 0.0)
