"""Structural tests of the experiment harness at reduced scale.

Full experiment validation happens in ``benchmarks/``; these tests check
the *plumbing* quickly — result shapes, caching, series alignment — with
short workloads and tiny grids.
"""

import pytest

from repro.analysis.sweep import heap_multipliers
from repro.harness import experiments as E

SCALE = 0.2
POINTS = 3


@pytest.fixture(autouse=True)
def fresh_caches():
    E.clear_caches()
    yield
    E.clear_caches()


def test_min_heap_cached():
    first = E.min_heap("jess", SCALE)
    assert ("jess", SCALE) in E._min_heap_cache
    assert E.min_heap("jess", SCALE) == first


def test_cached_sweep_reused():
    sweep1 = E.cached_sweep("jess", "gctk:Appel", POINTS, SCALE)
    sweep2 = E.cached_sweep("jess", "gctk:Appel", POINTS, SCALE)
    assert sweep1 is sweep2
    assert len(sweep1.runs) == POINTS


def test_geomean_figure_alignment():
    multipliers, series = E._geomean_figure(
        ["gctk:Appel", "25.25.100"], "total_cycles", ["jess"], POINTS, SCALE
    )
    assert multipliers == heap_multipliers(POINTS)
    for curve in series.values():
        assert len(curve) == POINTS
    finite = [
        v for curve in series.values() for v in curve if v is not None
    ]
    assert finite and min(finite) == pytest.approx(1.0)


def test_geomean_figure_treats_zero_work_as_a_gap(monkeypatch):
    """A benchmark that never collects at some heap has ``gc_cycles == 0``
    there: not comparable on a ratio axis, so that column is a gap."""
    from types import SimpleNamespace

    series = {"A": [4.0, 2.0, 0.0], "B": [8.0, None, 1.0]}
    monkeypatch.setattr(E, "min_heaps", lambda benchmarks, scale: None)
    monkeypatch.setattr(
        E, "cached_sweep", lambda benchmark, collector, points, scale:
        SimpleNamespace(series=lambda metric: series[collector]),
    )
    _, combined = E._geomean_figure(["A", "B"], "gc_cycles", ["x", "y"], 3, 1.0)
    # Zero work is a gap, not a crash; a failed run the gap it always was.
    assert combined["A"][2] is None and combined["B"][1] is None
    assert combined["A"][:2] + combined["B"][::2] == pytest.approx([4, 2, 8, 1])


def test_figure5_renders_when_a_benchmark_never_collects():
    """At this scale some cells finish without a single collection; the
    figure renders its panels and judges its shape checks regardless."""
    result = E.figure5(points=POINTS, scale=0.25)
    assert "Figure 5(a)" in result.text and result.checks
    assert any(None in curve for curve in result.data["gc"].values())


def test_figure4_structure():
    result = E.figure4(scale=SCALE)
    assert set(result.data) == {"25.25.100", "Appel", "BOF.25", "gctk:Appel"}
    for entry in result.data.values():
        assert entry["fast"] > 0
    assert "barrier" in result.text


def test_figure1_structure():
    result = E.figure1(points=POINTS, scale=SCALE)
    assert set(result.data["gc_fraction"]) == set(
        ("jess", "raytrace", "db", "javac", "jack", "pseudojbb")
    )
    for curve in result.data["gc_fraction"].values():
        assert len(curve) == POINTS


def test_paired_means_skip_gaps():
    a = [None, 2.0, 4.0]
    b = [1.0, 1.0, 1.0]
    mean_a, mean_b = E._paired_means(a, b, range(3))
    assert mean_a == pytest.approx((2.0 * 4.0) ** 0.5)
    assert mean_b == 1.0
    assert E._paired_means([None], [1.0], [0]) == (None, None)


def test_experiment_registry_complete():
    expected = {
        "table1",
        "figure1",
        "figure23",
        "figure4",
        "figure5",
        "figure6",
        "figure7",
        "figure8",
        "figure9",
        "figure10",
        "figure11",
        "responsiveness",
        "slo",
    }
    assert set(E.ALL_EXPERIMENTS) == expected
    for fn in E.ALL_EXPERIMENTS.values():
        assert callable(fn)
