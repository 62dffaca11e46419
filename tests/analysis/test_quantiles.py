"""repro.quantiles: the one nearest-rank implementation, and proof that
every percentile-reporting layer actually routes through it."""

import pytest

from repro.quantiles import percentile, percentiles


def test_empty_population_is_zero():
    assert percentile([], 0.5) == 0.0
    assert percentiles([], [0.5, 0.99]) == {0.5: 0.0, 0.99: 0.0}


def test_nearest_rank_cases():
    values = [10.0, 20.0, 30.0, 40.0, 50.0]
    assert percentile(values, 0.0) == 10.0   # rank clamps to 1
    assert percentile(values, 0.5) == 30.0   # ceil(2.5) = 3
    assert percentile(values, 0.6) == 30.0   # ceil(3.0) = 3
    assert percentile(values, 0.61) == 40.0  # ceil(3.05) = 4
    assert percentile(values, 1.0) == 50.0   # the maximum, always
    assert percentile([7.0], 0.001) == 7.0


def test_returns_population_members_never_interpolates():
    values = sorted([3.25, 9.5, 11.0, 97.125])
    for q in (0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0):
        assert percentile(values, q) in values


def test_monotone_in_q():
    values = sorted(float((i * 7919) % 1000) for i in range(100))
    qs = [i / 50 for i in range(51)]
    picked = [percentile(values, q) for q in qs]
    assert picked == sorted(picked)


def test_every_layer_shares_the_single_implementation():
    import repro.analysis.pauses as analysis_pauses
    import repro.obs.profiler.attach as profiler
    import repro.quantiles as quantiles
    import repro.workloads.latency as latency

    assert analysis_pauses.percentile is quantiles.percentile
    assert latency.percentile is quantiles.percentile
    assert profiler.summarise is analysis_pauses.summarise


def test_request_stats_uses_the_shared_floats():
    from repro.workloads.latency import RequestStats

    latencies = [float(v) for v in (5, 1, 9, 7, 3, 8, 2, 6, 4, 10)]
    stats = RequestStats.from_latencies(latencies, offered=10)
    ordered = sorted(latencies)
    assert stats.p50_cycles == percentile(ordered, 0.50)
    assert stats.p90_cycles == percentile(ordered, 0.90)
    assert stats.p99_cycles == percentile(ordered, 0.99)
    assert stats.p999_cycles == percentile(ordered, 0.999)
    assert stats.max_cycles == max(latencies)
    assert stats.mean_cycles == pytest.approx(sum(latencies) / 10)
