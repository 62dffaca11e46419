"""MonotoneSearch: property-pinned against an exhaustive linear walk.

For any threshold predicate on a step lattice, the doubling/bisection
search must land on exactly the value a linear walk finds, while issuing
strictly fewer probes on all but trivially small ranges.
"""

import itertools

import pytest

from repro.grid import monotone
from repro.grid.monotone import MonotoneSearch, drive_searches, round_to_step
from repro.sim.stats import RunStats


def drive(search, predicate):
    """Run a search to completion; returns (result_or_None, probes)."""
    probes = []
    while True:
        value = search.probe()
        if value is None:
            break
        probes.append(value)
        search.feed(predicate(value))
    return (None if search.failed else search.result), probes


def linear_minimum(predicate, floor, max_value, step):
    """Exhaustive reference: the smallest satisfying lattice value."""
    probes = 0
    for value in range(floor, max_value + 1, step):
        probes += 1
        if predicate(value):
            return value, probes
    return None, probes


STEPS = (1, 3, 64)
FLOORS_IN_STEPS = (1, 2, 5)
THRESHOLDS_IN_STEPS = (1, 2, 3, 7, 15, 31, 63)
STARTS_IN_STEPS = (1, 2, 4, 9, 40)


@pytest.mark.parametrize("step,floor_k,threshold_k,start_k", [
    (step, floor_k, threshold_k, start_k)
    for step, floor_k, threshold_k, start_k in itertools.product(
        STEPS, FLOORS_IN_STEPS, THRESHOLDS_IN_STEPS, STARTS_IN_STEPS)
])
def test_matches_linear_reference(step, floor_k, threshold_k, start_k):
    floor = floor_k * step
    threshold = threshold_k * step
    # Callers always place the start on the lattice at or above the
    # floor (round_to_step) — that is the search's input contract.
    start = round_to_step(start_k * step, step, floor)
    max_value = 64 * step
    predicate = lambda value: value >= threshold

    expected, _ = linear_minimum(predicate, floor, max_value, step)
    search = MonotoneSearch(start, max_value, step, floor=floor)
    result, probes = drive(search, predicate)

    # The doubling ladder from the start guess is the search's reach:
    # overshooting max_value without a success is a declared failure
    # (the historical minsearch semantics — callers pick a max_value
    # that is a generous power-of-two multiple of the start).
    ladder, value = [], start
    while value <= max_value:
        ladder.append(value)
        value *= 2
    if any(predicate(value) for value in ladder):
        # The true minimum, clamped to the floor — values below it are
        # not probed; the virtual failure seeds the down-phase.
        assert result == expected == max(floor, threshold)
    else:
        assert result is None and search.failed
    assert all(value % step == 0 for value in probes)
    assert all(floor <= value <= max_value for value in probes)
    assert len(probes) == len(set(probes)), "a value was probed twice"


def test_fails_when_nothing_satisfies():
    search = MonotoneSearch(100, 1600, 100, floor=100)
    result, probes = drive(search, lambda value: False)
    assert result is None and search.failed
    assert probes == [100, 200, 400, 800, 1600]
    assert search.hi == 1600  # highest probed value, for reporting


def test_probe_budget_is_logarithmic():
    step, floor, max_value = 1, 2, 4096
    for threshold in (2, 17, 1000, 4095):
        predicate = lambda value: value >= threshold
        _, linear_probes = linear_minimum(predicate, floor, max_value, step)
        _, probes = drive(
            MonotoneSearch(floor, max_value, step, floor=floor), predicate)
        assert len(probes) <= 2 * max_value.bit_length()
        # On ranges a linear walk would grind through, bisection wins by
        # at least 2x (thresholds right next to the start are a wash).
        if linear_probes > 64:
            assert len(probes) <= linear_probes / 2


def test_round_to_step():
    assert round_to_step(1234, 100, 100) == 1200
    assert round_to_step(1200, 100, 100) == 1200
    assert round_to_step(50, 100, 100) == 100
    assert round_to_step(0, 100, 200) == 200
    assert round_to_step(1000.7, 256, 512) == 768


def test_minsearch_is_the_same_machine():
    """grid.minsearch's search is MonotoneSearch in frame units with a
    two-frame floor — the generalisation must not have moved it."""
    search = MonotoneSearch(1024, 1 << 20, 256)
    assert isinstance(search, MonotoneSearch)
    assert search.step == 256
    assert search.floor == 512
    threshold = 13 * 256
    result, _ = drive(search, lambda value: value >= threshold)
    assert result == threshold


THRESHOLDS = {"short": 3 * 256, "long": 37 * 256}


def _canned_cell(job):
    """Completes iff the heap reaches the target's threshold; no VM."""
    target, collector, heap, _scale, _seed = job
    return RunStats(
        benchmark=target, collector=collector, heap_bytes=heap,
        completed=heap >= THRESHOLDS[target],
    )


def test_drive_searches_batches_only_the_still_active_targets(monkeypatch):
    """One execute_jobs batch per lockstep round; a search that has
    finished stops contributing probes while the longer one carries on,
    and each issues exactly the probe sequence it would alone."""
    alone = {
        target: drive(MonotoneSearch(1024, 1 << 16, 256), lambda v: v >= threshold)
        for target, threshold in THRESHOLDS.items()
    }
    short, long = len(alone["short"][1]), len(alone["long"][1])
    assert 0 < short < long

    batches = []
    real = monotone.execute_jobs

    def recording(jobs, **grid):
        batches.append([(job[0], job[2]) for job in jobs])
        return real(jobs, **grid)

    monkeypatch.setattr(monotone, "execute_jobs", recording)
    searches = {t: MonotoneSearch(1024, 1 << 16, 256) for t in THRESHOLDS}
    drive_searches(
        searches,
        lambda target, heap: (target, "canned", heap, 1.0, 13),
        lambda _target, _heap, stats: stats.completed,
        parallel=False,
        cell_runner=_canned_cell,
    )
    assert {t: s.result for t, s in searches.items()} == THRESHOLDS
    assert len(batches) == long  # rounds, not probes
    assert [len(batch) for batch in batches] == [2] * short + [1] * (long - short)
    for target, (_result, probes) in alone.items():
        issued = [heap for batch in batches for t, heap in batch if t == target]
        assert issued == probes
