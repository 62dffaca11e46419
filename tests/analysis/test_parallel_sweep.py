"""The process-parallel sweep must be bit-identical to the serial loop.

Every grid cell re-derives its entire world from (benchmark, collector,
heap_bytes, scale, seed), so fanning the grid out over worker processes
must change nothing but wall-clock.  ``RunStats`` is a plain dataclass;
``==`` compares every field, including the pause records.
"""

import pytest

from repro.analysis.sweep import heap_multipliers, sweep, sweep_grid

#: Small but non-trivial grid: provokes several nursery collections per
#: run while keeping the whole test under a few seconds.
BENCHMARK = "jess"
COLLECTOR = "25.25.100"
MIN_HEAP = 24 * 1024
SCALE = 0.2
SEED = 13


@pytest.fixture(scope="module")
def serial():
    return sweep(
        BENCHMARK,
        COLLECTOR,
        MIN_HEAP,
        heap_multipliers(3),
        scale=SCALE,
        seed=SEED,
        parallel=False,
    )


def test_parallel_sweep_matches_serial(serial):
    parallel = sweep(
        BENCHMARK,
        COLLECTOR,
        MIN_HEAP,
        heap_multipliers(3),
        scale=SCALE,
        seed=SEED,
        parallel=True,
        max_workers=2,
    )
    assert parallel.runs == serial.runs  # heap sizes included


def test_sweep_grid_matches_serial_sweep(serial):
    grid = sweep_grid(
        [BENCHMARK],
        [COLLECTOR],
        {BENCHMARK: MIN_HEAP},
        heap_multipliers(3),
        scale=SCALE,
        seed=SEED,
        parallel=True,
        max_workers=2,
    )
    assert set(grid) == {(BENCHMARK, COLLECTOR)}
    assert grid[(BENCHMARK, COLLECTOR)].runs == serial.runs


def test_serial_run_many_preserves_input_order():
    from repro.harness.runner import run_many

    jobs = [
        (BENCHMARK, COLLECTOR, MIN_HEAP * m, SCALE, SEED) for m in (2, 1)
    ]
    stats = run_many(jobs, parallel=False)
    assert [s.heap_bytes for s in stats] == [MIN_HEAP * 2, MIN_HEAP]
