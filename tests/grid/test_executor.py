"""The grid executor: identity, resume, retry, crash recovery, events.

Everything here runs on a deliberately small jess grid (scale 0.2) so the
whole file stays fast; the properties under test — bit-identity with the
serial loop, executes-only-missing resume, fault tolerance — are size
independent.
"""

import os

import pytest

from repro.grid import GridFailure, ResultStore, cell_key, execute_jobs
from repro.harness.runner import RunOptions, run
from repro.obs import RingBufferSink, TelemetryBus
from repro.obs.events import validate_events

SCALE = 0.2
JOBS = [
    ("jess", "25.25.100", 24 * 1024, SCALE, 13),
    ("jess", "25.25.100", 32 * 1024, SCALE, 13),
    ("jess", "gctk:Appel", 24 * 1024, SCALE, 13),
]


@pytest.fixture(scope="module")
def fresh():
    """Ground truth: one plain run() per job, no executor involved."""
    return [
        run(b, c, h, options=RunOptions(scale=s, seed=seed)).stats
        for (b, c, h, s, seed) in JOBS
    ]


def test_serial_executor_matches_fresh_runs(fresh):
    report = execute_jobs(JOBS, parallel=False)
    assert report.results == fresh
    assert report.execution_mode == "serial"
    assert report.cached == 0 and not report.failures
    assert sorted(map(tuple, report.executed)) == sorted(JOBS)


def test_pool_executor_is_bit_identical(fresh):
    report = execute_jobs(JOBS, force_pool=True, max_workers=2)
    assert report.results == fresh
    assert report.execution_mode == "parallel"


def test_warm_store_serves_everything(tmp_path, fresh):
    store = ResultStore(tmp_path / "s")
    cold = execute_jobs(JOBS, store=store, parallel=False)
    assert cold.results == fresh
    warm = execute_jobs(JOBS, store=store, parallel=False)
    assert warm.results == fresh
    assert warm.cached == len(JOBS)
    # The warm pass is pure lookups: it executes no cell at all.
    assert len(cold.executed) == len(JOBS)
    assert warm.executed == [] and warm.execution_mode == "none"


def test_resume_executes_only_missing_cells(tmp_path, fresh):
    root = tmp_path / "s"
    with ResultStore(root) as store:
        execute_jobs(JOBS[:2], store=store, parallel=False)
    # A new process picking the campaign up: only the third cell runs.
    resumed = ResultStore(root)
    report = execute_jobs(JOBS, store=resumed, parallel=False)
    assert report.results == fresh
    assert report.cached == 2
    assert [tuple(j) for j in report.executed] == [JOBS[2]]


# ----------------------------------------------------------------------
# Fault tolerance (module-level runners: they must pickle for the pool)
# ----------------------------------------------------------------------
def _ok_runner(job):
    from repro.grid.executor import _run_cell

    return _run_cell(job)


def _poison_32k(job):
    if job[2] == 32 * 1024:
        raise RuntimeError("poison cell")
    return _ok_runner(job)


def _crash_once(job):
    """Hard-exit the worker on first sight of the sentinel'd cell."""
    sentinel = os.environ["GRID_TEST_SENTINEL"]
    if job[2] == 32 * 1024:
        try:
            with open(sentinel, "x"):
                pass
            os._exit(1)  # simulates a segfault: no exception, no cleanup
        except FileExistsError:
            pass  # second attempt: behave
    return _ok_runner(job)


def test_failed_cell_is_recorded_not_stored(tmp_path, fresh):
    store = ResultStore(tmp_path / "s")
    report = execute_jobs(
        JOBS, store=store, parallel=False, cell_runner=_poison_32k, retries=1
    )
    assert report.results[0] == fresh[0] and report.results[2] == fresh[2]
    bad = report.results[1]
    assert not bad.completed and bad.failure.startswith("grid: RuntimeError")
    assert report.retries == 1  # one re-attempt before giving up
    assert [f.attempts for f in report.failures] == [2]
    assert isinstance(report.failures[0], GridFailure)
    # Never trust (or persist) a failure: the store has only the good cells.
    key = cell_key(*JOBS[1])
    assert ResultStore(tmp_path / "s").get(key) is None
    assert ResultStore(tmp_path / "s").get(cell_key(*JOBS[0])) == fresh[0]


@pytest.mark.parametrize("force_pool", [False, True], ids=["serial", "pool"])
def test_poison_cell_settles_the_same_on_both_paths(force_pool):
    """Retry / give-up bookkeeping is one ``settle``: the in-process loop
    and the pool loop tell the same story about the same poison cell."""
    bus = TelemetryBus()
    sink = bus.subscribe(RingBufferSink(capacity=4096))
    report = execute_jobs(
        JOBS, parallel=False, force_pool=force_pool, max_workers=2,
        cell_runner=_poison_32k, retries=1, bus=bus,
    )
    events = [e.data for e in sink.events if e.kind == "grid.job"]
    poison = [(d["status"], d["attempt"]) for d in events if d["job"] == 1]
    assert poison == [("retry", 1), ("failed", 2)]
    assert sorted(d["status"] for d in events if d["job"] != 1) == ["done", "done"]
    last = events[-1]
    assert (last["cached"], last["executed"], last["failed"]) == (0, 2, 1)
    assert report.execution_mode == ("parallel" if force_pool else "serial")
    assert (report.cached, len(report.executed), report.retries) == (0, 2, 1)
    assert [(f.job, f.attempts) for f in report.failures] == [(JOBS[1], 2)]
    assert report.results[1].failure.startswith("grid: RuntimeError: poison cell")


def test_worker_crash_recovers_remaining_cells(tmp_path, fresh):
    os.environ["GRID_TEST_SENTINEL"] = str(tmp_path / "sentinel")
    try:
        report = execute_jobs(
            JOBS,
            force_pool=True,
            max_workers=2,
            cell_runner=_crash_once,
            retries=2,
        )
    finally:
        del os.environ["GRID_TEST_SENTINEL"]
    # The crash broke the pool; the serial fallback finished every cell
    # (the sentinel file exists now, so the retry completes normally).
    assert report.results == fresh
    assert report.retries >= 1
    assert not report.failures


def test_oom_results_are_legitimate_and_cached(tmp_path):
    """A heap too small to complete is a *result* (figures need the gap),
    not a grid failure — it must be stored and replayed like any other."""
    job = ("jess", "gctk:Fixed.50", 4 * 1024, SCALE, 13)
    store = ResultStore(tmp_path / "s")
    cold = execute_jobs([job], store=store, parallel=False)
    assert not cold.results[0].completed
    assert not cold.failures  # engine OOM, not an executor fault
    warm = execute_jobs([job], store=store, parallel=False)
    assert warm.cached == 1 and warm.results == cold.results


def _record_heap(job):
    _ORDER.append(job[2])
    return _ok_runner(job)


_ORDER = []


def test_cost_model_orders_small_heaps_first():
    _ORDER.clear()
    jobs = [
        ("jess", "25.25.100", 48 * 1024, SCALE, 13),
        ("jess", "25.25.100", 16 * 1024, SCALE, 13),
        ("jess", "25.25.100", 32 * 1024, SCALE, 13),
    ]
    report = execute_jobs(jobs, parallel=False, cell_runner=_record_heap)
    assert _ORDER == [16 * 1024, 32 * 1024, 48 * 1024]  # longest first
    # ...but results come back in input order regardless.
    assert [r.heap_bytes for r in report.results] == [48 * 1024, 16 * 1024, 32 * 1024]


def test_non_string_collector_runs_uncached(tmp_path):
    from repro.core.config import BeltwayConfig

    store = ResultStore(tmp_path / "s")
    job = ("jess", BeltwayConfig.parse("25.25.100"), 24 * 1024, SCALE, 13)
    first = execute_jobs([job], store=store, parallel=False)
    second = execute_jobs([job], store=store, parallel=False)
    assert second.cached == 0 and len(second.executed) == 1
    assert first.results == second.results


def test_cold_parallel_campaign_matches_serial():
    """A cold campaign fanned over the pool returns what the serial loop
    does.  (How much faster it is lives in the e2e ledger as
    ``parallel_s`` / ``parallel_speedup`` — a tracked number, not a
    pass/fail coin on a loaded two-CPU host.)"""
    jobs = [
        ("jess", "25.25.100", heap * 1024, SCALE, 13)
        for heap in (16, 20, 24, 28, 32, 40, 48, 64)
    ]
    serial = execute_jobs(jobs, parallel=False)
    parallel = execute_jobs(jobs, parallel=True)
    assert parallel.results == serial.results
    assert len(parallel.executed) == len(serial.executed) == len(jobs)


def test_grid_job_events_are_emitted_and_schema_valid(tmp_path):
    bus = TelemetryBus()
    sink = bus.subscribe(RingBufferSink(capacity=65536))
    store = ResultStore(tmp_path / "s")
    execute_jobs(JOBS, store=store, parallel=False, bus=bus)
    execute_jobs(JOBS, store=store, parallel=False, bus=bus)
    events = [e for e in sink.events if e.kind == "grid.job"]
    assert validate_events(events) == len(events)
    statuses = [e.data["status"] for e in events]
    assert statuses.count("done") == len(JOBS)
    assert statuses.count("cached") == len(JOBS)
    keys = {e.data["key"] for e in events}
    assert keys == {cell_key(*job) for job in JOBS}
    # Every grid.job carries its cell's batch ordinal plus the campaign's
    # running totals; the final event accounts for the whole batch.
    for event in events:
        assert event.data["job"] in range(len(JOBS))
    done = [e for e in events if e.data["status"] == "done"]
    assert all(e.data["worker"] > 0 for e in done)
    last = events[-1].data
    assert last["cached"] + last["executed"] + last["failed"] == len(JOBS)
    # The warm pass replays cached cells as run.replay synthesis events.
    replays = [e for e in sink.events if e.kind == "run.replay"]
    assert len(replays) == len(JOBS)
    assert {e.data["key"] for e in replays} == keys
