"""The batched minimum-heap search must equal the sequential algorithm.

``MonotoneSearch`` in frame units is property-tested against a straightforward linear reference
on synthetic monotonic predicates (completes iff heap >= threshold) over
a dense lattice of thresholds and starting guesses — including the
walk-down regime the bisection replaced.  The real-workload equivalence
and the warm-store replay are then checked on actual runs.
"""

import pytest

from repro.grid import ResultStore, find_min_heaps
from repro.grid.monotone import MonotoneSearch
from repro.harness.runner import FRAME_BYTES, find_min_heap
from repro.errors import OutOfMemory
from repro.obs import RingBufferSink, TelemetryBus

MAX_BYTES = 64 * FRAME_BYTES


def _drive(search, threshold):
    """Run one search to completion against a monotonic predicate."""
    probes = 0
    while True:
        heap = search.probe()
        if heap is None:
            return probes
        probes += 1
        assert probes < 200, "search does not terminate"
        search.feed(heap >= threshold)


def _reference_min(start, threshold, max_bytes, frame):
    """The pre-batching sequential algorithm, linear walk-down included."""
    heap = start
    if heap >= threshold:  # walk down one frame at a time
        while heap - frame >= 2 * frame and heap - frame >= threshold:
            heap -= frame
        return heap
    while heap < threshold:  # double
        heap *= 2
        if heap > max_bytes:
            return None
    lo, hi = heap // 2, heap
    while hi - lo > frame:  # upward bisection
        mid = max(2 * frame, ((lo + hi) // 2 // frame) * frame)
        if mid in (lo, hi):
            break
        if mid >= threshold:
            hi = mid
        else:
            lo = mid
    return hi


@pytest.mark.parametrize("start_frames", [2, 3, 4, 8, 16])
def test_search_equals_linear_reference(start_frames):
    start = start_frames * FRAME_BYTES
    for threshold_frames in range(2, 40):
        threshold = threshold_frames * FRAME_BYTES
        search = MonotoneSearch(start, MAX_BYTES, FRAME_BYTES)
        _drive(search, threshold)
        expected = _reference_min(start, threshold, MAX_BYTES, FRAME_BYTES)
        assert not search.failed
        assert search.result == expected, (
            f"start={start_frames}f threshold={threshold_frames}f"
        )


def test_search_walk_down_uses_logarithmically_few_probes():
    # Start far above the minimum: the old walk burned one run per frame
    # (here ~46); the bisection needs a handful.
    start, threshold = 48 * FRAME_BYTES, 2 * FRAME_BYTES
    search = MonotoneSearch(start, MAX_BYTES, FRAME_BYTES)
    probes = _drive(search, threshold)
    assert search.result == _reference_min(start, threshold, MAX_BYTES, FRAME_BYTES)
    assert probes <= 10


def test_search_reports_failure_beyond_max_bytes():
    search = MonotoneSearch(2 * FRAME_BYTES, MAX_BYTES, FRAME_BYTES)
    _drive(search, threshold=MAX_BYTES * 2)
    assert search.failed and search.result is None


def test_unsatisfiable_target_raises_out_of_memory(monkeypatch):
    from repro.grid import minsearch

    monkeypatch.setattr(minsearch, "MAX_HEAP_BYTES", 4 * FRAME_BYTES)
    with pytest.raises(OutOfMemory, match="jess/gctk:Fixed.10"):
        find_min_heaps([("jess", "gctk:Fixed.10")], scale=0.2, parallel=False)


# ----------------------------------------------------------------------
# Real workloads
# ----------------------------------------------------------------------
TARGETS = [("jess", "gctk:Appel"), ("db", "gctk:Appel"), ("jess", "25.25.100")]


@pytest.fixture(scope="module")
def individual():
    return {
        target: find_min_heap(target[0], target[1], scale=0.2)
        for target in TARGETS
    }


def test_batched_search_matches_individual_searches(individual):
    batched = find_min_heaps(TARGETS, scale=0.2, parallel=False)
    assert batched == individual


def test_warm_store_replays_search_without_running(tmp_path, individual):
    root = tmp_path / "s"
    with ResultStore(root) as store:
        cold = find_min_heaps(TARGETS, scale=0.2, store=store, parallel=False)
    assert cold == individual

    bus = TelemetryBus()
    sink = bus.subscribe(RingBufferSink())
    warm_store = ResultStore(root)
    warm = find_min_heaps(
        TARGETS, scale=0.2, store=warm_store, parallel=False, bus=bus
    )
    assert warm == individual
    statuses = {e.data["status"] for e in sink.events if e.kind == "grid.job"}
    assert statuses == {"cached"}  # not a single probe re-executed
    assert warm_store.puts == 0
