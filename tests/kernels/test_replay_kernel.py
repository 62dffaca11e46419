"""The compiled tape kernel against the Python replay (DESIGN §13).

``k_replay`` executes a tape's fast-path records in C and hands every
other record back to ``runtime.tape.replay``'s one Python body (the
bail-out rule).  Nothing here looks at a clock: the kernel must leave the
VM in exactly the state the Python replay leaves it in — statistics,
access counters, barrier and remset totals, footprint peak, root table —
and must bail exactly as often as the reference path leaves *its* fast
path, so a kernel that bails too eagerly or too lazily fails a count.
"""

import dataclasses
from array import array

import pytest

from repro import RunOptions, run
from repro.bench.engine import TAPES, SyntheticMutator, ensure_standard_types
from repro.bench.spec import benchmark_spec
from repro.errors import HeapCorruption, OutOfMemory
from repro.grid.store import stats_to_dict
from repro.kernels import TIER_ENV, available
from repro.runtime import tape as T
from repro.runtime.mutator import MutatorContext
from repro.runtime.vm import VM
from repro.sanitizer.faults import FaultSpec

from ..core.test_counter_equivalence import GOLDEN

pytestmark = pytest.mark.skipif(
    not available()["cffi"].startswith("ok"),
    reason=f"cffi tier unavailable: {available()['cffi']}",
)

SCALE, SEED = GOLDEN["scale"], GOLDEN["seed"]

#: The end-to-end benchmark's ``spec_mix`` table: Appel minimum heaps
#: (bytes, scale 1.0, seed 13), each run at twice that.
SPEC_MIX_MIN_HEAP = {
    "jess": 12800, "javac": 46080, "db": 29696,
    "pseudojbb": 77312, "raytrace": 14848, "jack": 17920,
}
CELLS = [
    (benchmark, collector, golden["heap_bytes"], SCALE)
    for benchmark, collector, golden in (
        (*name.split("/", 1), golden)
        for name, golden in sorted(GOLDEN["cells"].items())
    )
] + [
    (benchmark, collector, 2 * heap, 1.0)
    for benchmark, heap in SPEC_MIX_MIN_HEAP.items()
    for collector in ("25.25.100", "gctk:Appel")
]


@pytest.fixture(autouse=True)
def empty_cache_on_the_cffi_tier(monkeypatch):
    """``run()`` takes its tier from the environment; cells built here
    name theirs explicitly."""
    monkeypatch.setenv(TIER_ENV, "cffi")
    TAPES.clear()
    yield
    TAPES.clear()


def observe(vm, mu, stats=None) -> dict:
    """Everything a replay leaves behind that a later reader could see."""
    barrier = vm.plan.barrier.stats
    remsets = vm.plan.remsets
    return {
        "stats": stats_to_dict(stats if stats is not None else vm.finish()),
        "load_count": vm.space.load_count,
        "store_count": vm.space.store_count,
        "barrier": (barrier.fast_path, barrier.slow_path, barrier.null_stores),
        "remset": (remsets.inserts, remsets.duplicate_inserts, len(remsets)),
        "field_ops": (vm.field_reads, vm.field_writes, vm.work_units),
        "peak_footprint_frames": vm.peak_footprint_frames,
        "root_slots": list(mu.table.slots),
        "root_free": list(mu.table._free[: mu.table._nfree]),
    }


def run_cell(benchmark, collector, heap, scale, tier, seed=SEED, prepare=None):
    """One cell -> (what it left behind, its ReplayPath, its VM)."""
    spec = benchmark_spec(benchmark, scale)
    vm = VM(heap, collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    if prepare is not None:
        prepare(vm)
    engine = SyntheticMutator(vm, spec, seed=seed)
    try:
        stats = engine.run()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
    return observe(vm, engine.mu, stats), engine.replay_path, vm


# ----------------------------------------------------------------------
# Equal to the Python replay, on a miss and on a hit
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "name,collector,heap,scale", CELLS,
    ids=[f"{b}/{c}@{h}x{s}" for b, c, h, s in CELLS],
)
def test_cell_equals_the_python_replay_on_miss_and_hit(name, collector, heap, scale):
    miss, miss_path, _ = run_cell(name, collector, heap, scale, "cffi")
    assert len(TAPES) == 1
    hit, hit_path, _ = run_cell(name, collector, heap, scale, "cffi")
    reference, python_path, _ = run_cell(name, collector, heap, scale, "python")
    assert miss == reference and hit == reference
    assert reference["stats"]["completed"]
    for path in (miss_path, hit_path):
        assert path.path == "cffi" and path.why is None
        assert path.in_c + sum(path.bails.values()) == path.records
        assert path.bails["fault"] == 0 and path.bail_ratio < 0.15
    assert hit_path == miss_path
    assert (python_path.path, python_path.why) == ("python", "tier")
    assert python_path.in_c == 0 and python_path.records == hit_path.records


COLLECTORS = ("25.25.100", "25.25.MOS", "100.100",
              "gctk:Appel", "gctk:SS", "gctk:Fixed.25")


def test_one_tape_under_six_collectors():
    heap, scale = 64 * 1024, 0.3
    for collector in COLLECTORS:
        got, path, _ = run_cell("jack", collector, heap, scale, "cffi")
        want, _, _ = run_cell("jack", collector, heap, scale, "python")
        assert got == want, collector
        assert path.path == "cffi" and got["stats"]["collections"] > 0, collector
    assert len(TAPES) == 1


@pytest.mark.parametrize("cell", ["javac/25.25.100@41984", "jack/gctk:Fixed.25@12288"])
def test_oom_cell_fails_at_the_same_record(cell):
    """The first dies inside a trace, the second in the allocator; both
    from a record the kernel handed back, so message and partial counters
    are the reference path's own."""
    benchmark, rest = cell.split("/", 1)
    collector, heap = rest.split("@")
    got, path, _ = run_cell(benchmark, collector, int(heap), SCALE, "cffi")
    want, _, _ = run_cell(benchmark, collector, int(heap), SCALE, "python")
    assert not want["stats"]["completed"] and want["stats"]["failure"]
    assert got == want
    assert path.path == "cffi" and path.in_c > 0


# ----------------------------------------------------------------------
# Hand-built tapes: the reference path's exact errors
# ----------------------------------------------------------------------
def hand_tape(records, tier, collector):
    vm = VM(32 * 1024, collector=collector, tier=tier)
    ensure_standard_types(vm)
    mu = MutatorContext(vm)
    chunk = array("i", [field for record in records for field in record])
    error = None
    path = T.ReplayPath()
    try:
        T.replay(mu, [chunk], ("node", "refarr"), (1.5,), path)
    except (HeapCorruption, OutOfMemory) as caught:
        error = (type(caught), str(caught))
    return error, observe(vm, mu), path


NODE, REFARR = 0, 1
PREFIX = [
    (T.OP_ALLOC, NODE, 0, 0),        # slot 0
    (T.OP_ALLOC_INT, NODE, 7, 0),    # slot 1
    (T.OP_WORK, 0, 0, 0),
    (T.OP_WRITE_REF, 0, 1, 1),
    (T.OP_COUNT_READ, 0, 1, 0),
]
BAD_TAPES = {
    "ref slot out of range": (
        [(T.OP_WRITE_REF, 0, 99, 1)], HeapCorruption, "ref slot 99 out of range"),
    "store through a dropped handle": (
        [(T.OP_DROP, 0, 0, 0), (T.OP_WRITE_REF, 0, 0, 1)],
        HeapCorruption, "reference store through a null handle"),
    "load through a dropped handle": (
        [(T.OP_DROP, 1, 0, 0), (T.OP_READ_ROOTED, 1, 0, 0)],
        HeapCorruption, "reference load through a null handle"),
    "alloc larger than a frame": (
        [(T.OP_ALLOC, REFARR, 1000, 0)], OutOfMemory, "exceeds the frame size"),
    "scalar slot out of range": (
        [(T.OP_WRITE_INT, 1, 5, 3)], HeapCorruption, "scalar slot 5 out of range"),
    "unknown op": ([(42, 0, 0, 0)], HeapCorruption, "unknown tape op 42"),
    "releasing a bogus slot": (
        [(T.OP_DROP, 17, 0, 0)], HeapCorruption, "releasing bogus root slot 17"),
}


@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
@pytest.mark.parametrize("name", sorted(BAD_TAPES))
def test_hand_built_tape_raises_the_reference_error(name, collector):
    tail, kind, text = BAD_TAPES[name]
    got_error, got, path = hand_tape(PREFIX + tail, "cffi", collector)
    want_error, want, _ = hand_tape(PREFIX + tail, "python", collector)
    assert got_error == want_error and got == want
    assert got_error[0] is kind and text in got_error[1]
    assert path.path == "cffi" and path.in_c >= 3
    # The PREFIX's first alloc leaves the frame tail, onto a granted frame
    # or through the slow path; the bad record is the only other one that
    # may leave the fast path for a reason of its own.
    assert path.bails["alloc_slow"] + path.granted >= 1


def test_well_formed_hand_tape_runs_to_the_end():
    tail = [(T.OP_READ_ROOTED, 0, 1, 0), (T.OP_ACQUIRE, 2, 0, 0),
            (T.OP_COUNT, 3, 0, 0), (T.OP_READ_REF, 0, 1, 0),
            (T.OP_WRITE_INT, 1, 1, -5), (T.OP_WRITE_REF, 0, 2, -1),
            (T.OP_DROP, 2, 0, 0), (T.OP_ALLOC, REFARR, 4, 0)]
    for collector in ("25.25.100", "gctk:SS"):
        got_error, got, path = hand_tape(PREFIX + tail, "cffi", collector)
        want_error, want, _ = hand_tape(PREFIX + tail, "python", collector)
        assert got_error is None and want_error is None and got == want
        assert got["root_slots"][2] != 0 and got["root_free"] == []
        assert path.bails["fault"] == 0 and path.in_c + sum(path.bails.values()) == 13


# ----------------------------------------------------------------------
# Anything attached: zero records in C, behaviour as before
# ----------------------------------------------------------------------
ATTACHED = {
    "sanitize": {"sanitize": True},
    "counters": {"counters": True},
    "profile": {"profile": "full"},
}


@pytest.mark.parametrize("name", sorted(ATTACHED))
def test_attached_runs_replay_in_python(name):
    plain = RunOptions(scale=SCALE, seed=SEED)
    clean = run("jess", "25.25.100", 24 * 1024, options=plain)
    assert clean.replay.path == "cffi" and len(TAPES) == 1
    report = run("jess", "25.25.100", 24 * 1024,
                 options=dataclasses.replace(plain, **ATTACHED[name]))
    assert report.stats == clean.stats
    assert (report.replay.path, report.replay.why) == ("python", "attached")
    assert report.replay.in_c == 0
    assert report.replay.records == clean.replay.records
    if name == "sanitize":
        assert report.sanitizer.ok and report.sanitizer.collections_checked > 0


def test_armed_fault_replays_in_python_and_is_detected_on_a_hit():
    plain = RunOptions(scale=SCALE, seed=SEED)
    assert run("jess", "25.25.100", 24 * 1024, options=plain).completed
    assert len(TAPES) == 1
    sabotaged = dataclasses.replace(
        plain, sanitize=True, faults=(FaultSpec("barrier.drop-entry", nth=5),)
    )
    report = run("jess", "25.25.100", 24 * 1024, options=sabotaged)
    assert not report.completed
    assert report.sanitizer.violations[0].check == "remset-completeness"
    assert (report.replay.path, report.replay.why) == ("python", "attached")
    assert report.replay.in_c == 0
    # A fault alone (no sanitizer) attaches through the seam as well.
    armed = dataclasses.replace(plain, faults=sabotaged.faults)
    assert run("jess", "25.25.100", 24 * 1024, options=armed).replay.in_c == 0


# ----------------------------------------------------------------------
# The bail-count identity
# ----------------------------------------------------------------------
def count_slow_allocs(counts):
    """``prepare`` hook: count the ``vm.alloc`` calls whose first bump
    attempt fails, on the reference path's own slow-path entries."""

    def prepare(vm):
        plan = vm.plan
        if hasattr(plan, "_alloc_slow"):  # Beltway: entered iff the bump failed
            inner = plan._alloc_slow

            def alloc_slow(size):
                counts["slow"] += 1
                return inner(size)

            plan._alloc_slow = alloc_slow
            return
        # gctk: one grow-or-collect loop per plan; an alloc left the fast
        # path iff that loop grew the region, collected, or gave up.
        state = {"slow": False}

        def marking(inner):
            def marked(*args, **kwargs):
                state["slow"] = True
                return inner(*args, **kwargs)
            return marked

        for name in ("_acquire_into", "minor_collect", "collect"):
            if hasattr(plan, name):
                setattr(plan, name, marking(getattr(plan, name)))
        inner_words = plan._alloc_words

        def alloc_words(size):
            state["slow"] = False
            try:
                return inner_words(size)
            finally:
                counts["slow"] += state["slow"]

        plan._alloc_words = alloc_words

    return prepare


@pytest.mark.parametrize("collector", COLLECTORS)
@pytest.mark.parametrize("name", ["jess", "javac"])
def test_bails_equal_the_reference_paths_slow_path_entries(name, collector):
    heap = GOLDEN["cells"][f"{name}/25.25.100"]["heap_bytes"] * 2
    got, path, vm = run_cell(name, collector, heap, SCALE, "cffi")
    counts = {"slow": 0}
    want, _, _ = run_cell(name, collector, heap, SCALE, "python",
                          prepare=count_slow_allocs(counts))
    assert got == want and got["stats"]["completed"]
    # A granted move onto the next frame is a slow-path entry but no bail.
    assert path.bails["alloc_slow"] + path.granted == counts["slow"] > 0
    assert path.bails["barrier_slow"] == vm.plan.barrier.stats.slow_path
    # The table grows one slot per bail (or inside a bailed alloc).
    assert 0 < path.bails["root_grow"] <= len(got["root_slots"])
    assert path.bails["fault"] == 0


# ----------------------------------------------------------------------
# The shared heap view stays equal to the space it mirrors
# ----------------------------------------------------------------------
@pytest.mark.parametrize("collector", COLLECTORS)
def test_heap_view_mirrors_the_space_after_a_run(collector):
    _, path, vm = run_cell("jack", collector, 64 * 1024, 0.3, "cffi")
    assert path.path == "cffi"
    view = vm.kernels._view(vm.model)
    view.sync()
    space = vm.space
    n = len(space._frames)
    assert view.ctx.n_frames == n
    assert list(view._orders_buf[0:n]) == space.orders
    assert bytes(view._mapped_buf[0:n]) == bytes(space.mapped_bytes)
    young = getattr(vm.plan.barrier, "nursery_frames", set())
    assert {i for i in range(n) if view._young_buf[i]} == set(young)
    assert not any(view._in_from_buf[0:n])
