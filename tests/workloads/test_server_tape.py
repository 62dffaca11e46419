"""The server engine on the tape (DESIGN §15).

``ServerMutator.run()`` is fetch-or-record, then replay: one
``RequestProgram`` per (seed, spec minus arrival/duration/cap) decides
what the requests do, and every rate, collector and reference heap
replays a prefix of its tape.  The cells of
``tests/data/server_tape_reference.json`` were captured from the
interleaved loop this replaced (``server_reference.py``), so equality
with that file — statistics, access counters, barrier and remset totals,
root table, the ``request.start``/``request.end`` streams, failure
strings — is equality with the deleted engine.  Hit and miss are told
apart by what the cache holds, never by a clock.
"""

import dataclasses
import json

import pytest

from repro import RunOptions, run
from repro.bench.engine import TAPES, ensure_standard_types, no_gc_heap_bytes
from repro.runtime.vm import VM
from repro.workloads.engine import MARK_INSERT, RequestProgram, ServerMutator

from .server_reference import (
    CELLS,
    REFERENCE,
    SEED,
    cell_id,
    mini_spec,
    observe,
    observe_cell,
    request_events,
)

WANT = json.loads(REFERENCE.read_text())["cells"]
#: The Python replay; the compiled tier's half of this file is
#: ``tests/kernels/test_server_replay_kernel.py``.
TIERS = ("python",)


@pytest.fixture(autouse=True)
def empty_cache():
    TAPES.clear()
    yield
    TAPES.clear()


def the_tape():
    (entry,) = TAPES._entries
    return entry[1]


def program_for(spec, seed=SEED):
    vm = VM(64 * 1024)
    ensure_standard_types(vm)
    before = (vm.plan.allocations, vm.space.load_count, vm.space.store_count)
    return RequestProgram(spec, seed, vm.types), vm, before


def tape_bytes(program, n):
    return b"".join(chunk.tobytes() for chunk in program.segments(n))


# ----------------------------------------------------------------------
# The recording is a function of (spec, seed), and of nothing else
# ----------------------------------------------------------------------
def test_recording_twice_is_byte_identical_and_touches_no_vm():
    first, vm, before = program_for(mini_spec())
    again, _, _ = program_for(mini_spec())
    assert tape_bytes(first, 60) == tape_bytes(again, 60) != b""
    assert (first.ttls, first.session_log) == (again.ttls, again.session_log)
    assert (vm.plan.allocations, vm.space.load_count, vm.space.store_count) == before
    other, _, _ = program_for(mini_spec(), seed=SEED + 1)
    assert tape_bytes(other, 60) != tape_bytes(first, 60)


def test_a_lower_rate_is_a_prefix_and_an_extended_tape_is_the_tape():
    fast, _, _ = program_for(mini_spec(4.0))
    slow, _, _ = program_for(mini_spec(0.5))
    whole = tape_bytes(fast, 300)
    for n in (1, 17, 40):
        assert tape_bytes(slow, n) == tape_bytes(fast, n) == whole[: 4 * fast.starts[n]]
    assert list(slow.starts) == list(fast.starts[:40])
    assert list(slow.alloc_bytes) == list(fast.alloc_bytes[:40])
    # ...and growing in steps (the ascending ladder) records the same tape.
    assert tape_bytes(slow, 170) == whole[: 4 * fast.starts[170]]
    assert tape_bytes(slow, 300) == whole
    assert slow.tape.nbytes == fast.tape.nbytes == len(whole)
    assert tape_bytes(fast, 0) == b""


def test_rate_duration_and_cap_share_a_tape_and_nothing_else_does():
    spec = mini_spec()
    observe(spec, "25.25.100", 96 * 1024)
    tape = the_tape()
    recorded = len(tape.summary.starts)
    for same in (mini_spec(0.5), spec.with_duration(0.05), spec.scaled(0.3),
                 dataclasses.replace(spec, max_requests=9)):
        observe(same, "gctk:Appel", 64 * 1024)
        assert the_tape() is tape and len(tape.summary.starts) == recorded
    observe(mini_spec(2.0), "25.25.100", 96 * 1024)
    assert the_tape() is tape and len(tape.summary.starts) > recorded
    assert TAPES.nbytes == tape.nbytes == sum(len(c) * 4 for c in tape.chunks)
    observe(spec, "25.25.100", 96 * 1024, seed=SEED + 1)
    changed = dataclasses.replace(spec, cache=dataclasses.replace(spec.cache, slots=7))
    observe(changed, "25.25.100", 96 * 1024)
    assert len(TAPES) == 3


# ----------------------------------------------------------------------
# Equal to the interleaved loop, on a miss and on a hit
# ----------------------------------------------------------------------
@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("cell", CELLS, ids=[cell_id(*cell) for cell in CELLS])
def test_cell_equals_the_interleaved_loop_on_miss_and_hit(cell, tier):
    want = WANT[cell_id(*cell)]
    miss, engine = observe_cell(*cell, tier=tier)
    assert miss == want
    recorded = len(the_tape().summary.starts)
    hit, again = observe_cell(*cell, tier=tier)
    assert hit == want
    assert len(the_tape().summary.starts) == recorded
    for path in (engine.replay_path, again.replay_path):
        assert (path.path, path.why, path.in_c) == ("python", "tier", 0)
    assert again.replay_path == engine.replay_path
    requests = want["requests"]
    if not want["failure"]:
        assert path.marks == requests["count"] + requests["cache_inserts"]
        assert again.live_objects == engine.live_objects > 0


def test_one_tape_under_every_collector_rate_and_the_reference_heap():
    calls = []
    inner = RequestProgram._request
    RequestProgram._request = lambda self: (calls.append(1), inner(self))[1]
    try:
        # Descending, so every cell after the first four is a pure hit.
        for cell in sorted(CELLS, key=lambda cell: -cell[2]):
            assert observe_cell(*cell, tier="python")[0] == WANT[cell_id(*cell)]
    finally:
        RequestProgram._request = inner
    assert len(TAPES) == 1
    assert len(calls) == len(the_tape().summary.starts) == 329


def test_a_collection_before_an_insert_moves_its_expiry_stamp(monkeypatch):
    """The clock reaches a request's *body* in one place."""
    moved = []
    on_mark = ServerMutator._on_mark

    def watching(self, kind, a, b):
        if kind == MARK_INSERT and len(self.vm.clock.pauses) > self._serving[4]:
            moved.append(a)
        on_mark(self, kind, a, b)

    monkeypatch.setattr(ServerMutator, "_on_mark", watching)
    tight, _ = observe_cell("25.25.100", 8, 4.0, tier="python")
    assert len(moved) > 10
    roomy, _ = observe_cell("25.25.100", 96, 4.0, tier="python")
    assert tight == WANT["25.25.100@8KBx4"] and roomy == WANT["25.25.100@96KBx4"]
    tight, roomy = tight["requests"], roomy["requests"]
    assert tight["cache_expirations"] != roomy["cache_expirations"]
    assert tight["cache_inserts"] == roomy["cache_inserts"]


def test_oom_mid_request_is_identical_on_miss_and_hit():
    cell = ("gctk:SemiSpace", 4, 4.0)
    miss, _ = observe_cell(*cell, tier="python")
    assert "exhausted" in miss["failure"]
    # the start of the request that died is the stream's last event
    assert miss["request_events"] == 2 * miss["requests"]["count"] + 1
    # recorded no further than a chunk past where the run died
    assert miss["requests"]["count"] < len(the_tape().summary.starts) < 200
    observe_cell("gctk:SemiSpace", 96, 4.0, tier="python")
    hit, _ = observe_cell(*cell, tier="python")
    assert hit == miss == WANT[cell_id(*cell)]


# ----------------------------------------------------------------------
# Anything attached sees every operation, and the same event streams
# ----------------------------------------------------------------------
ATTACHED = {
    "sanitize": {"sanitize": True},
    "counters": {"counters": True},
    "ring_buffer": {"ring_buffer": 0},
}


@pytest.mark.parametrize("name", sorted(ATTACHED))
def test_attached_runs_replay_in_python(name):
    spec = mini_spec(4.0)
    plain = run(spec, "25.25.100", 8 * 1024, options=RunOptions(seed=SEED))
    options = RunOptions(**{"seed": SEED, "ring_buffer": 0, **ATTACHED[name]})
    report = run(spec, "25.25.100", 8 * 1024, options=options)
    assert report.stats == plain.stats
    assert (report.replay.path, report.replay.in_c) == ("python", 0)
    assert report.replay.why == ("attached" if plain.replay.path == "cffi" else "tier")
    assert report.replay.records == plain.replay.records
    assert report.replay.marks == plain.replay.marks > 0
    if name == "sanitize":
        assert report.sanitizer.ok and report.sanitizer.collections_checked > 0
    want = WANT["25.25.100@8KBx4"]
    assert request_events(report.events) == {
        name: want[name] for name in ("request_events", "events_sha")
    }


# ----------------------------------------------------------------------
# The cache follows the tape's growth
# ----------------------------------------------------------------------
def test_a_tape_that_outgrows_the_budget_is_streamed_and_dropped(monkeypatch):
    observe_cell("gctk:Appel", 96, 1.0)
    small = the_tape().nbytes
    monkeypatch.setattr(TAPES, "budget_bytes", small + small // 2)
    got, _ = observe_cell("gctk:Appel", 96, 4.0)
    assert got == WANT["gctk:Appel@96KBx4"]
    assert len(TAPES) == 0
    got, _ = observe_cell("gctk:Appel", 96, 1.0)  # starts over, and fits
    assert got == WANT["gctk:Appel@96KBx1"]
    assert len(TAPES) == 1 and TAPES.nbytes == small


def test_a_program_interrupted_mid_request_is_never_cached(monkeypatch):
    observe_cell("gctk:Appel", 96, 1.0)
    assert len(TAPES) == 1
    inner = RequestProgram._cache_lookup

    def interrupted(self):
        inner(self)
        raise KeyboardInterrupt

    monkeypatch.setattr(RequestProgram, "_cache_lookup", interrupted)
    with pytest.raises(KeyboardInterrupt):
        observe_cell("gctk:Appel", 96, 4.0)  # has to record further
    assert len(TAPES) == 0
    monkeypatch.undo()
    assert observe_cell("gctk:Appel", 96, 4.0)[0] == WANT["gctk:Appel@96KBx4"]


def test_a_growing_tape_evicts_colder_ones(monkeypatch):
    other = dataclasses.replace(mini_spec(), name="other", duration_s=0.05)
    observe(other, "gctk:Appel", 96 * 1024, seed=SEED + 1)
    observe_cell("gctk:Appel", 96, 1.0)
    assert len(TAPES) == 2
    monkeypatch.setattr(TAPES, "budget_bytes", 3 * TAPES.nbytes)
    observe_cell("gctk:Appel", 96, 4.0)
    assert len(TAPES) == 1 and the_tape().summary.spec.name == "mini"
    assert TAPES.nbytes <= TAPES.budget_bytes


def test_the_reference_heap_of_the_mini_spec_never_collects():
    spec = mini_spec(4.0)
    got, _ = observe(spec, "25.25.100", no_gc_heap_bytes(spec))
    assert got["collections"] == 0 and got["requests"]["paused_requests"] == 0
