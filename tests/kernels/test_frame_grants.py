"""Frame grants and the incremental copy reserve (DESIGN §13).

Between two structural changes a Beltway heap evaluates its copy reserve
from frozen per-belt terms in O(1), and on the cffi tier ``k_replay``
moves the mutator onto the free-pool frames the plan granted instead of
handing each frame crossing back to Python.  Both are optimisations of
one reference path, so both are checked against it on collector strings
drawn from the generated-config families (MOS, BOF, BOFM, time-to-die,
remset trigger and the fixed half-heap reserve included):

* on the python tier, where every frame acquisition runs the slow path,
  the incremental reserve equals the from-scratch spec at every one;
* a granted cffi run, a cffi run with grants switched off and the python
  tier leave identical ``RunStats`` and create the same frames, boot and
  heap, in the same order — a grant reaches past the free pool onto
  fresh frames — and each granted move replaces exactly one
  ``alloc_slow`` bail;
* the bisection that sizes a Beltway grant agrees with a linear scan of
  the growth rule.
"""

import dataclasses
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run
from repro.bench.engine import SyntheticMutator
from repro.bench.spec import benchmark_spec
from repro.core.config import BeltwayConfig
from repro.errors import OutOfMemory
from repro.heap.space import AddressSpace
from repro.kernels import TIER_ENV, available
from repro.runtime.vm import VM
from repro.sanitizer.invariants import check_reserve

from .test_generated_configs import FAMILIES, GOLDEN, PCTS, SCALE, SEED, SPECS

VARIANTS = (None, "ttd", "remsets", "half")
KVSTORE = str(Path(__file__).resolve().parents[2] / "examples/workloads/kvstore.json")


def _collector(family, x, y, z, variant):
    text = family.format(x=x, y=y, z=z)
    if text.startswith("gctk:") or variant is None:
        return text
    config = BeltwayConfig.parse(text)
    if variant == "ttd":
        return config.with_time_to_die(2048)
    if variant == "remsets":
        return config.with_remset_trigger(24)
    return dataclasses.replace(config, name=f"{text}+half", fixed_half_reserve=True)


def collectors(families):
    pct = st.sampled_from(PCTS)
    return st.builds(
        _collector, st.sampled_from(families), pct, pct, pct,
        st.sampled_from(VARIANTS),
    )


cells = st.tuples(st.sampled_from(SPECS), st.sampled_from((1.25, 2.5)))


def run_cell(collector, spec_name, ratio, tier, prepare=None):
    golden_heap = GOLDEN[f"{spec_name}/gctk:Appel"]["heap_bytes"]
    spec = benchmark_spec(spec_name, SCALE)
    vm = VM(int(golden_heap * ratio) // 256 * 256, collector=collector,
            locality=spec.locality, benchmark_name=spec.name, tier=tier)
    if prepare is not None:
        prepare(vm.plan)
    engine = SyntheticMutator(vm, spec, seed=SEED)
    try:
        stats = engine.run()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
    return stats, engine.replay_path


@given(collectors([f for f in FAMILIES if not f.startswith("gctk:")]), cells)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_reserve_equals_the_spec_at_every_acquisition(collector, cell):
    checked = []

    def prepare(plan):
        reserve_allows = plan._reserve_allows

        def checking(extra_frames, ahead=0):
            assert ahead == 0  # no grant is ever computed on this tier
            assert check_reserve(plan) == []
            checked.append(extra_frames)
            return reserve_allows(extra_frames, ahead)

        plan._reserve_allows = checking

    run_cell(collector, *cell, "python", prepare)
    assert checked


def no_grants(plan):
    plan.frame_grant = lambda: ([], 0, 0)


def run_recording_creations(collector, spec_name, ratio, tier, prepare=None):
    """``run_cell``, plus every frame the space created, in order, as
    (index, boot) — VM construction included."""
    created = []
    acquire = AddressSpace.acquire_frame

    def recording(space, space_name, boot=False):
        fresh = len(space._frames)
        frame = acquire(space, space_name, boot)
        if frame.index == fresh:
            created.append((fresh, boot))
        return frame

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(AddressSpace, "acquire_frame", recording)
        stats, path = run_cell(collector, spec_name, ratio, tier, prepare)
    return created, stats, path


def counting_fresh_grants(fresh):
    """A ``prepare`` appending, per granted frame folded, 1 if it was a
    fresh frame and 0 if it came from the free pool."""
    def prepare(plan):
        grow = getattr(plan, "grow_mutator_region", None)
        if grow is None:  # a plan that grants nothing (gctk:SS, Fixed)
            return

        def growing():
            before = len(plan.space._frames)
            grow()
            fresh.append(len(plan.space._frames) - before)

        plan.grow_mutator_region = growing
    return prepare


@pytest.mark.skipif(not available()["cffi"].startswith("ok"),
                    reason=f"cffi tier unavailable: {available()['cffi']}")
@given(collectors(FAMILIES + ("gctk:Appel",)), cells)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_granted_and_ungranted_runs_leave_identical_stats(collector, cell):
    fresh = []
    created, granted, path = run_recording_creations(
        collector, *cell, "cffi", counting_fresh_grants(fresh))
    created_plain, ungranted, plain = run_recording_creations(
        collector, *cell, "cffi", no_grants)
    created_ref, reference, _ = run_recording_creations(
        collector, *cell, "python")
    assert granted == ungranted == reference
    assert created == created_plain == created_ref
    assert plain.granted == 0
    assert path.bails["alloc_slow"] + path.granted == plain.bails["alloc_slow"]
    assert path.bails["barrier_slow"] == plain.bails["barrier_slow"]
    # A heap's first fill is granted: no cell here outgrows one slab.
    assert len(fresh) == path.granted and (any(fresh) or not path.granted)


def linear_grant_length(plan, inc, n):
    """The growth rule scanned frame by frame, as the slow path meets it."""
    k = 0
    while (k < n and not plan.triggers.should_switch_nursery_increment(plan, k)
           and plan._may_grow(inc, k)):
        k += 1
    return k


@given(collectors([f for f in FAMILIES if not f.startswith("gctk:")]), cells)
@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_grant_length_bisection_equals_the_linear_scan(collector, cell):
    lengths = []

    def prepare(plan):
        alloc_slow = plan._alloc_slow

        def checking(size):
            inc = plan.allocation_increment
            if inc is not None:
                n = len(plan.space.next_frames())
                lengths.append(plan._grant_length(inc, n))
                assert lengths[-1] == linear_grant_length(plan, inc, n)
            return alloc_slow(size)

        plan._alloc_slow = checking

    run_cell(collector, *cell, "python", prepare)
    assert any(lengths)


@pytest.mark.skipif(not available()["cffi"].startswith("ok"),
                    reason=f"cffi tier unavailable: {available()['cffi']}")
@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
def test_grants_carry_most_frame_crossings(collector, monkeypatch):
    """Fresh frames and recycled ones alike: one alloc bail per trigger or
    storage slab, not one per frame (the cells ``check_replay_path.py``
    gates).  A kvstore cell is mostly its heap's first fill."""
    monkeypatch.setenv(TIER_ENV, "cffi")
    for ref, heap, factor in (("jess", 25600, 5), (KVSTORE, 256 * 1024, 20)):
        path = run(ref, collector, heap).replay
        assert path.granted > factor * path.bails["alloc_slow"] > 0, ref
