"""Property-based tests for collection-order stamping and the reserve.

The barrier's soundness rests on two invariants the paper states in
§3.3.1 and §3.3.4; hypothesis drives random belt structures at them:

* restamping never reorders two surviving increments (so a pointer that
  was correctly *not* recorded can never become needed);
* the reserve never falls below the largest collectible increment, and
  adding occupancy never shrinks it;
* the incremental reserve — terms frozen except the allocation
  increment's frame count — equals the from-scratch spec as that
  increment grows.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.belt import Belt
from repro.core.config import BeltSpec
from repro.core.order import restamp
from repro.core.reserve import (
    SLACK_FRAMES,
    required_reserve_frames,
    reserve_at,
    reserve_terms,
)
from repro.heap import AddressSpace


def build_heap_structure(layout):
    """layout: list of (pct, [frames_per_increment...]) per belt."""
    total = sum(sum(f for f in incs) for _, incs in layout) + 8
    space = AddressSpace(heap_frames=max(total * 2, 16), frame_shift=8)
    belts = []
    for index, (pct, incs) in enumerate(layout):
        belt = Belt(index, BeltSpec(pct), space, space.heap_frames)
        for frames in incs:
            inc = belt.open_increment()
            inc.max_frames = None  # let the random layout stand
            for _ in range(frames):
                inc.add_frame()
                inc.alloc(space.frame_words)
        belts.append(belt)
    return space, belts


belt_layout = st.lists(
    st.tuples(
        st.integers(min_value=10, max_value=100),
        st.lists(st.integers(min_value=1, max_value=4), min_size=0, max_size=4),
    ),
    min_size=1,
    max_size=3,
)


@given(belt_layout)
@settings(max_examples=60, deadline=None)
def test_restamp_is_monotone_in_structure_order(layout):
    space, belts = build_heap_structure(layout)
    restamp(space, belts)
    stamps = [inc.stamp for belt in belts for inc in belt.increments]
    assert stamps == sorted(stamps)
    assert len(set(stamps)) == len(stamps)  # distinct per increment
    for belt in belts:
        for inc in belt.increments:
            for frame in inc.region.frames:
                assert frame.collect_order == inc.stamp


@given(belt_layout)
@settings(max_examples=60, deadline=None)
def test_restamp_preserves_relative_order(layout):
    """Stamping twice (idempotence) and after appending a new increment
    never swaps the relative order of existing increments."""
    space, belts = build_heap_structure(layout)
    restamp(space, belts)
    before = [
        (id(inc), inc.stamp) for belt in belts for inc in belt.increments
    ]
    belts[-1].open_increment()  # append at the back of the last belt
    restamp(space, belts)
    after = {
        id(inc): inc.stamp for belt in belts for inc in belt.increments
    }
    for (a_id, a_stamp), (b_id, b_stamp) in zip(before, before[1:]):
        assert (a_stamp < b_stamp) == (after[a_id] < after[b_id])


@given(belt_layout)
@settings(max_examples=60, deadline=None)
def test_reserve_covers_largest_increment(layout):
    space, belts = build_heap_structure(layout)
    top = len(belts) - 1
    reserve = required_reserve_frames(
        belts, lambda b: min(b + 1, top), None
    )
    largest = max(
        (inc.num_frames for belt in belts for inc in belt.increments),
        default=0,
    )
    if largest:
        assert reserve >= largest + SLACK_FRAMES


@given(belt_layout, st.integers(min_value=1, max_value=3))
@settings(max_examples=40, deadline=None)
def test_reserve_monotone_under_growth(layout, grow):
    """Adding occupancy to any increment never shrinks the reserve."""
    space, belts = build_heap_structure(layout)
    top = len(belts) - 1
    target = lambda b: min(b + 1, top)  # noqa: E731
    before = required_reserve_frames(belts, target, None)
    victim = None
    for belt in belts:
        if belt.increments:
            victim = belt.increments[-1]
            break
    if victim is None:
        return
    victim.max_frames = None
    for _ in range(grow):
        victim.add_frame()
        victim.alloc(space.frame_words)
    after = required_reserve_frames(belts, target, None)
    assert after >= before


@given(
    belt_layout,
    st.integers(min_value=0, max_value=11),
    st.sampled_from(("next", "self", "first")),
    st.sampled_from((None, 2, 6)),
    st.integers(min_value=0, max_value=4),
)
@settings(max_examples=120, deadline=None)
def test_reserve_terms_follow_the_allocation_increment(
    layout, pick, targets, bound, grow
):
    """Whichever increment allocates, whatever the promotion targets and
    whether or not its size is bounded, ``reserve_at`` on terms taken
    once equals ``required_reserve_frames`` after every frame it adds."""
    space, belts = build_heap_structure(layout)
    top = len(belts) - 1
    target = {
        "next": lambda b: min(b + 1, top),
        "self": lambda b: b,
        "first": lambda b: 0,
    }[targets]
    incs = [inc for belt in belts for inc in belt.increments]
    alloc = incs[pick % len(incs)] if incs else None
    if alloc is not None and bound is not None:
        alloc.max_frames = max(bound, alloc.num_frames + grow)
    terms = reserve_terms(belts, target, alloc)
    for step in range(grow + 1):
        frames = alloc.num_frames if alloc is not None else 0
        assert reserve_at(terms, frames) == required_reserve_frames(
            belts, target, alloc
        )
        if alloc is None or step == grow:
            break
        alloc.add_frame()
