"""Unit tests for the frame-based unidirectional write barrier (Fig. 4)."""

import pytest

from repro.core.barrier import FrameBarrier
from repro.core.remset import RememberedSets
from repro.heap import AddressSpace
from repro.heap.frame import BOOT_ORDER


@pytest.fixture
def env():
    space = AddressSpace(heap_frames=8, frame_shift=8)
    frames = [space.acquire_frame("t") for _ in range(4)]
    for frame, order in zip(frames, (1, 2, 3, 4)):
        space.set_order(frame, order)
        frame.used_words = frame.size_words
    barrier = FrameBarrier(space, RememberedSets())
    return space, frames, barrier


def obj_in(space, frame, offset_words=0):
    return space.frame_base(frame) + offset_words * 4


def test_intra_frame_pointer_not_recorded(env):
    space, frames, barrier = env
    src = obj_in(space, frames[0])
    tgt = obj_in(space, frames[0], 10)
    barrier.write_ref(src, src + 12, tgt)
    assert len(barrier.remsets) == 0
    assert barrier.stats.fast_path == 1
    assert barrier.stats.slow_path == 0
    assert space.load(src + 12) == tgt  # the store happened


def test_pointer_to_later_collected_frame_not_recorded(env):
    space, frames, barrier = env
    src = obj_in(space, frames[0])  # order 1
    tgt = obj_in(space, frames[2])  # order 3: collected after source
    barrier.write_ref(src, src + 12, tgt)
    assert len(barrier.remsets) == 0


def test_pointer_to_sooner_collected_frame_recorded(env):
    space, frames, barrier = env
    src = obj_in(space, frames[2])  # order 3
    tgt = obj_in(space, frames[0])  # order 1: collected first
    barrier.write_ref(src, src + 12, tgt)
    assert len(barrier.remsets) == 1
    assert barrier.stats.slow_path == 1
    pair = barrier.remsets.entries_for_pair(frames[2].index, frames[0].index)
    assert pair == {src + 12}


def test_equal_order_frames_not_recorded(env):
    """Frames of one increment share a stamp: no intra-increment remsets."""
    space, frames, barrier = env
    space.set_order(frames[1], 1)  # same stamp as frames[0]
    src = obj_in(space, frames[1])
    tgt = obj_in(space, frames[0])
    barrier.write_ref(src, src + 12, tgt)
    assert len(barrier.remsets) == 0


def test_null_store_filtered(env):
    space, frames, barrier = env
    src = obj_in(space, frames[2])
    barrier.write_ref(src, src + 12, 0)
    assert barrier.stats.null_stores == 1
    assert len(barrier.remsets) == 0
    assert space.load(src + 12) == 0


def test_boot_to_heap_recorded(env):
    """Boot frames carry an infinite order: boot->heap is always recorded."""
    space, frames, barrier = env
    boot = space.acquire_frame("boot", boot=True)
    boot.used_words = boot.size_words
    src = obj_in(space, boot)
    tgt = obj_in(space, frames[3])  # highest heap order, still < BOOT_ORDER
    assert boot.collect_order == BOOT_ORDER
    barrier.write_ref(src, src + 4, tgt)
    assert len(barrier.remsets) == 1


def test_heap_to_boot_never_recorded(env):
    """TIB-pointer initialisation (heap young -> boot old) is filtered by
    the order compare — the §3.3.2 overhead costs only the fast path."""
    space, frames, barrier = env
    boot = space.acquire_frame("boot", boot=True)
    boot.used_words = boot.size_words
    src = obj_in(space, frames[0])
    tgt = obj_in(space, boot)
    barrier.write_ref(src, src + 4, tgt)
    assert len(barrier.remsets) == 0
    assert barrier.stats.fast_path == 1


def test_record_collector_pointer_no_store(env):
    space, frames, barrier = env
    src = obj_in(space, frames[2])
    tgt = obj_in(space, frames[0])
    barrier.record_collector_pointer(src, src + 12, tgt)
    assert len(barrier.remsets) == 1
    assert space.load(src + 12) == 0  # no store performed
    assert barrier.stats.fast_path == 0  # not mutator activity


def test_slow_fraction(env):
    space, frames, barrier = env
    src = obj_in(space, frames[2])
    tgt_low = obj_in(space, frames[0])
    tgt_same = obj_in(space, frames[2], 20)
    barrier.write_ref(src, src + 12, tgt_low)
    barrier.write_ref(src, src + 16, tgt_same)
    barrier.write_ref(src, src + 20, tgt_same)
    assert barrier.stats.fast_path == 3
    assert barrier.stats.slow_path == 1
