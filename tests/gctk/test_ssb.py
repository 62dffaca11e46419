"""Unit tests for the sequential store buffer and boundary barrier."""

import pytest

from repro.gctk.ssb import BoundaryBarrier, SequentialStoreBuffer
from repro.heap import AddressSpace


@pytest.fixture
def env():
    space = AddressSpace(heap_frames=8, frame_shift=8)
    nursery = space.acquire_frame("nursery")
    mature = space.acquire_frame("mature")
    for frame in (nursery, mature):
        space.set_order(frame, 1)
        frame.used_words = frame.size_words
    ssb = SequentialStoreBuffer()
    barrier = BoundaryBarrier(space, ssb)
    barrier.nursery_frames.add(nursery.index)
    return space, nursery, mature, ssb, barrier


def addr_in(space, frame, offset=0):
    return space.frame_base(frame) + offset * 4


def test_old_to_young_recorded(env):
    space, nursery, mature, ssb, barrier = env
    src = addr_in(space, mature)
    tgt = addr_in(space, nursery, 4)
    barrier.write_ref(src, src + 8, tgt)
    assert list(ssb.slots) == [src + 8]
    assert barrier.stats.slow_path == 1
    assert space.load(src + 8) == tgt


def test_young_to_old_not_recorded(env):
    space, nursery, mature, ssb, barrier = env
    src = addr_in(space, nursery)
    tgt = addr_in(space, mature, 4)
    barrier.write_ref(src, src + 8, tgt)
    assert len(ssb) == 0
    assert barrier.stats.fast_path == 1


def test_young_to_young_not_recorded(env):
    space, nursery, mature, ssb, barrier = env
    src = addr_in(space, nursery)
    tgt = addr_in(space, nursery, 8)
    barrier.write_ref(src, src + 8, tgt)
    assert len(ssb) == 0


def test_null_store_filtered(env):
    space, nursery, mature, ssb, barrier = env
    src = addr_in(space, mature)
    barrier.write_ref(src, src + 8, 0)
    assert barrier.stats.null_stores == 1
    assert len(ssb) == 0


def test_ssb_keeps_duplicates():
    """Unlike Beltway's hashed remsets, the SSB records every store."""
    ssb = SequentialStoreBuffer()
    ssb.append(0x100)
    ssb.append(0x100)
    assert len(ssb) == 2
    assert ssb.inserts == 2


def test_ssb_clear():
    ssb = SequentialStoreBuffer()
    ssb.append(0x100)
    ssb.clear()
    assert len(ssb) == 0
    assert ssb.inserts == 1  # cumulative counter survives the clear


def test_duplicate_stores_reprocessed_at_collection(env):
    """The same slot stored twice appears twice — the collection-time cost
    the paper's remset-vs-card discussion weighs."""
    space, nursery, mature, ssb, barrier = env
    src = addr_in(space, mature)
    tgt = addr_in(space, nursery, 4)
    barrier.write_ref(src, src + 8, tgt)
    barrier.write_ref(src, src + 8, tgt)
    assert len(ssb) == 2
