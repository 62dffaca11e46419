"""Unit tests for bump allocation over frames."""

import pytest

from repro.errors import OutOfMemory
from repro.heap import AddressSpace, BumpRegion


@pytest.fixture
def space():
    return AddressSpace(heap_frames=8, frame_shift=8)  # 64-word frames


def grown(space, region):
    region.add_frame(space.acquire_frame("test"))
    return region


def test_alloc_bumps_sequentially(space):
    region = grown(space, BumpRegion(space))
    a = region.alloc(4)
    b = region.alloc(6)
    assert b == a + 16
    assert region.allocated_words == 10


def test_alloc_without_frame_returns_zero(space):
    region = BumpRegion(space)
    assert region.alloc(4) == 0


def test_alloc_fills_frame_exactly(space):
    region = grown(space, BumpRegion(space))
    assert region.alloc(64) != 0
    assert region.alloc(1) == 0  # full


def test_tail_waste_accounted(space):
    region = grown(space, BumpRegion(space))
    region.alloc(60)
    assert region.alloc(8) == 0  # does not fit in the 4-word tail
    grown(space, region)
    assert region.wasted_words == 4
    assert region.occupancy_words == 64
    new = region.alloc(8)
    assert new != 0


def test_wasted_tail_marks_frame_fully_used(space):
    region = grown(space, BumpRegion(space))
    region.alloc(60)
    first = region.frames[0]
    grown(space, region)
    assert first.used_words == 64  # tail counted so linear walks stop safely


def test_object_larger_than_frame_raises(space):
    region = grown(space, BumpRegion(space))
    with pytest.raises(OutOfMemory):
        region.alloc(65)


def test_used_words_tracks_high_water(space):
    region = grown(space, BumpRegion(space))
    region.alloc(10)
    assert region.frames[-1].used_words == 10
    region.alloc(5)
    assert region.frames[-1].used_words == 15


def test_reset_forgets_everything(space):
    region = grown(space, BumpRegion(space))
    region.alloc(10)
    region.reset()
    assert region.num_frames == 0
    assert region.allocated_words == 0
    assert region.alloc(1) == 0


def test_multi_frame_growth(space):
    region = BumpRegion(space)
    for _ in range(3):
        grown(space, region)
        region.alloc(64)
    assert region.num_frames == 3
    assert region.allocated_words == 192
    assert region.occupancy_words == 192
