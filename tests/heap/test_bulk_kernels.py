"""Equivalence tests: ``load_slice`` vs the word-at-a-time reference path.

``load_slice`` must behave exactly like the single-word loop it replaces —
same values, same ``load_count`` accounting, same ``InvalidAddress`` errors
at unmapped or misaligned addresses — including runs that span a frame
boundary.
"""

import pytest

from repro.errors import InvalidAddress
from repro.heap.address import WORD_BYTES
from repro.heap.space import AddressSpace


@pytest.fixture
def space():
    return AddressSpace(heap_frames=6, frame_shift=8)  # 64-word frames


def fill(space, base, nwords, stride=7):
    for i in range(nwords):
        space.store(base + i * WORD_BYTES, i * stride - 3)


def reference_load(space, addr, nwords):
    return [space.load(addr + i * WORD_BYTES) for i in range(nwords)]


# ----------------------------------------------------------------------
# load_slice
# ----------------------------------------------------------------------
def test_load_slice_matches_word_loads(space):
    frame = space.acquire_frame("a")
    base = space.frame_base(frame)
    fill(space, base, 64)
    before = space.load_count
    bulk = space.load_slice(base + 4, 32)
    assert space.load_count - before == 32
    assert bulk == reference_load(space, base + 4, 32)


def test_load_slice_spans_frame_boundary(space):
    a = space.acquire_frame("a")
    b = space.acquire_frame("b")
    assert b.index == a.index + 1  # contiguous by construction
    base = space.frame_base(a)
    fill(space, base, 128)
    start = base + 60 * WORD_BYTES  # last 4 words of a + first 8 of b
    assert space.load_slice(start, 12) == reference_load(space, start, 12)


def test_load_slice_zero_length_and_errors(space):
    frame = space.acquire_frame("a")
    base = space.frame_base(frame)
    before = space.load_count
    assert space.load_slice(base, 0) == []
    assert space.load_count == before
    with pytest.raises(InvalidAddress):
        space.load_slice(base + 2, 4)  # misaligned
    with pytest.raises(InvalidAddress):
        space.load_slice(base, -1)
    with pytest.raises(InvalidAddress):
        space.load_slice(base + 60 * WORD_BYTES, 8)  # runs off the mapping
    with pytest.raises(InvalidAddress):
        space.load_slice(space.frame_bytes * 40, 1)  # wholly unmapped


# ----------------------------------------------------------------------
# frame cache coherence
# ----------------------------------------------------------------------
def test_released_frame_is_not_served_from_cache(space):
    frame = space.acquire_frame("a")
    base = space.frame_base(frame)
    space.store(base, 123)
    assert space.load(base) == 123  # frame is now the cached entry
    space.release_frame(frame)
    with pytest.raises(InvalidAddress):
        space.load(base)
    with pytest.raises(InvalidAddress):
        space.store(base, 1)
