"""Unit tests for the object model: headers, types, field access."""

import pytest

from repro.errors import HeapCorruption
from repro.heap import (
    AddressSpace,
    BootImage,
    HEADER_WORDS,
    ObjectModel,
    TypeKind,
    TypeRegistry,
    WORD_BYTES,
)


@pytest.fixture
def env():
    space = AddressSpace(heap_frames=8, frame_shift=10)
    types = TypeRegistry()
    model = ObjectModel(space, types)
    boot = BootImage(space, types, model)
    return space, types, model, boot


def _alloc(space, model, desc, length=0):
    """Raw test allocation into a dedicated frame (no collector involved)."""
    frame = space.acquire_frame("test")
    frame.collect_order = 1
    space.set_order(frame, 1)
    addr = space.frame_base(frame)
    size = desc.size_words(length)
    frame.used_words = size
    model.init_header(addr, desc, length)
    space.store(addr + WORD_BYTES, desc.addr)  # type slot, raw for tests
    return addr


def test_scalar_type_sizes(env):
    _, _, _, boot = env
    node = boot.define_type("node", nrefs=2, nscalars=3)
    assert node.size_words() == HEADER_WORDS + 5
    assert node.size_bytes() == (HEADER_WORDS + 5) * WORD_BYTES
    assert node.ref_count() == 2


def test_array_type_sizes(env):
    _, _, _, boot = env
    arr = boot.define_ref_array("arr")
    buf = boot.define_scalar_array("buf")
    assert arr.size_words(10) == HEADER_WORDS + 10
    assert arr.ref_count(10) == 10
    assert buf.size_words(6) == HEADER_WORDS + 6
    assert buf.ref_count(6) == 0


def test_negative_field_counts_rejected(env):
    _, types, _, _ = env
    with pytest.raises(HeapCorruption):
        types.define("bad", nrefs=-1)


def test_duplicate_type_name_rejected(env):
    _, _, _, boot = env
    boot.define_type("dup")
    with pytest.raises(HeapCorruption):
        boot.define_type("dup")


def test_header_roundtrip(env):
    space, _, model, boot = env
    node = boot.define_type("node", nrefs=1, nscalars=1)
    obj = _alloc(space, model, node)
    assert model.status(obj) == 0
    assert not model.is_forwarded(obj)
    assert model.type_of(obj) is node
    assert model.length_of(obj) == 0
    assert model.size_words(obj) == node.size_words()


def test_forwarding(env):
    space, _, model, boot = env
    node = boot.define_type("node")
    obj = _alloc(space, model, node)
    target = _alloc(space, model, node)
    model.set_forwarding(obj, target)
    assert model.is_forwarded(obj)
    assert model.forwarding_address(obj) == target
    with pytest.raises(HeapCorruption):
        model.forwarding_address(target)


def test_ref_and_scalar_fields(env):
    space, _, model, boot = env
    node = boot.define_type("node", nrefs=2, nscalars=2)
    a = _alloc(space, model, node)
    b = _alloc(space, model, node)
    model.set_ref_raw(a, 0, b)
    model.set_scalar(a, 1, 12345)
    assert model.get_ref(a, 0) == b
    assert model.get_ref(a, 1) == 0
    assert model.get_scalar(a, 1) == 12345
    assert model.get_scalar(a, 0) == 0


def test_ref_array_elements(env):
    space, _, model, boot = env
    arr = boot.define_ref_array("arr")
    node = boot.define_type("node")
    a = _alloc(space, model, arr, length=4)
    n = _alloc(space, model, node)
    model.set_ref_raw(a, 3, n)
    assert model.get_ref(a, 3) == n
    assert model.length_of(a) == 4


def test_iter_ref_slots_includes_type_slot(env):
    space, _, model, boot = env
    node = boot.define_type("node", nrefs=2, nscalars=1)
    obj = _alloc(space, model, node)
    slots = list(model.iter_ref_slot_addrs(obj))
    assert slots[0] == obj + WORD_BYTES  # type slot first
    assert len(slots) == 3  # type slot + 2 ref fields
    assert space.load(slots[0]) == node.addr


def test_iter_ref_slots_ref_array(env):
    space, _, model, boot = env
    arr = boot.define_ref_array("arr")
    obj = _alloc(space, model, arr, length=5)
    assert len(list(model.iter_ref_slot_addrs(obj))) == 6


def test_scalar_array_has_only_type_ref(env):
    space, _, model, boot = env
    buf = boot.define_scalar_array("buf")
    obj = _alloc(space, model, buf, length=8)
    assert len(list(model.iter_ref_slot_addrs(obj))) == 1


def test_type_of_garbage_raises(env):
    space, _, model, boot = env
    node = boot.define_type("node")
    obj = _alloc(space, model, node)
    space.store(obj + WORD_BYTES, 12340)  # clobber type slot
    with pytest.raises(HeapCorruption):
        model.type_of(obj)


def test_type_registry_lookup(env):
    _, types, _, boot = env
    node = boot.define_type("node", nrefs=1)
    assert types.by_name("node") is node
    assert types.by_addr(node.addr) is node
    assert node in list(types)
