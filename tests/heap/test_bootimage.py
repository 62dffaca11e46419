"""Unit tests for the boot image and the metatype bootstrap."""

import pytest

from repro.heap import AddressSpace, BOOT_ORDER, BootImage, ObjectModel, TypeRegistry
from repro.heap.bootimage import METATYPE_NAME


@pytest.fixture
def env():
    space = AddressSpace(heap_frames=4, frame_shift=10)
    types = TypeRegistry()
    model = ObjectModel(space, types)
    boot = BootImage(space, types, model)
    return space, types, model, boot


def test_metatype_points_at_itself(env):
    space, types, model, boot = env
    meta = types.by_name(METATYPE_NAME)
    assert meta.addr != 0
    assert model.type_of(meta.addr) is meta


def test_type_objects_are_boot_resident(env):
    space, types, model, boot = env
    node = boot.define_type("node", nrefs=1)
    frame = space.frame_containing(node.addr)
    assert frame.collect_order == BOOT_ORDER
    assert space.heap_frames_in_use == 0


def test_type_object_records_type_id(env):
    space, types, model, boot = env
    node = boot.define_type("node")
    assert model.get_scalar(node.addr, 0) == node.type_id
    assert model.type_of(node.addr).name == METATYPE_NAME


def test_define_array_types(env):
    _, types, model, boot = env
    arr = boot.define_ref_array("arr")
    buf = boot.define_scalar_array("buf")
    assert types.by_addr(arr.addr) is arr
    assert types.by_addr(buf.addr) is buf


def test_boot_image_grows_across_frames(env):
    space, _, model, boot = env
    before = len(boot.frames)
    for i in range(200):
        boot.define_type(f"t{i}", nrefs=0, nscalars=2)
    assert len(boot.frames) > before


def test_iter_objects_walks_every_type_object(env):
    _, types, model, boot = env
    boot.define_type("a")
    boot.define_type("b", nrefs=3)
    addrs = list(boot.iter_objects())
    for desc in types:
        assert desc.addr in addrs
