"""Unit tests for BeltwayHeap internals: allocation paths, reserve gating,
structure maintenance, introspection."""

import pytest

from repro.core.config import BeltwayConfig
from repro.errors import OutOfMemory
from repro.runtime import VM, MutatorContext


def make_vm(config="25.25.100", frames=64, **kwargs):
    kwargs.setdefault("boot_ballast_slots", 0)
    vm = VM(heap_bytes=frames * 256, collector=config, debug_verify=True, **kwargs)
    vm.define_type("node", nrefs=2, nscalars=1)
    return vm, MutatorContext(vm)


def test_first_allocation_opens_nursery_increment():
    vm, mu = make_vm()
    heap = vm.plan
    assert heap.allocation_increment is None
    mu.alloc_named("node")
    inc = heap.allocation_increment
    assert inc is not None
    assert inc.belt.index == 0
    assert inc.num_frames == 1


def test_allocation_grows_increment_frame_by_frame():
    vm, mu = make_vm()
    heap = vm.plan
    node = vm.types.by_name("node")
    mu.alloc(node)
    first = heap.allocation_increment
    frames_before = first.num_frames
    # fill well past one frame (64 words / 8-word node = 8 per frame)
    for _ in range(20):
        mu.alloc(node).drop()
    assert heap.allocation_increment is first
    assert first.num_frames > frames_before


def test_nursery_bounded_by_increment_size():
    vm, mu = make_vm("25.25.100")
    heap = vm.plan
    node = vm.types.by_name("node")
    bound = heap.belts[0].increment_frames
    for _ in range(400):
        mu.alloc(node).drop()
        inc = heap.allocation_increment
        if inc is not None:
            assert inc.num_frames <= bound


def test_write_and_read_ref_fields():
    vm, mu = make_vm()
    heap = vm.plan
    a = mu.alloc_named("node")
    b = mu.alloc_named("node")
    heap.write_ref_field(a.addr, 0, b.addr)
    assert heap.read_ref_field(a.addr, 0) == b.addr


def test_occupied_frames_and_live_upper_bound():
    vm, mu = make_vm()
    heap = vm.plan
    node = vm.types.by_name("node")
    keep = [mu.alloc(node) for _ in range(10)]
    assert heap.occupied_frames >= 1
    assert heap.live_words_upper_bound >= 10 * node.size_words()


def test_describe_structure_mentions_allocation_increment():
    vm, mu = make_vm()
    mu.alloc_named("node")
    text = vm.plan.describe_structure()
    assert "belt 0" in text
    assert "A#" in text


@pytest.mark.parametrize("config", ["25.25.100", "25.25.MOS"])
def test_increment_ids_restart_with_every_vm(config):
    """Ids belong to the heap: two identically driven VMs in one process
    draw the same diagram, however many increments ran before them."""
    def drive():
        vm, mu = make_vm(config)
        node = vm.types.by_name("node")
        keep = [mu.alloc(node) for _ in range(40)]
        for _ in range(600):
            mu.alloc(node).drop()
        assert vm.plan.collections and keep
        return vm.plan.describe_structure()

    assert drive() == drive()


def test_describe_structure_bof_roles():
    vm, mu = make_vm("BOF.25")
    mu.alloc_named("node")
    text = vm.plan.describe_structure()
    assert "(A)" in text and "(C)" in text


def test_reserve_allows_is_exact():
    """_reserve_allows gates mutator frame acquisition on
    free - extra >= reserve (copies may consume the reserve; the mutator
    may not)."""
    vm, mu = make_vm("Appel", frames=32)
    heap = vm.plan
    mu.alloc_named("node")
    free = heap.space.heap_frames_free()
    reserve = heap.current_reserve_frames()
    assert heap._reserve_allows(extra_frames=free - reserve)
    assert not heap._reserve_allows(extra_frames=free - reserve + 1)


def test_mutator_growth_rechecks_reserve():
    """Growing the nursery frame by frame keeps re-checking the reserve,
    so allocation stops (collects) rather than overcommitting."""
    vm, mu = make_vm("Appel", frames=32)
    heap = vm.plan
    node = vm.types.by_name("node")
    keep = []
    try:
        for _ in range(2000):
            before_frames = heap.space.heap_frames_free()
            keep.append(mu.alloc(node))
            after_frames = heap.space.heap_frames_free()
            if after_frames < before_frames and not heap.collections:
                # a mutator frame acquisition (no GC yet): the check must
                # have held at acquisition time
                assert after_frames >= heap.current_reserve_frames() - 1
    except OutOfMemory:
        pass  # expected eventually: everything is kept alive


def test_collect_listener_invoked():
    vm, mu = make_vm()
    seen = []
    vm.plan.collection_listeners.append(lambda r: seen.append(r.reason))
    node = vm.types.by_name("node")
    for _ in range(400):
        mu.alloc(node).drop()
    assert seen
    assert len(seen) == len(vm.plan.collections)


def test_record_auxiliary_collection():
    from repro.core.collector import CollectionResult

    vm, mu = make_vm()
    seen = []
    vm.plan.collection_listeners.append(lambda r: seen.append(r))
    fake = CollectionResult(reason="aux")
    vm.plan.record_auxiliary_collection(fake)
    assert vm.plan.collections[-1] is fake
    assert seen == [fake]


def test_num_increments_tracks_structure():
    vm, mu = make_vm()
    heap = vm.plan
    assert heap.num_increments == 0
    mu.alloc_named("node")
    assert heap.num_increments == 1


def test_roots_include_boot_objects():
    vm, mu = make_vm()
    roots = list(vm.plan.roots())
    # boot type objects at minimum (metatype, node, standard types absent
    # until the engine defines them)
    assert len(roots) >= 2
    h = mu.alloc_named("node")
    assert h.addr in set(vm.plan.roots())


def test_min_nursery_rule_prevents_tiny_nurseries():
    """With the heap nearly full of live data, opening a nursery below
    min_nursery_frames is refused and collection (then OOM) follows."""
    vm, mu = make_vm("Appel", frames=16)
    node = vm.types.by_name("node")
    keep = []
    with pytest.raises(OutOfMemory):
        for _ in range(600):
            keep.append(mu.alloc(node))


def test_forced_collect_records_reason():
    vm, mu = make_vm()
    mu.alloc_named("node")
    result = vm.plan.collect("because-test")
    assert result.reason == "because-test"
    assert vm.plan.collections[-1] is result
