"""Focused collector-pass tests: counters, batching, remset lifecycle."""

import pytest

from repro.errors import HeapCorruption
from repro.runtime import VM, MutatorContext


def make_vm(config="25.25.100", frames=96):
    vm = VM(
        heap_bytes=frames * 256,
        collector=config,
        debug_verify=True,
        boot_ballast_slots=0,
    )
    vm.define_type("node", nrefs=2, nscalars=1)
    return vm, MutatorContext(vm)


def test_collect_empty_batch_rejected():
    from repro.core.collector import Collector

    vm, mu = make_vm()
    with pytest.raises(HeapCorruption):
        Collector(vm.plan).collect([], "test")


def test_collect_out_of_stamp_order_rejected():
    """§3.3.1: stamped lower means collected no later — collecting belt 1
    while the nursery holds objects is refused, naming both increments."""
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    keep = [mu.alloc(node) for _ in range(20)]
    vm.plan.collect("forced")  # promote to belt 1
    keep.append(mu.alloc(node))  # the nursery is non-empty again
    nursery = vm.plan.belts[0].oldest_collectible()
    older = vm.plan.belts[1].oldest_collectible()
    assert nursery.stamp < older.stamp
    with pytest.raises(HeapCorruption, match="out of stamp order") as info:
        vm.plan.collector.collect([older], "test")
    assert repr(older) in str(info.value) and repr(nursery) in str(info.value)
    vm.plan.collector.collect([nursery, older], "test")  # together: fine


def test_result_counters_consistent():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    keep = [mu.alloc(node) for _ in range(20)]
    result = vm.plan.collect("forced")
    assert result.copied_objects >= 20
    assert result.copied_words >= 20 * node.size_words()
    assert result.from_words >= result.copied_words  # can't copy more than was there
    assert result.freed_frames == result.from_frames
    assert result.scanned_objects == result.copied_objects
    # every copied object's slots were scanned (type slot + 2 refs)
    assert result.scanned_ref_slots == 3 * result.scanned_objects
    assert 0.0 <= result.survival_rate <= 1.0


def test_collection_updates_root_array_in_place():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    h = mu.alloc(node)
    array = mu.table.slots
    index = [i for i, v in enumerate(array) if v == h.addr][0]
    before = array[index]
    vm.plan.collect("forced")
    assert array[index] != before
    assert array[index] == h.addr


def test_remsets_dropped_for_collected_frames():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    olds = [mu.alloc(node) for _ in range(30)]
    vm.plan.collect("forced")  # promote them
    # create old->young pointers
    for i, old in enumerate(olds):
        young = mu.alloc(node)
        mu.write(old, 0, young)
        young.drop()
    assert len(vm.plan.remsets) > 0
    # collect the nursery: remsets targeting it must be re-pointed/dropped
    vm.plan.collect("forced")
    remaining_pairs = list(vm.plan.remsets.pairs())
    live_frames = {
        frame.index
        for belt in vm.plan.belts
        for inc in belt.increments
        for frame in inc.region.frames
    }
    for src, tgt in remaining_pairs:
        assert tgt in live_frames  # no pair targets a released frame


def test_forwarding_converges_for_shared_targets():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    shared = mu.alloc(node)
    holders = [mu.alloc(node) for _ in range(8)]
    for h in holders:
        mu.write(h, 0, shared)
    result = vm.plan.collect("forced")
    addresses = {mu.read_addr(h, 0) for h in holders}
    assert addresses == {shared.addr}


def test_batch_collection_ignores_internal_remsets():
    """Remsets between increments collected together are not processed as
    roots (the §3.3.2 optimisation) — observable through the remset_slots
    counter of a full-heap (combined) collection."""
    vm, mu = make_vm("Appel", frames=48)
    node = vm.types.by_name("node")
    keep = []
    combined = None
    for i in range(8000):
        h = mu.alloc(node)
        if i % 4 == 0:
            keep.append(h)
            if keep and len(keep) > 100:
                keep.pop(0).drop()
            if len(keep) > 1:
                mu.write(keep[-2], 0, h)  # lots of cross-region pointers
        else:
            h.drop()
        for r in vm.plan.collections:
            if len(r.belts_collected) > 1:
                combined = r
        if combined:
            break
    if combined is None:
        pytest.skip("no combined collection on this workload")
    # the combined batch covers both belts, so almost no external remset
    # slots remain to process
    assert combined.remset_slots <= combined.copied_objects


def test_null_slots_cost_nothing_to_forward():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    keep = [mu.alloc(node) for _ in range(5)]  # all ref fields NULL
    result = vm.plan.collect("forced")
    assert result.copied_objects >= 5
    # scanning happened, but nothing needed forwarding beyond the keepers
    assert result.scanned_ref_slots >= 3 * 5


def test_collection_id_monotonic():
    vm, mu = make_vm()
    node = vm.types.by_name("node")
    for _ in range(1200):
        mu.alloc(node).drop()
    ids = [r.collection_id for r in vm.plan.collections if r.collection_id > 0]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)
