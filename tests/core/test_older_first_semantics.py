"""Deeper semantic tests for the older-first configurations (BOF, BOFM).

The paper's §3.1 defines their behaviours precisely; these tests pin the
mechanics the throughput numbers depend on: window FIFO order, belt
flips, allocation/copy mixing, and — the design's purpose — that young
objects are given time to die before being copied.
"""

import pytest

from repro.harness.runner import RunOptions, run
from repro.kernels import available
from repro.runtime import VM, MutatorContext


def make_vm(config, frames=64):
    vm = VM(
        heap_bytes=frames * 256,
        collector=config,
        debug_verify=True,
        boot_ballast_slots=0,
    )
    vm.define_type("node", nrefs=2, nscalars=1)
    return vm, MutatorContext(vm)


def rotate(vm, mu, n, every=8, window=40):
    node = vm.types.by_name("node")
    keep = []
    for i in range(n):
        h = mu.alloc(node)
        if i % every == 0:
            keep.append(h)
            if len(keep) > window:
                keep.pop(0).drop()
        else:
            h.drop()
    return keep


# ----------------------------------------------------------------------
# BOF
# ----------------------------------------------------------------------
def test_bof_collects_oldest_window_first():
    vm, mu = make_vm("BOF.25")
    rotate(vm, mu, 3000)
    heap = vm.plan
    belt_a = heap.belts[heap.of_alloc_belt]
    if belt_a.num_increments >= 2:
        batch = heap.policy.choose_collection(heap)
        assert batch[0] is belt_a.oldest_collectible()
        assert batch[0] is belt_a.increments[0] or belt_a.increments[0].is_empty


def test_bof_survivors_land_on_copy_belt():
    vm, mu = make_vm("BOF.25")
    node = vm.types.by_name("node")
    pinned = [mu.alloc(node) for _ in range(30)]  # genuine survivors
    rotate(vm, mu, 4000)
    heap = vm.plan
    copy_belt = heap.belts[1 - heap.of_alloc_belt]
    # the pinned objects must have been copied to the copy belt
    assert copy_belt.occupancy_words > 0 or heap.flips > 0


def test_bof_flip_swaps_roles_and_preserves_data():
    vm, mu = make_vm("BOF.25", frames=48)
    node = vm.types.by_name("node")
    keep = []
    flips_before = vm.plan.flips
    for i in range(25000):
        h = mu.alloc(node)
        if i % 10 == 0:
            mu.write_int(h, 0, i)
            keep.append((h, i))
            if len(keep) > 40:
                keep.pop(0)[0].drop()
        else:
            h.drop()
        if vm.plan.flips > flips_before + 1:
            break
    assert vm.plan.flips > flips_before
    for h, value in keep:
        assert mu.read_int(h, 0) == value
    vm.plan.verify()


def test_bof_gives_time_to_die():
    """BOF copies less than a semi-space on a short-lived workload: the
    window starts at the old end, so the newest objects are never copied
    before they had the whole heap's worth of allocation to die."""

    def copied(config):
        vm, mu = make_vm(config, frames=64)
        node = vm.types.by_name("node")
        for _ in range(6000):
            mu.alloc(node).drop()
        stats = vm.finish()
        return stats.copied_bytes

    assert copied("BOF.25") <= copied("BSS")


# ----------------------------------------------------------------------
# BOFM
# ----------------------------------------------------------------------
def test_bofm_single_belt_mixing():
    vm, mu = make_vm("BOFM.25")
    node = vm.types.by_name("node")
    pinned = [mu.alloc(node) for _ in range(30)]  # guaranteed survivors
    rotate(vm, mu, 4000)
    heap = vm.plan
    assert len(heap.belts) == 1
    # some increment holds both copied-in survivors and fresh allocation
    mixed = [
        inc
        for inc in heap.belts[0]
        if inc.copied_in_words and inc.region.allocated_words > inc.copied_in_words
    ]
    assert mixed or heap.allocation_increment is None
    vm.plan.verify()


def test_bofm_collects_oldest_increment():
    vm, mu = make_vm("BOFM.25")
    rotate(vm, mu, 2500)
    heap = vm.plan
    belt = heap.belts[0]
    if belt.num_increments >= 2:
        batch = heap.policy.choose_collection(heap)
        assert len(batch) == 1
        non_empty = [i for i in belt.increments if not i.is_empty]
        assert batch[0] is non_empty[0]


def test_bofm_collecting_allocation_increment_resets_it():
    """When only the allocation increment remains, BOFM collects it and
    allocation resumes in the survivors' increment."""
    vm, mu = make_vm("BOFM.25", frames=32)
    node = vm.types.by_name("node")
    keep = [mu.alloc(node) for _ in range(4)]
    heap = vm.plan
    alloc_inc = heap.allocation_increment
    heap.collect("forced")
    assert alloc_inc not in heap.belts[0].increments
    mu.alloc(node).drop()  # allocation still works
    for h in keep:
        assert not h.is_null
    vm.plan.verify()


#: Cells where copying overflows a full allocation increment.  Unless the
#: overflow increment becomes the allocation increment, the stale one sinks
#: to the front and its unremembered pointers into later ones dangle.
BOFM_OVERFLOW_CELLS = [
    ("javac", 24, 0.3), ("javac", 24, 1.0), ("javac", 28, 1.0),
    ("javac", 32, 1.0), ("javac", 40, 1.0), ("pseudojbb", 40, 0.3),
    ("pseudojbb", 40, 1.0), ("pseudojbb", 48, 1.0),
]


@pytest.mark.parametrize("bench_name,heap_kb,scale", BOFM_OVERFLOW_CELLS)
def test_bofm_copy_overflow_keeps_collection_order(
    bench_name, heap_kb, scale, monkeypatch
):
    """Each cell ends cleanly (completed or ``OutOfMemory``) under the
    sanitizer with no violation, identically on both tiers."""
    stats = {}
    for tier in ("python", "cffi"):
        if not available()[tier].startswith("ok"):
            continue
        monkeypatch.setenv("REPRO_SUBSTRATE_TIER", tier)
        report = run(
            bench_name, "BOFM.25", heap_kb * 1024,
            options=RunOptions(scale=scale, sanitize=True),
        )
        assert report.sanitizer.ok and not report.sanitizer.violations
        assert report.stats.completed or "exhausted" in report.stats.failure
        stats[tier] = repr(report.stats)
    assert len(set(stats.values())) == 1


def test_older_first_barrier_unidirectional():
    """In BOFM only right-to-left (young→old) pointers are remembered
    (paper §3.3.1's example)."""
    vm, mu = make_vm("BOFM.25")
    rotate(vm, mu, 2500)
    heap = vm.plan
    belt = heap.belts[0]
    if belt.num_increments < 2:
        pytest.skip("need two increments")
    node = vm.types.by_name("node")
    old_inc = belt.increments[0]
    # fabricate: object in the newest increment pointing into the oldest
    young = mu.alloc(node)
    old_addr = None
    frame = old_inc.region.frames[0]
    old_addr = vm.space.frame_base(frame)
    before = len(heap.remsets)
    vm.model  # young -> old: target collected sooner => recorded
    heap.barrier.write_ref(young.addr, vm.model.ref_slot_addr(young.addr, 0), old_addr)
    assert len(heap.remsets) == before + 1
    # old -> young: target collected later => not recorded
    before = len(heap.remsets)
    heap.barrier.write_ref(old_addr, vm.model.ref_slot_addr(old_addr, 0), young.addr)
    assert len(heap.remsets) == before
