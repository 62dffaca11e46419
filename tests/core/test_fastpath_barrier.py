"""Edge-case tests for the compiled mutator store paths (ISSUE 2).

The compiled ``write_ref_field`` / ``init_object`` closures (one template
pair in :mod:`repro.core.barrier`, specialised by each barrier's record
rule) must behave exactly like the layered reference path
(``ObjectModel.ref_slot_addr`` + the barrier's ``write_ref``): identical
stores, identical counter accounting, identical errors.  These tests pin
the edge cases down through real VMs so the compiled closures decode real
object headers.
"""

import random

import pytest

from repro.errors import HeapCorruption
from repro.runtime.mutator import MutatorContext
from repro.runtime.vm import VM


def make_vm(collector="25.25.100", heap_kb=16):
    vm = VM(heap_kb * 1024, collector=collector)
    vm.define_type("node", nrefs=3, nscalars=2)
    return vm


def boot_code_objects(vm):
    """Boot-image ballast objects (8 ref slots each), allocation order."""
    desc = vm.types.by_name("<boot-code>")
    return [o for o in vm.boot.iter_objects() if vm.model.type_of(o) is desc]


# ----------------------------------------------------------------------
# Beltway compiled store path
# ----------------------------------------------------------------------

def test_compiled_null_store_counted_not_compared():
    vm = make_vm()
    mu = MutatorContext(vm)
    h = mu.alloc(vm.types.by_name("node"))
    stats = vm.plan.barrier.stats
    fast0, null0, slow0 = stats.fast_path, stats.null_stores, stats.slow_path
    inserts0 = vm.plan.remsets.inserts
    mu.write(h, 0, None)
    assert stats.fast_path == fast0 + 1
    assert stats.null_stores == null0 + 1
    assert stats.slow_path == slow0  # NULL filtered before the order compare
    assert vm.plan.remsets.inserts == inserts0
    assert mu.read_addr(h, 0) == 0  # the store itself still happens


def test_compiled_same_frame_store_never_inserted():
    vm = make_vm()
    mu = MutatorContext(vm)
    a = mu.alloc(vm.types.by_name("node"))
    b = mu.alloc(vm.types.by_name("node"))
    shift = vm.space.frame_shift
    assert a.addr >> shift == b.addr >> shift  # both fit in the first frame
    stats = vm.plan.barrier.stats
    slow0 = stats.slow_path
    inserts0 = vm.plan.remsets.inserts
    mu.write(a, 1, b)
    assert stats.slow_path == slow0
    assert vm.plan.remsets.inserts == inserts0
    assert mu.read_addr(a, 1) == b.addr


def test_compiled_boot_order_is_infinite_both_directions():
    """heap→boot is never remembered; boot→heap always is (Fig. 4 with
    BOOT_ORDER = ∞)."""
    vm = make_vm()
    mu = MutatorContext(vm)
    a = mu.alloc(vm.types.by_name("node"))
    boot_obj = boot_code_objects(vm)[0]
    stats = vm.plan.barrier.stats
    rs = vm.plan.remsets

    slow0, inserts0 = stats.slow_path, rs.inserts
    vm.write_ref(a.addr, 0, boot_obj)  # heap -> boot
    assert stats.slow_path == slow0
    assert rs.inserts == inserts0
    assert mu.read_addr(a, 0) == boot_obj

    vm.write_ref(boot_obj, 1, a.addr)  # boot -> heap
    assert stats.slow_path == slow0 + 1
    assert rs.inserts == inserts0 + 1
    shift = vm.space.frame_shift
    slot_addr = boot_obj + (1 + 3) * 4  # header is 3 words
    assert slot_addr in rs.entries_for_pair(boot_obj >> shift, a.addr >> shift)


def test_compiled_duplicate_insert_accounting():
    """Re-storing the same boot slot reaches the SSB twice; cumulative
    dedup counters must match the eager-dict behaviour."""
    vm = make_vm()
    mu = MutatorContext(vm)
    a = mu.alloc(vm.types.by_name("node"))
    b = mu.alloc(vm.types.by_name("node"))
    assert a.addr >> vm.space.frame_shift == b.addr >> vm.space.frame_shift
    boot_obj = boot_code_objects(vm)[0]
    rs = vm.plan.remsets
    inserts0, dups0, entries0 = rs.inserts, rs.duplicate_inserts, len(rs)
    vm.write_ref(boot_obj, 2, a.addr)
    vm.write_ref(boot_obj, 2, b.addr)  # same slot, same (src, tgt) pair
    assert rs.inserts == inserts0 + 2
    assert rs.duplicate_inserts == dups0 + 1
    assert len(rs) == entries0 + 1


def test_compiled_alloc_tib_store_filtered_by_order_compare():
    """Allocation's type-slot store is barrier traffic (§3.3.2) but the
    order compare filters it: type objects live in infinite-order boot
    frames."""
    vm = make_vm()
    mu = MutatorContext(vm)
    stats = vm.plan.barrier.stats
    fast0, slow0, null0 = stats.fast_path, stats.slow_path, stats.null_stores
    mu.alloc(vm.types.by_name("node"))
    assert stats.fast_path == fast0 + 1
    assert stats.slow_path == slow0
    assert stats.null_stores == null0


def test_compiled_bounds_error_matches_reference():
    vm = make_vm()
    mu = MutatorContext(vm)
    a = mu.alloc(vm.types.by_name("node"))
    with pytest.raises(HeapCorruption) as compiled:
        vm.write_ref(a.addr, 99, 0)
    with pytest.raises(HeapCorruption) as reference:
        vm.model.ref_slot_addr(a.addr, 99)
    assert str(compiled.value) == str(reference.value)


def remembered(plan):
    """The barrier's recorded state in a comparable form: Beltway's
    deduplicated per-pair entries, or the gctk SSB verbatim."""
    rs = plan.remsets
    if hasattr(rs, "pairs"):
        return {pair: rs.entries_for_pair(*pair) for pair in sorted(rs.pairs())}
    return list(rs.slots)


@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
def test_compiled_store_matches_layered_reference_accounting(collector):
    """Twin VMs, identical store sequence: one through the compiled inner
    loop, one through ``ref_slot_addr`` + the barrier's layered
    ``write_ref``.  Both barriers compile from one template pair
    (``core.barrier``) and differ only in the record rule — Beltway's
    order compare + remset insert, gctk's nursery membership + SSB append
    (duplicates kept; young→old and NULL never recorded) — so heap
    contents and every counter the fast path bypasses layers for must come
    out bit-identical under either rule."""

    def build():
        vm = make_vm(collector, heap_kb=32)
        mu = MutatorContext(vm)
        node = vm.types.by_name("node")
        handles = [mu.alloc(node) for _ in range(20)]
        vm.collect()  # the first half survives as old objects
        handles += [mu.alloc(node) for _ in range(20)]
        boots = boot_code_objects(vm)[:2]
        return vm, handles, boots

    vm_a, ha, boots_a = build()
    vm_b, hb, boots_b = build()
    assert [h.addr for h in ha] == [h.addr for h in hb]
    assert boots_a == boots_b

    rng = random.Random(7)
    ops = []
    for _ in range(300):
        if rng.random() < 0.25:  # boot -> heap
            ops.append(("boot", rng.randrange(2), rng.randrange(8), rng.randrange(41)))
        else:  # old <-> young and within each
            ops.append(("heap", rng.randrange(40), rng.randrange(3), rng.randrange(41)))

    for kind, i, slot, j in ops:
        src_a = boots_a[i] if kind == "boot" else ha[i].addr
        tgt_a = 0 if j == 40 else ha[j].addr
        vm_a.write_ref(src_a, slot, tgt_a)  # compiled inner loop

        src_b = boots_b[i] if kind == "boot" else hb[i].addr
        tgt_b = 0 if j == 40 else hb[j].addr
        slot_addr = vm_b.model.ref_slot_addr(src_b, slot)  # layered path
        vm_b.plan.barrier.write_ref(src_b, slot_addr, tgt_b)

    assert vm_a.space.load_count == vm_b.space.load_count
    assert vm_a.space.store_count == vm_b.space.store_count
    sa, sb = vm_a.plan.barrier.stats, vm_b.plan.barrier.stats
    assert (sa.fast_path, sa.slow_path, sa.null_stores) == (
        sb.fast_path, sb.slow_path, sb.null_stores
    )
    assert 0 < sa.slow_path < sa.fast_path - sa.null_stores  # both outcomes hit
    ra, rb = vm_a.plan.remsets, vm_b.plan.remsets
    assert ra.inserts == rb.inserts
    assert ra.duplicate_inserts == rb.duplicate_inserts
    assert remembered(vm_a.plan) == remembered(vm_b.plan)
    if collector.startswith("gctk:"):
        slots = vm_a.plan.ssb.slots
        assert len(slots) > len(set(slots))  # the SSB kept re-stored slots
    for fa, fb in zip(vm_a.space._frames, vm_b.space._frames):
        if fa is not None and fb is not None:
            assert fa.words == fb.words
