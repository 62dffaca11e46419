"""Tests for the Mature Object Space (train algorithm) top belt.

The paper's future-work extension (§3.2, §5): replace the X.X.100 third
belt with a complete *incremental* collector.  These tests check the
train mechanics (cars, promotion routing, FIFO collection), the
completeness payoff (whole-train reclamation of cross-increment cycles
without any full-heap collection), and the bounded worst case (no
collection batch ever exceeds one car plus the lower-belt increments).
"""

import pytest

from repro.core.config import BeltwayConfig
from repro.core.mos import MOSPolicy
from repro.runtime import VM, MutatorContext


def make_vm(frames=96, config="25.25.MOS", **kwargs):
    vm = VM(heap_bytes=frames * 256, collector=config, debug_verify=True, **kwargs)
    vm.define_type("node", nrefs=2, nscalars=1)
    return vm, MutatorContext(vm)


def churn(vm, mu, n):
    node = vm.types.by_name("node")
    for _ in range(n):
        mu.alloc(node).drop()


def age_into_mature(vm, mu, handles, spin=12000):
    """Drive allocation with medium-lived survivors so belt 1 keeps
    filling and being collected, pushing `handles` into the MOS belt."""
    node = vm.types.by_name("node")
    policy = vm.plan.policy
    window = []
    for i in range(spin):
        h = mu.alloc(node)
        if i % 5 == 0:
            window.append(h)
            if len(window) > 60:
                window.pop(0).drop()
        else:
            h.drop()
        if policy.trains and all(
            _in_mature(vm, h.addr) for h in handles if not h.is_null
        ):
            for w in window:
                w.drop()
            return True
    for w in window:
        w.drop()
    return False


def _in_mature(vm, addr):
    frame = vm.space.frame_containing(addr)
    inc = frame.increment
    return inc is not None and inc.belt.index == vm.plan.config.top_belt


# ----------------------------------------------------------------------
# Configuration & structure
# ----------------------------------------------------------------------
def test_mos_config_parses():
    cfg = BeltwayConfig.parse("25.25.MOS")
    assert cfg.mos_top_belt
    assert cfg.is_complete
    assert len(cfg.belts) == 3
    assert not cfg.belts[2].growable  # cars are bounded


def test_mos_policy_selected():
    vm, _ = make_vm()
    assert isinstance(vm.plan.policy, MOSPolicy)
    assert vm.plan.policy.manages_belt(2)
    assert not vm.plan.policy.manages_belt(1)


def test_long_lived_objects_reach_trains():
    vm, mu = make_vm(frames=64)
    node = vm.types.by_name("node")
    elders = [mu.alloc(node) for _ in range(40)]
    for i, h in enumerate(elders):
        mu.write_int(h, 0, i)
    assert age_into_mature(vm, mu, elders), "objects never reached the trains"
    policy = vm.plan.policy
    assert policy.trains
    assert all(train.cars for train in policy.trains)
    # data still intact after the journey through three belts
    for i, h in enumerate(elders):
        assert mu.read_int(h, 0) == i
    vm.plan.verify()


def test_cars_are_bounded_and_ordered():
    vm, mu = make_vm(frames=64)
    node = vm.types.by_name("node")
    elders = [mu.alloc(node) for _ in range(60)]
    age_into_mature(vm, mu, elders, spin=20000)
    policy = vm.plan.policy
    belt = vm.plan.belts[2]
    # the belt's deque mirrors the flattened (train, car) order
    flattened = [car for train in policy.trains for car in train.cars]
    assert list(belt.increments) == flattened
    # stamps strictly increase in that order
    stamps = [car.stamp for car in flattened]
    assert stamps == sorted(stamps)
    # no car exceeds the belt's increment size
    cap = belt.increment_frames
    assert all(car.num_frames <= cap for car in flattened)


def test_mos_collections_never_full_heap():
    """The extension's contract: completeness *without* full-heap
    collections — no batch ever contains more than one mature car."""
    vm, mu = make_vm(frames=64)
    node = vm.types.by_name("node")
    keep = []
    for i in range(30000):
        h = mu.alloc(node)
        if i % 6 == 0:
            keep.append(h)
            if len(keep) > 120:
                keep.pop(0).drop()
        else:
            h.drop()
    mature_batches = [
        r for r in vm.plan.collections if 2 in r.belts_collected
    ]
    copying = [r for r in mature_batches if r.reason != "train-reclaim"]
    for r in copying:
        assert r.increments_collected <= 1 + 2, r  # one car (+ cascade slack)
    assert not any(r.was_full_heap for r in vm.plan.collections)
    vm.plan.verify()


# ----------------------------------------------------------------------
# Completeness: cross-increment cycles
# ----------------------------------------------------------------------
def test_whole_train_reclaimed_when_garbage():
    """A dead cycle *larger than one car* can never die at a single car
    collection — its members are always externally referenced from the
    sibling cars.  Only the whole-train check reclaims it: the signature
    capability of the train algorithm."""
    vm, mu = make_vm(frames=64)
    node = vm.types.by_name("node")
    # One big ring, bigger than a car (car = 12 frames = 128 six-word
    # nodes at this heap size).
    ring = [mu.alloc(node) for _ in range(200)]
    for i, h in enumerate(ring):
        mu.write(h, 0, ring[(i + 1) % 200])
    # every member must reach the mature space (the ring spans >= 2 cars)
    assert age_into_mature(vm, mu, ring, spin=40000)
    for h in ring:
        h.drop()
    # Keep allocating *with survivors* (memory pressure is what escalates
    # collection to the mature belt): the dead trains must eventually be
    # reclaimed wholesale, and allocation must never fail.
    policy = vm.plan.policy
    node = vm.types.by_name("node")
    window = []
    for i in range(40000):
        h = mu.alloc(node)
        if i % 5 == 0:
            window.append(h)
            if len(window) > 80:
                window.pop(0).drop()
        else:
            h.drop()
        if policy.trains_reclaimed:
            break
    assert policy.trains_reclaimed >= 1, "no garbage train was ever reclaimed"
    reclaims = [
        r for r in vm.plan.collections if r.reason == "train-reclaim"
    ]
    assert reclaims
    assert all(r.copied_words == 0 for r in reclaims)  # copy-free
    vm.plan.verify()


def test_mos_reclaims_cross_increment_cycles():
    """The javac pathology under X.X — reclaimed by X.X.MOS without any
    full-heap collection."""
    vm, mu = make_vm(frames=72)
    node = vm.types.by_name("node")
    pending = None
    for generation in range(40):
        ring = [mu.alloc(node) for _ in range(4)]
        for i, h in enumerate(ring):
            mu.write(h, 0, ring[(i + 1) % 4])
        if pending is not None:
            mu.write(ring[0], 1, pending)
            mu.write(pending, 1, ring[0])
            pending.drop()
            pending = None
        else:
            pending = mu.copy_handle(ring[0])
        for h in ring:
            h.drop()
        churn(vm, mu, 500)
    if pending is not None:
        pending.drop()
    # long churn: the cycles must not accumulate without bound
    churn(vm, mu, 30000)
    reachable = vm.plan.verify()
    retained = vm.plan.live_words_upper_bound
    # At least the bulk of the ~40 rings (5120 bytes of nodes) must have
    # been reclaimed; the occupancy above reachable is working garbage,
    # not an ever-growing cycle graveyard.
    assert retained - reachable.words < 3000, (
        f"occupancy {retained}w vs reachable {reachable.words}w: "
        "cross-increment cycles appear to be retained"
    )
    assert not any(r.was_full_heap for r in vm.plan.collections)
    vm.plan.verify()


def test_cycle_members_migrate_to_one_train():
    """Collecting a car moves survivors referenced from another train into
    that train — the clustering rule that makes trains complete."""
    vm, mu = make_vm(frames=96)
    node = vm.types.by_name("node")
    a = mu.alloc(node)
    b = mu.alloc(node)
    mu.write(a, 0, b)
    mu.write(b, 0, a)
    assert age_into_mature(vm, mu, [a, b], spin=25000)
    policy = vm.plan.policy

    def trains_of(handles):
        shift = vm.space.frame_shift
        found = set()
        for h in handles:
            train = policy._train_of(vm.plan, h.addr >> shift)
            found.add(None if train is None else train.id)
        return found

    # drive mature collections until both ends sit in one train
    for _ in range(40000):
        mu.alloc(node).drop()
        if len(trains_of([a, b])) == 1 and None not in trains_of([a, b]):
            break
    assert len(trains_of([a, b])) == 1
    assert mu.read_addr(b, 0) == a.addr
    vm.plan.verify()


# ----------------------------------------------------------------------
# Train unit behaviour
# ----------------------------------------------------------------------
def test_train_ids_monotonic():
    policy = MOSPolicy(BeltwayConfig.parse("25.25.MOS"))
    # a train without cars cannot receive, so each call opens another
    t1 = policy.external_dest_context(None, set())
    t2 = policy.external_dest_context(None, set())
    assert (t1.id, t2.id) == (0, 1)
    # ids restart with every heap's policy, never from process history
    fresh = MOSPolicy(BeltwayConfig.parse("25.25.MOS"))
    assert fresh.external_dest_context(None, set()).id == 0
    assert t1.num_frames == 0
    assert t1.frame_indices() == set()


def test_empty_trains_pruned():
    vm, mu = make_vm(frames=64)
    node = vm.types.by_name("node")
    elders = [mu.alloc(node) for _ in range(30)]
    age_into_mature(vm, mu, elders, spin=20000)
    policy = vm.plan.policy
    assert all(train.cars for train in policy.trains)
