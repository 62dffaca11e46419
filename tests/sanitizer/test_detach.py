"""Attach → detach returns a VM to the untouched-code path.

Both observers (the telemetry instrumentation and the sanitizer) advertise
``detach()``; after it runs, the VM's counters must advance
bit-identically to a VM that was never observed, and no instance-level
wrapper may remain behind.
"""

import pytest

from repro import VM, MutatorContext
from repro.obs import RingBufferSink, TelemetryBus, attach
from repro.obs.profiler import attach_profiler
from repro.sanitizer import attach_sanitizer
from repro.sanitizer.faults import FaultSpec, arm_faults


def _build(collector="25.25.100", heap_bytes=32 * 1024):
    vm = VM(heap_bytes=heap_bytes, collector=collector)
    node = vm.define_type("node", nrefs=1, nscalars=1)
    return vm, node


def _segment(vm, mu, node, start, count):
    """A deterministic slice of mutator work (allocs, stores, scalars)."""
    head = mu.alloc(node)
    for i in range(start, start + count):
        child = mu.alloc(node)
        mu.write(child, 0, head)
        mu.write_int(child, 0, i)
        head = child
    vm.collect("segment-end")
    return head


def test_tracer_detach_counters_bit_identical():
    """Plain run vs attach-mid-run + detach-mid-run: identical RunStats."""
    vm_a, node_a = _build()
    mu_a = MutatorContext(vm_a)
    for start in (0, 100, 200):
        _segment(vm_a, mu_a, node_a, start, 80)
    stats_a = vm_a.finish()

    vm_b, node_b = _build()
    mu_b = MutatorContext(vm_b)
    _segment(vm_b, mu_b, node_b, 0, 80)
    bus = TelemetryBus()
    sink = bus.subscribe(RingBufferSink())
    tracer = attach(vm_b, bus, snapshot_every=1)
    _segment(vm_b, mu_b, node_b, 100, 80)
    tracer.detach()
    _segment(vm_b, mu_b, node_b, 200, 80)
    stats_b = vm_b.finish()

    assert sink.of_kind("gc.end")  # it really observed the middle segment
    assert stats_a == stats_b
    # No wrapper left on the plan's entry points or the space.
    assert "collect" not in vars(vm_b.plan)
    assert "acquire_frame" not in vars(vm_b.space)
    assert vm_b._on_collection in vm_b.plan.collection_listeners


def test_tracer_detach_is_idempotent_and_keeps_events():
    vm, node = _build()
    mu = MutatorContext(vm)
    bus = TelemetryBus()
    sink = bus.subscribe(RingBufferSink())
    tracer = attach(vm, bus, snapshot_every=0)
    _segment(vm, mu, node, 0, 60)
    events_before = sink.events
    tracer.detach()
    tracer.detach()  # second call must be a no-op
    _segment(vm, mu, node, 100, 60)
    assert sink.events == events_before


def test_sanitizer_detach_counters_bit_identical():
    """Sanitized first half + detach + clean second half matches a run
    that was never attached (same mutator-context structure)."""
    vm_a, node_a = _build()
    mu_a1 = MutatorContext(vm_a)
    _segment(vm_a, mu_a1, node_a, 0, 80)
    mu_a2 = MutatorContext(vm_a)
    _segment(vm_a, mu_a2, node_a, 100, 80)
    stats_a = vm_a.finish()

    vm_b, node_b = _build()
    sanitizer = attach_sanitizer(vm_b)
    mu_b1 = MutatorContext(vm_b)
    _segment(vm_b, mu_b1, node_b, 0, 80)
    sanitizer.check_now()
    sanitizer.detach()
    mu_b2 = MutatorContext(vm_b)
    _segment(vm_b, mu_b2, node_b, 100, 80)
    stats_b = vm_b.finish()

    assert sanitizer.report.ok
    assert sanitizer.report.collections_checked > 0
    assert stats_a == stats_b


def test_sanitizer_detach_removes_every_wrapper():
    vm, node = _build()
    sanitizer = attach_sanitizer(vm)
    mu = MutatorContext(vm)
    _segment(vm, mu, node, 0, 40)

    assert "alloc" in vars(vm)
    assert "acquire" in vars(mu.table)
    sanitizer.detach()
    sanitizer.detach()  # idempotent
    assert "alloc" not in vars(vm)
    assert "write_ref" not in vars(vm)
    assert "write_int" not in vars(vm)
    assert "acquire" not in vars(mu.table)
    assert "release" not in vars(mu.table)
    assert vm.mutator_observer is None
    # New mutator contexts are built on the clean path.
    mu2 = MutatorContext(vm)
    assert "acquire" not in vars(mu2.table)


# ----------------------------------------------------------------------
# One seam (DESIGN §10): everything attaches and detaches in any order
# ----------------------------------------------------------------------
_NEVER = 10 ** 9  # a fault occurrence no run reaches: wrapped, but honest


def _arm_dormant_faults(vm):
    kinds = ["barrier.drop-entry"]  # also recompiles the write paths
    if hasattr(vm.plan, "belts"):
        kinds.append("reserve.shrink")
    return arm_faults(vm, [FaultSpec(kind, nth=_NEVER) for kind in kinds])


_ATTACH = {
    "telemetry": lambda vm: vm.attach_telemetry(TelemetryBus()),
    "profiler": attach_profiler,
    "sanitizer": attach_sanitizer,
    "faults": _arm_dormant_faults,
    "tracer": lambda vm: attach(vm, TelemetryBus(), snapshot_every=1),
}
_NAMES = list(_ATTACH)
#: Every rotation plus the reversal: each attachment is first once and
#: last once, and each adjacent pair appears in both orders.
_ORDERS = [_NAMES[i:] + _NAMES[:i] for i in range(len(_NAMES))] + [_NAMES[::-1]]


def _remove(handle):
    (getattr(handle, "detach", None) or handle.disarm)()


def _wrappable(vm):
    plan = vm.plan
    owners = [vm, plan, vm.space, plan.remsets,
              getattr(plan, "ssb", None), getattr(plan, "collector", None)]
    return [owner for owner in owners if owner is not None]


def _callables(vm):
    """Every callable instance attribute on the objects the seam wraps."""
    return [
        {name: value for name, value in vars(owner).items() if callable(value)}
        for owner in _wrappable(vm)
    ]


def _initials(order):
    return "".join(name[:2] for name in order)


@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
@pytest.mark.parametrize("detach_order", _ORDERS, ids=_initials)
@pytest.mark.parametrize("attach_order", _ORDERS, ids=_initials)
def test_attachments_come_off_in_any_order(collector, attach_order, detach_order):
    segments = len(_NAMES) + 2
    reference, node = _build(collector, heap_bytes=64 * 1024)
    for k in range(segments):
        _segment(reference, MutatorContext(reference), node, 100 * k, 40)

    vm, node = _build(collector, heap_bytes=64 * 1024)
    pristine = _callables(vm)
    handles = {name: _ATTACH[name](vm) for name in attach_order}
    assert vm.seam.active
    sanitizer, profiler = handles["sanitizer"], handles["profiler"]
    _segment(vm, MutatorContext(vm), node, 0, 40)
    live = set(_NAMES)
    for k, name in enumerate(detach_order, start=1):
        _remove(handles[name])
        live.remove(name)
        # A fresh context per segment: contexts cache bound methods.
        _segment(vm, MutatorContext(vm), node, 100 * k, 40)
        if "sanitizer" in live:
            assert sanitizer.check_now().ok
            assert (sanitizer.report.collections_checked
                    == len(vm.plan.collections))
        if "profiler" in live:
            assert profiler.census.stamped_objects == vm.plan.allocations
    assert sanitizer.report.ok

    assert not vm.seam.active
    assert _callables(vm) == pristine  # exact restore, nothing left behind
    assert vm.mutator_observer is None
    assert vm.plan.collection_listeners == [vm._on_collection]
    for handle in handles.values():  # a second detach is a no-op
        _remove(handle)
    assert _callables(vm) == pristine
    _segment(vm, MutatorContext(vm), node, 100 * (segments - 1), 40)
    assert vm.finish() == reference.finish()
