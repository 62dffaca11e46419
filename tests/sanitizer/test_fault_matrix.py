"""The self-validating meta-test: every registered fault is detected.

Each fault kind is armed on a fixed, fully deterministic workload and
must produce a non-empty :class:`SanitizerReport` whose *first* violation
comes from the check that is supposed to catch that kind of corruption.
If a fault fires and no checker flags it, the sanitizer has a blind spot
and this file fails — which is the point.
"""

import pytest

from repro import VM, MutatorContext
from repro.errors import ConfigError
from repro.harness.runner import RunOptions, run
from repro.sanitizer import (
    FaultSpec,
    SanitizerViolation,
    arm_faults,
    attach_sanitizer,
)
from repro.sanitizer.faults import BELTWAY_ONLY, FAULT_KINDS
from repro.sanitizer.invariants import check_reserve


def _sabotaged_run(collector, kind, nth=1):
    """Arm one fault, run a tiny hand-built workload, return the report.

    The workload promotes an anchor object out of the youngest frame,
    then stores a young pointer into it (the cross-frame edge every
    remset fault needs), then collects — every fault kind fires and
    every checker boundary is exercised within two collections.
    """
    vm = VM(heap_bytes=96 * 1024, collector=collector)
    injector = arm_faults(vm, [FaultSpec(kind, nth=nth)])
    sanitizer = attach_sanitizer(vm)
    mu = MutatorContext(vm)
    node = vm.define_type("node", nrefs=1, nscalars=1)
    try:
        anchor = mu.alloc(node)
        mu.write_int(anchor, 0, 7)
        vm.collect("promote-anchor")
        young = mu.alloc(node)
        mu.write(anchor, 0, young)
        vm.collect("check")
        sanitizer.check_now()
    except SanitizerViolation:
        pass
    return sanitizer.report, injector


#: (collector, fault kind, check that must flag it first).
MATRIX = [
    ("25.25.100", "barrier.drop-entry", "remset-completeness"),
    ("25.25.100", "remset.corrupt-slot", "remset-completeness"),
    ("25.25.100", "copy.skip-forward", "forwarding"),
    ("25.25.100", "scalar.corrupt", "diff.scalar"),
    ("25.25.100", "order.stale-stamp", "order-stamp"),
    ("25.25.100", "reserve.shrink", "copy-reserve"),
    ("gctk:Appel", "barrier.drop-entry", "remset-completeness"),
    ("gctk:Appel", "remset.corrupt-slot", "remset-completeness"),
    ("gctk:Appel", "copy.skip-forward", "forwarding"),
    ("gctk:Appel", "scalar.corrupt", "diff.scalar"),
]


def test_matrix_covers_every_registered_kind():
    assert {kind for _, kind, _ in MATRIX} == set(FAULT_KINDS)


@pytest.mark.parametrize("collector,kind,check", MATRIX)
def test_fault_is_detected(collector, kind, check):
    report, injector = _sabotaged_run(collector, kind)
    assert injector.fired, f"{kind} never fired on {collector}"
    assert not report.ok, f"{kind} fired on {collector} but went undetected"
    assert report.violations[0].check == check
    # The violation carries actionable detail, not just a flag.
    assert report.violations[0].message


@pytest.mark.parametrize(
    "bench,collector,kind,nth,check",
    [
        ("jess", "25.25.100", "copy.skip-forward", 2, "forwarding"),
        ("jess", "25.25.100", "scalar.corrupt", 3, "diff.scalar"),
        ("jess", "25.25.100", "order.stale-stamp", 1, "order-stamp"),
        ("jess", "25.25.100", "reserve.shrink", 1, "copy-reserve"),
        ("javac", "gctk:Appel", "copy.skip-forward", 2, "forwarding"),
        ("javac", "gctk:Appel", "scalar.corrupt", 2, "diff.scalar"),
    ],
)
def test_fault_detected_through_run_api(bench, collector, kind, nth, check):
    """Faults armed via RunOptions fail the run at the first violation and
    the report lands on the RunReport, naming what was sabotaged."""
    report = run(
        bench, collector, 96 * 1024,
        options=RunOptions(
            scale=0.4, seed=13, sanitize=True,
            faults=(FaultSpec(kind, nth=nth),),
        ),
    )
    assert not report.completed
    assert report.stats.failure.startswith("sanitizer: ")
    sanitizer = report.sanitizer
    assert not sanitizer.ok
    assert sanitizer.violations[0].check == check
    assert sanitizer.faults_injected  # the firing is named in the report
    assert kind in sanitizer.faults_injected[0]


@pytest.mark.parametrize("kind", BELTWAY_ONLY)
def test_beltway_only_faults_refuse_gctk_plans(kind):
    vm = VM(heap_bytes=32 * 1024, collector="gctk:Appel")
    with pytest.raises(ConfigError, match="requires a Beltway plan"):
        arm_faults(vm, [FaultSpec(kind)])


def test_unknown_fault_kind_is_rejected():
    vm = VM(heap_bytes=32 * 1024)
    with pytest.raises(ConfigError):
        arm_faults(vm, [FaultSpec("no.such-fault")])


def test_disarm_restores_the_untouched_path():
    """disarm() removes every instance-level patch it installed."""
    vm = VM(heap_bytes=32 * 1024)
    injector = arm_faults(
        vm, [FaultSpec("barrier.drop-entry"), FaultSpec("reserve.shrink")]
    )
    assert "insert" in vars(vm.plan.remsets)
    injector.disarm()
    assert "insert" not in vars(vm.plan.remsets)
    assert "current_reserve_frames" not in vars(vm.plan)
    assert "collect" not in vars(vm.plan.collector)


def test_reserve_oracle_recomputes_from_scratch():
    """``check_reserve``'s honest value is the spec plus the policy floor,
    never the plan's own incremental terms: stale terms are flagged, and
    ``reserve.shrink`` still fires on the slow path's own query (which
    now passes a lookahead) and is caught."""
    vm = VM(heap_bytes=96 * 1024)
    mu = MutatorContext(vm)
    node = vm.define_type("node", nrefs=1, nscalars=1)
    for _ in range(40):
        mu.alloc(node)
    plan = vm.plan
    assert check_reserve(plan) == []
    honest = plan.current_reserve_frames()
    plan._reserve_terms = (honest + 3, None, ())  # stale, same increment
    assert plan.current_reserve_frames() == honest + 4
    [violation] = check_reserve(plan)
    assert violation.check == "copy-reserve" and str(honest) in violation.message
    plan._restructured()
    assert check_reserve(plan) == []

    injector = arm_faults(vm, [FaultSpec("reserve.shrink")])
    plan._may_grow(plan.allocation_increment)
    assert injector.fired and "under-reported" in injector.events[0]
    [violation] = check_reserve(plan)
    assert violation.check == "copy-reserve"
