"""Cross-tier equivalence for the substrate-kernel tier (DESIGN §13).

The kernel tiers (``python`` reference, ``cffi`` compiled trace engine
and tape kernel) are pure mechanism: a fixed-seed run must produce
**bit-identical** statistics on both.  These tests replay a slice
of the golden-counter suite under each tier explicitly (the plain suite
runs whatever ``auto`` resolves to), and run the sanitizer plus the
fault-injection matrix on the fastest available tier — the checkers and
the fault seams all live outside the kernels, so sabotage must stay
exactly as detectable when the compiled paths are doing the copying.

Tiers whose backend is absent in the environment are skipped with the
probe's reason, never failed: missing accelerators degrade, they don't
break (see ``repro.kernels.available``).
"""

import functools
import os
import subprocess
import sys

import pytest

from repro import VM, MutatorContext
from repro.errors import ConfigError
from repro.harness.runner import RunOptions, run
from repro.heap.cheney import CheneyEngine
from repro.kernels import TIER_ORDER, available, resolve
from repro.sanitizer import FaultSpec, SanitizerViolation, arm_faults, attach_sanitizer

from ..core.test_counter_equivalence import GOLDEN, replay

TIERS = ("python", "cffi")

#: A slice of the golden grid spanning every benchmark and all four
#: collector families (Beltway generational, MOS, Appel-style, gctk).
CELLS = (
    "jess/25.25.100",
    "javac/Appel",
    "db/25.25.MOS",
    "jack/gctk:Appel",
    "raytrace/25.25.100",
    "pseudojbb/gctk:Appel",
)

#: The abort path the goldens do not pin (no golden cell fails): one
#: sub-minimum heap (``@bytes``) per collector family member.  Min-heap
#: search and the campaign digests depend on a failing cell being the same
#: cell on every tier, counters and failure string alike.  The first four
#: die *inside* the trace (the copy reserve runs out mid-evacuation), the
#: fifth in the allocator; the BOFM cell overflows allocation increments.
OOM_CELLS = (
    "javac/25.25.100@41984",
    "pseudojbb/100.100@76800",
    "pseudojbb/gctk:Appel@76800",
    "javac/gctk:SS@29696",
    "jack/gctk:Fixed.25@12288",
    "javac/BOFM.25@24576",
)


def _require(tier: str) -> None:
    status = available().get(tier, "unknown tier")
    if not status.startswith("ok"):
        pytest.skip(f"{tier} tier unavailable: {status}")


def fastest_tier() -> str:
    for tier in TIER_ORDER:
        if available()[tier].startswith("ok"):
            return tier
    return "python"


@functools.lru_cache(maxsize=None)
def _reference(cell: str):
    """``(benchmark, collector, heap_bytes, expected counters)`` of a cell:
    the golden for a golden cell; for an out-of-memory cell, which has no
    golden, what the python tier reports."""
    benchmark, collector = cell.split("/", 1)
    if "@" not in collector:
        golden = GOLDEN["cells"][cell]
        expected = {k: v for k, v in golden.items() if k != "heap_bytes"}
        return benchmark, collector, golden["heap_bytes"], expected
    collector, heap_bytes = collector.split("@")
    expected = replay(benchmark, collector, int(heap_bytes),
                      GOLDEN["scale"], GOLDEN["seed"], tier="python")
    assert not expected["completed"] and expected["failure"]
    return benchmark, collector, int(heap_bytes), expected


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("cell", CELLS + OOM_CELLS)
def test_golden_counters_bit_identical_on_every_tier(cell, tier):
    _require(tier)
    benchmark, collector, heap_bytes, expected = _reference(cell)
    got = replay(benchmark, collector, heap_bytes,
                 GOLDEN["scale"], GOLDEN["seed"], tier=tier)
    assert got == expected


def test_requested_tier_is_what_runs():
    """The parametrisation above is only meaningful if an explicit tier
    request resolves to that tier (not silently to something else)."""
    for tier in TIERS:
        if available()[tier].startswith("ok"):
            assert resolve(tier).name == tier


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("collector", (
    "25.25.100", "BOF.25", "gctk:Appel", "gctk:SS", "gctk:Fixed.25", "25.25.MOS",
))
def test_plan_traces_with_its_tiers_engine(collector, tier):
    """Identity, not speed: bit-identical engines keep every golden green
    whichever runs.  MOS (``kernel_traceable = False``) is Python on both."""
    _require(tier)
    plan = VM(heap_bytes=64 * 1024, collector=collector, tier=tier).plan
    engine = getattr(plan, "collector", plan)._open_engine.func
    if tier == "cffi" and collector != "25.25.MOS":
        assert engine is plan.kernels.cik.TraceState
    else:
        assert engine is CheneyEngine


def test_unavailable_backend_degrades_not_raises(monkeypatch):
    """A requested-but-absent backend drops down TIER_ORDER silently."""
    import repro.kernels as kernels

    monkeypatch.setitem(kernels._availability_cache, "cffi",
                        "unavailable: simulated")
    resolved = resolve("cffi")
    assert resolved.name == "python"
    assert resolved.requested == "cffi"
    # A VM built against the degraded tier still works end to end.
    vm = VM(heap_bytes=64 * 1024, collector="25.25.100", tier="cffi")
    mu = MutatorContext(vm)
    node = vm.define_type("node", nrefs=1, nscalars=1)
    a, b = mu.alloc(node), mu.alloc(node)
    mu.write(a, 0, b)
    vm.collect("smoke")


def test_numpy_is_a_retired_request_not_a_tier():
    """The frozen e2e ledger still asks for ``numpy``; it gets the
    reference tier.  Every other unknown name is still an error."""
    resolved = resolve("numpy")
    assert (resolved.name, resolved.requested) == ("python", "numpy")
    assert "numpy" not in TIER_ORDER and "numpy" not in available()
    with pytest.raises(ConfigError, match="unknown substrate tier 'numba'"):
        resolve("numba")


def test_no_tier_loads_numpy():
    """Structural, not a stopwatch: a process that imports the package,
    resolves its kernels and runs a cell on ``auto`` never imports numpy
    (~11 MB of RSS and 0.05-0.13 s of start-up when it did)."""
    program = (
        "import sys, repro\n"
        "from repro import kernels\n"
        "kernels.resolve()\n"
        "report = repro.run('jess', '25.25.100', 48 * 1024,\n"
        "                   options=repro.RunOptions(scale=0.1))\n"
        "assert report.completed\n"
        "sys.exit('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.pop("REPRO_SUBSTRATE_TIER", None)
    done = subprocess.run([sys.executable, "-c", program], env=env, timeout=120)
    assert done.returncode == 0


# ----------------------------------------------------------------------
# Sanitizer on the fastest tier: full checking attaches cleanly and the
# fault matrix stays exactly as detectable with compiled kernels live.
# ----------------------------------------------------------------------
def test_sanitizer_clean_run_on_fastest_tier(monkeypatch):
    tier = fastest_tier()
    monkeypatch.setenv("REPRO_SUBSTRATE_TIER", tier)
    report = run("jess", "25.25.100", 96 * 1024,
                 options=RunOptions(scale=0.4, seed=13, sanitize=True))
    assert report.completed
    assert report.sanitizer.ok
    assert report.sanitizer.collections_checked > 0


#: (collector, fault kind, check that must flag it first) — the Beltway
#: and gctk rows of the sanitizer meta-test, re-run with kernels enabled.
FAULT_MATRIX = [
    ("25.25.100", "barrier.drop-entry", "remset-completeness"),
    ("25.25.100", "remset.corrupt-slot", "remset-completeness"),
    ("25.25.100", "copy.skip-forward", "forwarding"),
    ("25.25.100", "scalar.corrupt", "diff.scalar"),
    ("25.25.100", "order.stale-stamp", "order-stamp"),
    ("25.25.100", "reserve.shrink", "copy-reserve"),
    ("gctk:Appel", "barrier.drop-entry", "remset-completeness"),
    ("gctk:Appel", "copy.skip-forward", "forwarding"),
    ("gctk:Appel", "scalar.corrupt", "diff.scalar"),
]


@pytest.mark.parametrize("collector,kind,check", FAULT_MATRIX)
def test_fault_detected_on_fastest_tier(collector, kind, check):
    """Same workload as tests/sanitizer/test_fault_matrix.py, tier forced
    to the fastest backend: every fault must fire and be flagged by the
    same checker as on the reference tier."""
    vm = VM(heap_bytes=96 * 1024, collector=collector, tier=fastest_tier())
    injector = arm_faults(vm, [FaultSpec(kind, nth=1)])
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
    report = sanitizer.report
    assert injector.fired, f"{kind} never fired on {collector}"
    assert not report.ok, f"{kind} fired on {collector} but went undetected"
    assert report.violations[0].check == check
