"""Frame grants and the incremental copy reserve (DESIGN §13).

Between two structural changes a Beltway heap evaluates its copy reserve
from frozen per-belt terms in O(1), and on the cffi tier ``k_replay``
moves the mutator onto the free-pool frames the plan granted instead of
handing each frame crossing back to Python.  Both are optimisations of
one reference path, so both are checked against it on collector strings
drawn from the generated-config families (MOS, BOF, BOFM, time-to-die,
remset trigger and the fixed half-heap reserve included):

* on the python tier, where every frame acquisition runs the slow path,
  the incremental reserve equals the from-scratch spec at every one;
* a granted cffi run, a cffi run with grants switched off and the python
  tier leave identical ``RunStats``, and each granted move replaces
  exactly one ``alloc_slow`` bail.
"""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import run
from repro.bench.engine import SyntheticMutator
from repro.bench.spec import benchmark_spec
from repro.core.config import BeltwayConfig
from repro.errors import OutOfMemory
from repro.kernels import TIER_ENV, available
from repro.runtime.vm import VM
from repro.sanitizer.invariants import check_reserve

from .test_generated_configs import FAMILIES, GOLDEN, PCTS, SCALE, SEED, SPECS

VARIANTS = (None, "ttd", "remsets", "half")


def _collector(family, x, y, z, variant):
    text = family.format(x=x, y=y, z=z)
    if text.startswith("gctk:") or variant is None:
        return text
    config = BeltwayConfig.parse(text)
    if variant == "ttd":
        return config.with_time_to_die(2048)
    if variant == "remsets":
        return config.with_remset_trigger(24)
    return dataclasses.replace(config, name=f"{text}+half", fixed_half_reserve=True)


def collectors(families):
    pct = st.sampled_from(PCTS)
    return st.builds(
        _collector, st.sampled_from(families), pct, pct, pct,
        st.sampled_from(VARIANTS),
    )


cells = st.tuples(st.sampled_from(SPECS), st.sampled_from((1.25, 2.5)))


def run_cell(collector, spec_name, ratio, tier, prepare=None):
    golden_heap = GOLDEN[f"{spec_name}/gctk:Appel"]["heap_bytes"]
    spec = benchmark_spec(spec_name, SCALE)
    vm = VM(int(golden_heap * ratio) // 256 * 256, collector=collector,
            locality=spec.locality, benchmark_name=spec.name, tier=tier)
    if prepare is not None:
        prepare(vm.plan)
    engine = SyntheticMutator(vm, spec, seed=SEED)
    try:
        stats = engine.run()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
    return stats, engine.replay_path


@given(collectors([f for f in FAMILIES if not f.startswith("gctk:")]), cells)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_incremental_reserve_equals_the_spec_at_every_acquisition(collector, cell):
    checked = []

    def prepare(plan):
        reserve_allows = plan._reserve_allows

        def checking(extra_frames, ahead=0):
            assert ahead == 0  # no grant is ever computed on this tier
            assert check_reserve(plan) == []
            checked.append(extra_frames)
            return reserve_allows(extra_frames, ahead)

        plan._reserve_allows = checking

    run_cell(collector, *cell, "python", prepare)
    assert checked


def no_grants(plan):
    plan.frame_grant = lambda: ([], 0, 0)


@pytest.mark.skipif(not available()["cffi"].startswith("ok"),
                    reason=f"cffi tier unavailable: {available()['cffi']}")
@given(collectors(FAMILIES + ("gctk:Appel",)), cells)
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_granted_and_ungranted_runs_leave_identical_stats(collector, cell):
    granted, path = run_cell(collector, *cell, "cffi")
    ungranted, plain = run_cell(collector, *cell, "cffi", no_grants)
    reference, _ = run_cell(collector, *cell, "python")
    assert granted == ungranted == reference
    assert plain.granted == 0
    assert path.bails["alloc_slow"] + path.granted == plain.bails["alloc_slow"]
    assert path.bails["barrier_slow"] == plain.bails["barrier_slow"]


@pytest.mark.skipif(not available()["cffi"].startswith("ok"),
                    reason=f"cffi tier unavailable: {available()['cffi']}")
@pytest.mark.parametrize("collector", ["25.25.100", "gctk:Appel"])
def test_grants_carry_most_frame_crossings(collector, monkeypatch):
    """Once the free pool is warm, one alloc bail per trigger, not one
    per frame (the cell ``check_replay_path.py`` gates)."""
    monkeypatch.setenv(TIER_ENV, "cffi")
    path = run("jess", collector, 25600).replay
    assert path.granted > 5 * path.bails["alloc_slow"] > 0
