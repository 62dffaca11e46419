"""Tests for the six SPEC-like benchmark definitions."""

import pytest

from repro.bench.spec import (
    BENCHMARK_NAMES,
    KB,
    all_specs,
    benchmark_spec,
    canonical_name,
)
from repro.errors import ConfigError
from repro.harness.runner import RunOptions, run


def _run_stats(name, collector, heap_bytes, scale=1.0):
    return run(
        name, collector, heap_bytes, options=RunOptions(scale=scale)
    ).stats


def test_registry_names_and_aliases():
    assert canonical_name("jess") == "jess"
    assert canonical_name("_202_jess") == "jess"
    assert canonical_name("JBB") == "pseudojbb"
    with pytest.raises(ConfigError):
        canonical_name("doom")


def test_all_specs_complete_metadata():
    for spec in all_specs():
        assert spec.total_alloc_bytes > 50 * KB
        assert spec.sites, spec.name
        assert abs(sum(s.weight for s in spec.sites) - 1.0) < 1e-6, spec.name
        for site in spec.sites:
            assert site.lifetime in spec.lifetimes, spec.name
        assert spec.paper is not None
        assert spec.paper.min_heap_bytes > 0


def test_spec_scaling():
    full = benchmark_spec("jess")
    half = benchmark_spec("jess", scale=0.5)
    assert half.total_alloc_bytes == full.total_alloc_bytes // 2
    assert half.paper.min_heap_bytes == full.paper.min_heap_bytes


def test_table1_totals_match_paper():
    """Total allocation is the paper's number (scaled 1024x)."""
    expected = {
        "jess": 301,
        "raytrace": 127,
        "db": 102,
        "javac": 266,
        "jack": 320,
        "pseudojbb": 381,
    }
    for name, kb in expected.items():
        assert benchmark_spec(name).total_alloc_bytes == kb * KB


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_runs_to_completion(name):
    """Each benchmark completes at ~2.5x its paper minimum, shortened 5x."""
    spec = benchmark_spec(name)
    heap = int(2.5 * spec.paper.min_heap_bytes)
    stats = _run_stats(name, "gctk:Appel", heap, scale=0.2)
    assert stats.completed, stats.failure
    assert stats.allocated_bytes >= 0.2 * spec.total_alloc_bytes * 0.9
    # the unshortened run at the same heap must need collections
    full = _run_stats(name, "gctk:Appel", heap)
    assert full.completed and full.collections > 0


@pytest.mark.parametrize("name", BENCHMARK_NAMES)
def test_benchmark_deterministic(name):
    spec = benchmark_spec(name)
    heap = int(2.5 * spec.paper.min_heap_bytes)
    a = _run_stats(name, "25.25.100", heap, scale=0.1)
    b = _run_stats(name, "25.25.100", heap, scale=0.1)
    assert a.total_cycles == b.total_cycles
    assert a.collections == b.collections


def test_javac_builds_cycles():
    from repro.bench.engine import SyntheticMutator
    from repro.runtime import VM

    spec = benchmark_spec("javac", scale=0.2)
    vm = VM(2 * spec.paper.min_heap_bytes, collector="25.25.100")
    engine = SyntheticMutator(vm, spec, seed=13)
    engine.run()
    assert engine.cycles_built > 5


def test_db_setup_builds_immortal_database():
    from repro.bench.engine import SyntheticMutator
    from repro.runtime import VM

    spec = benchmark_spec("db", scale=0.05)
    vm = VM(2 * spec.paper.min_heap_bytes, collector="gctk:Appel")
    engine = SyntheticMutator(vm, spec, seed=13)
    engine.run()
    # 4 chunks * 24 records * (record + payload) + directory
    assert len(engine.immortals) >= 4 * 24 * 2


def test_pseudojbb_has_middle_aged_orders():
    spec = benchmark_spec("pseudojbb")
    order = spec.lifetimes["order"]
    nursery_increment = spec.paper.min_heap_bytes // 5  # 25.25.100 increment
    assert order.lo_bytes > nursery_increment // 4
    assert order.hi_bytes < spec.paper.min_heap_bytes


def test_locality_models_differ():
    db = benchmark_spec("db").locality
    jess = benchmark_spec("jess").locality
    jbb = benchmark_spec("pseudojbb").locality
    assert db.cache_sensitivity > jess.cache_sensitivity
    assert jbb.memory_words > 0  # only pseudojbb pages
    assert jess.memory_words == 0
