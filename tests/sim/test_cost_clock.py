"""Unit tests for the cost model, clock and locality penalty."""

import pytest

from repro.sim.clock import Clock
from repro.sim.cost import CostModel, DEFAULT_COST_MODEL, cycles_to_seconds
from repro.sim.locality import LocalityModel, NO_LOCALITY


# ----------------------------------------------------------------------
# CostModel
# ----------------------------------------------------------------------
def test_collection_cost_components():
    cm = CostModel()
    base = cm.collection_cost(0, 0, 0, 0, 0, 0)
    assert base == cm.gc_setup
    with_copy = cm.collection_cost(1, 10, 0, 0, 0, 0)
    assert with_copy == base + cm.copy_object + 10 * cm.copy_word
    with_boot = cm.collection_cost(0, 0, 0, 0, 0, 0, boot_slots_scanned=5)
    assert with_boot == base + 5 * cm.boot_scan_slot


@pytest.mark.parametrize("name,collector,heap_bytes", [
    ("jess", "25.25.100", 25600),
    ("javac", "gctk:Appel", 84992),
])
def test_collection_components_sum_to_the_charged_pause(
    name, collector, heap_bytes
):
    """One decomposition: on every collection of two golden cells the
    components are ``collection_cost`` term by term — which is what the
    clock was charged."""
    from repro.harness.runner import RunOptions, run
    from repro.sim.cost import COLLECTION_COMPONENTS

    report = run(
        name, collector, heap_bytes,
        options=RunOptions(scale=0.4, ring_buffer=0),
    )
    collections = [e.data for e in report.events if e.kind == "gc.end"]
    assert len(collections) == report.stats.collections > 0
    cm = DEFAULT_COST_MODEL
    for data in collections:
        components = cm.collection_components(**data)
        assert tuple(components) == COLLECTION_COMPONENTS
        assert sum(components.values()) == data["pause_cycles"] == cm.collection_cost(
            data["copied_objects"], data["copied_words"],
            data["scanned_ref_slots"], data["root_slots"],
            data["remset_slots"], data["freed_frames"],
            data["boot_slots_scanned"],
        )


def test_copying_costs_more_than_allocation():
    cm = DEFAULT_COST_MODEL
    assert cm.copy_word > cm.alloc_word


def test_cycles_to_seconds_positive():
    assert cycles_to_seconds(1e6) > 0


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
def test_clock_accumulates():
    clock = Clock()
    clock.charge_mutator(100)
    record = clock.charge_pause(50, "minor")
    clock.charge_mutator(25)
    assert clock.total_cycles == 175
    assert clock.mutator_cycles == 125
    assert clock.gc_cycles == 50
    assert record.start == 100 and record.end == 150
    assert clock.gc_fraction == pytest.approx(50 / 175)
    assert clock.max_pause == 50


def test_clock_rejects_negative():
    clock = Clock()
    with pytest.raises(ValueError):
        clock.charge_mutator(-1)
    with pytest.raises(ValueError):
        clock.charge_pause(-1, "x")


def test_pause_records_ordered():
    clock = Clock()
    clock.charge_pause(10, "a")
    clock.charge_mutator(5)
    clock.charge_pause(10, "b")
    assert clock.pauses[0].end <= clock.pauses[1].start


# ----------------------------------------------------------------------
# LocalityModel
# ----------------------------------------------------------------------
def test_no_locality_is_unit():
    assert NO_LOCALITY.multiplier(10**9, 10**9) == 1.0


def test_cache_penalty_kicks_in_past_cache():
    model = LocalityModel(cache_words=1000, cache_sensitivity=0.5)
    assert model.multiplier(500, 0) == 1.0
    assert model.multiplier(2000, 0) > 1.0
    # capped overrun
    assert model.multiplier(10**9, 0) == pytest.approx(1.0 + 0.5 * 4.0)


def test_paging_penalty():
    model = LocalityModel(memory_words=1000, paging_factor=4.0)
    assert model.multiplier(0, 900) == 1.0
    assert model.multiplier(0, 1500) == pytest.approx(1.0 + 4.0 * 0.5)


def test_combined_penalties_additive():
    model = LocalityModel(
        cache_words=100, cache_sensitivity=1.0, memory_words=100, paging_factor=1.0
    )
    combined = model.multiplier(200, 200)
    assert combined == pytest.approx(1.0 + 1.0 + 1.0)
