"""Tests for the synthetic-mutator engine and lifetime machinery."""

import random

import pytest

from repro.bench.engine import AllocSite, SyntheticMutator, WorkloadSpec
from repro.bench.lifetime import DeathSchedule, LifetimeClass
from repro.runtime import VM
from repro.runtime.roots import RootTable


# ----------------------------------------------------------------------
# LifetimeClass / DeathSchedule
# ----------------------------------------------------------------------
def test_lifetime_sampling_in_range():
    rng = random.Random(1)
    cls = LifetimeClass("short", 100, 500)
    for _ in range(50):
        value = cls.sample(rng)
        assert 100 <= value <= 500


def test_immortal_class():
    cls = LifetimeClass("forever")
    assert cls.immortal
    assert cls.sample(random.Random(1)) is None


def test_degenerate_range():
    cls = LifetimeClass("exact", 300, 300)
    assert cls.sample(random.Random(1)) == 300


def test_death_schedule_reaps_in_order():
    table = RootTable()
    schedule = DeathSchedule()
    handles = [table.acquire(100 + i) for i in range(5)]
    for i, handle in enumerate(handles):
        schedule.schedule((i + 1) * 10, handle)
    assert schedule.reap(25) == 2
    assert table.live_slots == 3
    assert schedule.reap(25) == 0  # idempotent
    assert schedule.reap(1000) == 3
    assert table.live_slots == 0
    assert schedule.reaped == 5


def test_death_schedule_drop_fraction():
    table = RootTable()
    schedule = DeathSchedule()
    for i in range(200):
        schedule.schedule(1000 + i, table.acquire(4 + 4 * i))
    rng = random.Random(7)
    dropped = schedule.drop_fraction(rng, 0.5)
    assert 60 <= dropped <= 140
    assert len(schedule) == 200 - dropped
    # survivors still reap correctly later
    assert schedule.reap(5000) == 200 - dropped


def test_peek_handles():
    table = RootTable()
    schedule = DeathSchedule()
    assert schedule.peek_handles(random.Random(1), 3) == []
    schedule.schedule(10, table.acquire(0x40))
    picks = schedule.peek_handles(random.Random(1), 3)
    assert len(picks) == 3


# ----------------------------------------------------------------------
# SyntheticMutator
# ----------------------------------------------------------------------
def tiny_spec(**overrides):
    base = dict(
        name="tiny",
        total_alloc_bytes=12 * 1024,
        sites=[
            AllocSite(weight=0.7, type_name="small", lifetime="immediate"),
            AllocSite(weight=0.2, type_name="node", lifetime="short", link_prob=0.3),
            AllocSite(weight=0.1, type_name="refarr", lifetime="short", length=(1, 6)),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 512),
            "short": LifetimeClass("short", 256, 2048),
            "medium": LifetimeClass("medium", 1024, 4096),
        },
        mutation_rate=0.2,
        read_rate=0.3,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def run_spec(spec, heap_kb=24, collector="25.25.100", seed=13):
    vm = VM(heap_kb * 1024, collector=collector, debug_verify=True)
    engine = SyntheticMutator(vm, spec, seed=seed)
    stats = engine.run()
    return vm, engine, stats


def test_engine_reaches_allocation_target():
    spec = tiny_spec()
    vm, engine, stats = run_spec(spec)
    assert engine.allocated_bytes >= spec.total_alloc_bytes
    assert stats.completed
    assert stats.allocations > 100


def test_engine_deterministic():
    a = run_spec(tiny_spec())[2]
    b = run_spec(tiny_spec())[2]
    assert a.total_cycles == b.total_cycles
    assert a.collections == b.collections
    assert a.barrier_slow == b.barrier_slow


def test_engine_seed_changes_run():
    a = run_spec(tiny_spec(), seed=1)[2]
    b = run_spec(tiny_spec(), seed=2)[2]
    assert a.total_cycles != b.total_cycles


def test_engine_scaled_spec_is_shorter():
    full = tiny_spec()
    short = full.scaled(0.5)
    assert short.total_alloc_bytes == full.total_alloc_bytes // 2
    a = run_spec(full)[2]
    b = run_spec(short)[2]
    assert b.allocated_bytes < a.allocated_bytes


def test_engine_phases_drop_population():
    spec = tiny_spec(
        sites=[AllocSite(weight=1.0, type_name="node", lifetime="medium")],
        phase_bytes=3 * 1024,
        phase_drop_fraction=0.9,
    )
    vm, engine, stats = run_spec(spec)
    assert engine.phases_completed >= 3


def test_engine_cycles_built():
    spec = tiny_spec(cycle_every_bytes=2 * 1024, cycle_size=4)
    vm, engine, stats = run_spec(spec)
    assert engine.cycles_built >= 4
    vm.plan.verify()


def test_engine_immortal_setup():
    def setup(engine):
        table = engine.alloc_immortal("refarr", length=8)
        for i in range(8):
            engine.mu.write(table, i, engine.alloc_immortal("node"))

    spec = tiny_spec(setup=setup)
    vm, engine, stats = run_spec(spec)
    assert len(engine.immortals) >= 9
    report = vm.plan.verify()
    assert report.objects >= 9


def test_engine_heap_stays_verifiable_across_collectors():
    for collector in ("Appel", "BOF.25", "BOFM.25", "gctk:Appel", "gctk:SS"):
        vm, engine, stats = run_spec(tiny_spec(), collector=collector)
        assert stats.completed, collector
        vm.plan.verify()
