"""The record/replay seam of the benchmark engine (DESIGN §9).

``SyntheticMutator.run()`` is fetch-or-record, then replay.  These tests
hold the two paths to the same goldens as the rest of the suite, hold the
cache to its key and its byte budget, and check that the sanitizer and
the fault injector still see every operation when the program comes off
a tape.  Hit and miss are told apart by what the cache holds — never by
the clock.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import RunOptions, run
from repro.bench.engine import (
    TAPES,
    AllocSite,
    MutatorProgram,
    SyntheticMutator,
    WorkloadSpec,
    ensure_standard_types,
)
from repro.bench.lifetime import LifetimeClass
from repro.bench.spec import benchmark_spec
from repro.errors import ConfigError
from repro.runtime.vm import VM
from repro.sanitizer.faults import FaultSpec
from tests.core.test_counter_equivalence import replay as run_cell

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "data" / "golden_counters.json")
    .read_text()
)
SCALE, SEED = GOLDEN["scale"], GOLDEN["seed"]


@pytest.fixture(autouse=True)
def empty_cache():
    TAPES.clear()
    yield
    TAPES.clear()


def cached(spec, seed=SEED) -> bool:
    return TAPES.fetch((seed, spec)) is not None


def golden_cell(benchmark, collector):
    golden = GOLDEN["cells"][f"{benchmark}/{collector}"]
    expected = {k: v for k, v in golden.items() if k != "heap_bytes"}
    got = run_cell(benchmark, collector, golden["heap_bytes"], SCALE, SEED)
    return got, expected


def tape_bytes(spec, seed):
    vm = VM(64 * 1024)
    ensure_standard_types(vm)
    program = MutatorProgram(spec, seed, vm.types)
    chunks = [chunk.tobytes() for chunk in program.record()]
    return chunks, program.mu.type_names, program.mu.work_units, program.summary()


def small_spec(**overrides):
    base = dict(
        name="small",
        total_alloc_bytes=10 * 1024,
        sites=[
            AllocSite(weight=0.6, type_name="small", lifetime="immediate"),
            AllocSite(weight=0.3, type_name="node", lifetime="short", link_prob=0.3),
            AllocSite(weight=0.1, type_name="refarr", lifetime="short", length=(1, 6)),
        ],
        lifetimes={
            "immediate": LifetimeClass("immediate", 0, 512),
            "short": LifetimeClass("short", 256, 2048),
        },
        mutation_rate=0.2,
        read_rate=1.3,
    )
    base.update(overrides)
    return WorkloadSpec(**base)


def build_table(engine):
    table = engine.alloc_immortal("refarr", length=8)
    for i in range(8):
        engine.mu.write(table, i, engine.alloc_immortal("node"))


def run_engine(spec, seed=SEED, heap=24 * 1024, collector="25.25.100"):
    vm = VM(heap, collector=collector, debug_verify=True)
    engine = SyntheticMutator(vm, spec, seed=seed)
    stats = engine.run()
    vm.plan.verify()
    return vm, engine, stats


# ----------------------------------------------------------------------
# The recording is a function of (spec, seed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["jess", "db", "javac"])
def test_recording_twice_is_byte_identical(name):
    spec = benchmark_spec(name, 0.2)
    first = tape_bytes(spec, 7)
    assert first == tape_bytes(benchmark_spec(name, 0.2), 7)
    assert first[0] != tape_bytes(spec, 8)[0]


def test_long_recordings_arrive_in_bounded_chunks():
    from repro.bench.engine import TAPE_CHUNK_RECORDS

    chunks = tape_bytes(benchmark_spec("jack", 0.5), SEED)[0]
    assert len(chunks) > 2
    # A chunk closes at the first loop iteration past the limit, and one
    # iteration writes a handful of records.
    assert max(map(len, chunks)) < (TAPE_CHUNK_RECORDS + 512) * 16


# ----------------------------------------------------------------------
# Miss and hit replay the goldens, counter for counter
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cell", sorted(GOLDEN["cells"]))
def test_golden_cell_as_miss_then_hit(cell):
    benchmark, collector = cell.split("/", 1)
    spec = benchmark_spec(benchmark, SCALE)
    assert not cached(spec)
    miss, expected = golden_cell(benchmark, collector)
    assert miss == expected
    # An OOM cell stops mid-tape, so there is nothing complete to keep.
    assert cached(spec) == expected["completed"]
    again, _ = golden_cell(benchmark, collector)
    assert again == expected


@pytest.mark.parametrize("name", ["jess", "db", "pseudojbb"])
def test_one_tape_serves_every_collector(name):
    recorded, expected = golden_cell(name, "25.25.100")
    assert recorded == expected and len(TAPES) == 1
    tape = TAPES.fetch((SEED, benchmark_spec(name, SCALE)))
    for collector in ("gctk:Appel", "25.25.MOS"):
        got, expected = golden_cell(name, collector)
        assert got == expected, collector
    assert len(TAPES) == 1
    assert TAPES.fetch((SEED, benchmark_spec(name, SCALE))) is tape


def test_oom_cell_is_identical_hit_vs_miss():
    options = RunOptions(scale=SCALE, seed=SEED)
    miss = run("javac", "25.25.100", 20 * 1024, options=options).stats
    assert not miss.completed and miss.allocations > 0
    assert len(TAPES) == 0
    assert run("javac", "25.25.100", 256 * 1024, options=options).completed
    assert len(TAPES) == 1
    hit = run("javac", "25.25.100", 20 * 1024, options=options).stats
    assert hit == miss


def test_engine_reports_the_same_bookkeeping_on_a_hit():
    spec = benchmark_spec("javac", 0.2)
    _, first, _ = run_engine(spec, heap=128 * 1024)
    assert cached(spec)
    vm, second, _ = run_engine(spec, heap=128 * 1024, collector="gctk:Appel")
    for name in ("allocated_bytes", "cycles_built", "phases_completed", "live_objects"):
        assert getattr(second, name) == getattr(first, name), name
    assert second.cycles_built > 0 and second.allocated_bytes >= spec.total_alloc_bytes
    # ``mu`` is the real context and ``immortals`` are live handles into it.
    assert second.mu.vm is vm
    assert len(second.immortals) == len(first.immortals) > 0
    assert all(handle.addr for handle in second.immortals)
    assert second.mu.live_roots >= second.live_objects


# ----------------------------------------------------------------------
# The sanitizer and the fault injector still see everything
# ----------------------------------------------------------------------
def test_sanitizer_is_clean_on_a_hit():
    options = RunOptions(scale=SCALE, seed=SEED, sanitize=True)
    miss = run("jess", "25.25.100", 24 * 1024, options=options)
    assert len(TAPES) == 1
    hit = run("jess", "25.25.100", 24 * 1024, options=options)
    for report in (miss, hit):
        assert report.completed and report.sanitizer.ok
        assert report.sanitizer.collections_checked == report.stats.collections > 0
    assert hit.stats == miss.stats


def test_dropped_remset_insert_is_detected_on_a_hit():
    clean = RunOptions(scale=SCALE, seed=SEED)
    sabotaged = dataclasses.replace(
        clean, sanitize=True, faults=(FaultSpec("barrier.drop-entry", nth=5),)
    )
    miss = run("jess", "25.25.100", 24 * 1024, options=sabotaged)
    assert len(TAPES) == 0  # the run died mid-tape
    assert run("jess", "25.25.100", 24 * 1024, options=clean).completed
    assert len(TAPES) == 1
    hit = run("jess", "25.25.100", 24 * 1024, options=sabotaged)
    for report in (miss, hit):
        assert not report.completed
        assert report.sanitizer.violations[0].check == "remset-completeness"
        assert "barrier.drop-entry" in report.sanitizer.faults_injected[0]
    assert hit.stats == miss.stats


# ----------------------------------------------------------------------
# The cache: key, ownership, budget
# ----------------------------------------------------------------------
def test_changed_seed_scale_or_site_weight_misses():
    spec = small_spec()
    run_engine(spec)
    assert cached(small_spec())  # equal specs built apart share a tape
    assert not cached(spec, seed=SEED + 1)
    assert not cached(spec.scaled(0.5))
    heavier = dataclasses.replace(spec.sites[0], weight=0.7)
    assert not cached(small_spec(sites=[heavier] + spec.sites[1:]))


def test_cache_key_survives_the_caller_editing_its_spec():
    spec = small_spec()
    _, _, before = run_engine(spec)
    spec.sites[0] = dataclasses.replace(spec.sites[0], weight=0.9)
    spec.mutation_rate = 0.5
    assert not cached(spec)
    assert cached(small_spec())
    _, _, after = run_engine(spec)
    assert after.total_cycles != before.total_cycles
    assert len(TAPES) == 2


def test_module_level_setup_is_retained_and_lambda_setup_never_is():
    _, named, want = run_engine(small_spec(setup=build_table))
    assert len(TAPES) == 1
    TAPES.clear()
    spec = small_spec(setup=lambda engine: build_table(engine))
    for _ in range(2):
        _, engine, got = run_engine(spec)
        assert got == want
        assert len(engine.immortals) == len(named.immortals) == 9
        assert len(TAPES) == 0


def test_over_budget_tape_streams_with_identical_stats(monkeypatch):
    spec = benchmark_spec("jess", SCALE)
    _, _, want = run_engine(spec)
    assert TAPES.fetch((SEED, spec)).nbytes > 64 * 1024
    TAPES.clear()
    monkeypatch.setattr(TAPES, "budget_bytes", 64 * 1024)
    _, _, got = run_engine(spec)
    assert got == want
    assert len(TAPES) == 0 and TAPES.nbytes <= TAPES.budget_bytes


def test_cache_evicts_least_recent_first_within_budget(monkeypatch):
    specs = [small_spec(name=f"s{i}") for i in range(3)]
    run_engine(specs[0])
    one = TAPES.nbytes
    monkeypatch.setattr(TAPES, "budget_bytes", 2 * one + one // 2)
    run_engine(specs[1])
    run_engine(specs[0])  # a hit: s0 is now the most recent
    run_engine(specs[2])
    assert [cached(spec) for spec in specs] == [True, False, True]
    assert TAPES.nbytes <= TAPES.budget_bytes


# ----------------------------------------------------------------------
# The recorder's edges
# ----------------------------------------------------------------------
def test_recorder_rejects_a_write_int_it_cannot_encode():
    def setup(engine):
        engine.mu.write_int(engine.alloc_immortal("node"), 0, 1 << 40)

    with pytest.raises(ConfigError, match="32 bits"):
        run_engine(small_spec(setup=setup))


def test_empty_length_range_is_a_config_error():
    with pytest.raises(ConfigError, match="length range"):
        site = AllocSite(weight=1.0, type_name="refarr", lifetime="short", length=(4, 2))
        small_spec(sites=[site])
