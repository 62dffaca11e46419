"""Fixed-seed counter equivalence for the collection-critical fast paths.

The SSB remsets, the compiled mutator store path and the batched Cheney
scan (ISSUE 2) are pure mechanism changes: every statistics counter —
memory accesses, barrier fast/slow/null counts, remset inserts and
duplicates, copied bytes, cost-model cycles — must be bit-identical to
the straightforward implementations they replaced.  The golden values in
``tests/data/golden_counters.json`` were captured by running the
pre-rework code (see ``tests/data/capture_golden.py``); these tests replay
the identical fixed-seed runs and compare every counter exactly.
"""

import json
from pathlib import Path

import pytest

from repro.bench.engine import SyntheticMutator
from repro.bench.spec import benchmark_spec
from repro.errors import OutOfMemory
from repro.runtime.vm import VM

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_counters.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def replay(benchmark: str, collector: str, heap_bytes: int, scale: float,
           seed: int, tier: str = None) -> dict:
    spec = benchmark_spec(benchmark, scale)
    vm = VM(heap_bytes, collector=collector, locality=spec.locality,
            benchmark_name=spec.name, tier=tier)
    engine = SyntheticMutator(vm, spec, seed=seed)
    try:
        stats = engine.run()
    except OutOfMemory as error:
        stats = vm.finish(completed=False, failure=str(error))
    remsets = vm.plan.remsets
    barrier = vm.plan.barrier.stats
    counters = {
        "completed": stats.completed,
        "load_count": vm.space.load_count,
        "store_count": vm.space.store_count,
        "allocations": stats.allocations,
        "allocated_bytes": stats.allocated_bytes,
        "copied_bytes": stats.copied_bytes,
        "collections": stats.collections,
        "full_heap_collections": stats.full_heap_collections,
        "barrier_fast": barrier.fast_path,
        "barrier_slow": barrier.slow_path,
        "barrier_null": barrier.null_stores,
        "remset_inserts": remsets.inserts,
        "remset_duplicates": remsets.duplicate_inserts,
        "remset_entries_final": len(remsets),
        "peak_remset_entries": stats.peak_remset_entries,
        "total_cycles": stats.total_cycles,
        "gc_cycles": stats.gc_cycles,
        "mutator_cycles": stats.mutator_cycles,
    }
    if not stats.completed:
        # Failed runs also report why (no golden cell fails, so the golden
        # dicts carry no such key).
        counters["failure"] = stats.failure
    return counters


@pytest.mark.parametrize("cell", sorted(GOLDEN["cells"]))
def test_counters_bit_identical(cell):
    benchmark, collector = cell.split("/", 1)
    golden = GOLDEN["cells"][cell]
    got = replay(benchmark, collector, golden["heap_bytes"],
                 GOLDEN["scale"], GOLDEN["seed"])
    expected = {k: v for k, v in golden.items() if k != "heap_bytes"}
    assert got == expected
