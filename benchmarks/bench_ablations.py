"""Ablation benchmarks for the design choices DESIGN.md calls out.

Three mechanisms §3.3 credits for making Beltway efficient are switched
off one at a time and measured on the jess workload:

* **dynamic conservative copy reserve** (§3.3.4) → replaced by the classic
  fixed half-heap reserve: at the same heap, collections come more often
  and GC work rises (utilisation ablation; the minimum heap itself does
  not grow on this workload — 12.5 → 12.2 KB);
* **collect-together optimisation** (§3.3.2) → disabled: the same heap
  sizes still work (escalation is the correctness path) but tight heaps
  do strictly more copying work;
* **nursery trigger** (§3.3.3) → a multi-increment nursery instead of a
  single bounded increment: still correct, different GC cadence.
"""

import dataclasses

from _util import OUTPUT_DIR, SCALE

from repro.core.config import BeltwayConfig
from repro.harness.runner import RunOptions, find_min_heap, run

BENCHMARK = "jess"


def _variants():
    base = BeltwayConfig.parse("25.25.100")
    no_reserve = dataclasses.replace(
        base, name="25.25.100-halfreserve", fixed_half_reserve=True
    )
    no_combine = dataclasses.replace(
        base, name="25.25.100-nocombine", enable_combine=False
    )
    multi_nursery = dataclasses.replace(
        base,
        name="25.25.100-multinursery",
        belts=(
            dataclasses.replace(base.belts[0], max_increments=None),
        ) + base.belts[1:],
    )
    return [base, no_reserve, no_combine, multi_nursery]


def _measure():
    rows = []
    baseline_min = None
    for config in _variants():
        minimum = find_min_heap(BENCHMARK, config, scale=SCALE)
        if baseline_min is None:
            baseline_min = minimum
        # measure every variant at the same heap (1.5x the baseline's min)
        stats = _run(config, int(1.5 * baseline_min))
        rows.append((config.name, minimum, stats))
    return rows, baseline_min


def _run(config, heap_bytes):
    return run(
        BENCHMARK, config, heap_bytes, options=RunOptions(scale=SCALE)
    ).stats


def test_ablations(benchmark):
    rows, baseline_min = benchmark.pedantic(
        _measure, rounds=1, iterations=1
    )
    lines = [f"Ablations on {BENCHMARK} (min heap; GCs measured at 1.5x the baseline minimum)"]
    by_name = {}
    for name, minimum, stats in rows:
        by_name[name] = (minimum, stats)
        lines.append(
            f"  {name:28s} min={minimum / 1024:6.1f}KB  "
            f"GCs={stats.collections:4d}  gc_cycles={stats.gc_cycles:12.0f}"
        )
    OUTPUT_DIR.mkdir(exist_ok=True)
    (OUTPUT_DIR / "ablations.txt").write_text("\n".join(lines) + "\n")

    base_min, base_stats = by_name["25.25.100"]
    half_min, half_stats = by_name["25.25.100-halfreserve"]
    # The dynamic reserve buys heap *utilisation*: with the classic fixed
    # half-heap reserve, usable memory shrinks, collections come more
    # often, and GC work rises substantially at the same heap size.
    assert half_stats.collections > base_stats.collections
    assert half_stats.gc_cycles > 1.2 * base_stats.gc_cycles
    # Every ablated variant still completes (they are optimisations, not
    # correctness mechanisms).
    for name, (minimum, stats) in by_name.items():
        assert stats.completed, name
