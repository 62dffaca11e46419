"""One entry point per table and figure of the paper's evaluation (§4).

Every function returns an :class:`ExperimentResult` holding

* ``text`` — the reproduced rows/series, rendered for the console;
* ``data`` — the underlying structured numbers;
* ``checks`` — named boolean *shape* assertions capturing the paper's
  qualitative claims (who wins, where, by roughly what factor).
  ``beltway-bench experiment|report`` exit non-zero when one fails,
  so a regression in any collector shows up as a failed reproduction,
  not a silently different curve.

Experiments accept ``points`` (heap-grid size; the paper used 33) and
``scale`` (workload length multiplier) so a quick run can use a coarser
grid; shapes are stable across both.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.mmu import max_pause, mmu_curve, overall_utilisation
from ..analysis.series import (
    GAP,
    geomean_across,
    geometric_mean,
    improvement_percent,
    relative_to_best,
)
from ..analysis.sweep import SweepResult, heap_multipliers, sweep
from ..analysis.plots import ascii_chart
from ..analysis.tables import render_mmu, render_series, render_table
from ..bench.spec import BENCHMARK_NAMES, KB, benchmark_spec
from ..core.config import BeltwayConfig
from ..errors import OutOfMemory
from ..grid.minsearch import find_min_heaps
from ..runtime.vm import VM
from ..runtime.mutator import MutatorContext
from .runner import run_many

#: The collector whose minimum heap defines each benchmark's 1.0x point,
#: as in the paper ("minimum heap size in which an Appel-style collector
#: does not fail", Table 1).
BASELINE = "gctk:Appel"

_min_heap_cache: Dict[Tuple[str, float], int] = {}
_sweep_cache: Dict[Tuple[str, str, int, float, int], SweepResult] = {}

#: Grid settings every experiment routes its runs through: an optional
#: :class:`~repro.grid.store.ResultStore` (cells served from disk and
#: checkpointed as they finish), the parallel override, and the worker
#: cap.  Set by :func:`configure_grid` (the CLI's ``--store``/``--workers``
#: flags land here); the defaults are store-less auto-parallel.
_grid: Dict[str, object] = {
    "store": None, "parallel": True, "max_workers": None, "bus": None,
}


def configure_grid(store=None, parallel: bool = True, max_workers=None, bus=None) -> None:
    """Route all experiment runs through ``store`` and these executor
    settings (process-wide, like the caches; ``configure_grid()`` resets).
    With a telemetry ``bus``, every campaign batch emits ``grid.job``
    progress and relays worker run telemetry onto it."""
    _grid.update(store=store, parallel=parallel, max_workers=max_workers, bus=bus)


@dataclass
class ExperimentResult:
    """Outcome of reproducing one table or figure."""

    name: str
    text: str
    data: Dict = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> List[str]:
        return [name for name, ok in self.checks.items() if not ok]


# ----------------------------------------------------------------------
# Shared machinery
# ----------------------------------------------------------------------
def min_heap(benchmark: str, scale: float = 1.0) -> int:
    return min_heaps([benchmark], scale)[benchmark]


def min_heaps(benchmarks: Sequence[str], scale: float = 1.0) -> Dict[str, int]:
    """Baseline minimum heaps for many benchmarks, searched as one batch.

    All still-unknown searches advance in lockstep — each round's probes
    (one per benchmark) execute as a single grid batch, so six bisections
    cost six serial ones only when running on one CPU with a cold store.
    Results populate the same process-level cache :func:`min_heap` uses.
    """
    missing = [b for b in benchmarks if (b, scale) not in _min_heap_cache]
    if missing:
        found = find_min_heaps(
            [(b, BASELINE) for b in missing], scale=scale, **_grid
        )
        for (benchmark, _collector), minimum in found.items():
            _min_heap_cache[(benchmark, scale)] = minimum
    return {b: _min_heap_cache[(b, scale)] for b in benchmarks}


def cached_sweep(
    benchmark: str, collector: str, points: int, scale: float, seed: int = 13
) -> SweepResult:
    key = (benchmark, collector, points, scale, seed)
    if key not in _sweep_cache:
        _sweep_cache[key] = sweep(
            benchmark,
            collector,
            min_heap(benchmark, scale),
            heap_multipliers(points),
            scale=scale,
            seed=seed,
            **_grid,
        )
    return _sweep_cache[key]


def clear_caches() -> None:
    _min_heap_cache.clear()
    _sweep_cache.clear()


def _geomean_figure(
    collectors: Sequence[str],
    metric: str,
    benchmarks: Sequence[str],
    points: int,
    scale: float,
) -> Tuple[List[float], Dict[str, List[Optional[float]]]]:
    """Geometric mean across benchmarks of per-benchmark-normalised series.

    Each benchmark's series are first normalised by that benchmark's best
    value across all collectors and heap sizes (making benchmarks
    commensurable), then combined with a pointwise geometric mean, then
    re-normalised so the figure's best point is 1.0 — the paper's
    "relative to best result (lower is better)" axes.
    """
    multipliers = heap_multipliers(points)
    min_heaps(list(benchmarks), scale)  # fan the baseline searches out together
    per_collector: Dict[str, List[List[Optional[float]]]] = {c: [] for c in collectors}
    for benchmark in benchmarks:
        # A run that did none of the measured work (no collection at this
        # heap: ``gc_cycles == 0``) is not comparable on a ratio axis —
        # a gap, like the paper's failed runs.
        raw = {
            c: [
                value or GAP
                for value in cached_sweep(benchmark, c, points, scale).series(metric)
            ]
            for c in collectors
        }
        normalised = relative_to_best(raw)
        for c in collectors:
            per_collector[c].append(normalised[c])
    combined = {c: geomean_across(per_collector[c]) for c in collectors}
    return multipliers, relative_to_best(combined)


def _geomean_panels(
    number: int, collectors: Sequence[str], points: int, scale: float
):
    """The two geomean panels figures 5-9 share: (a) GC time and (b)
    total time relative to best, the latter also as a chart.

    Returns ``(multipliers, gc_series, total_series, text, data)``; a
    figure appends its own lines to ``text`` and keys to ``data``.
    """
    multipliers, gc_series = _geomean_figure(
        collectors, "gc_cycles", BENCHMARK_NAMES, points, scale
    )
    _, total_series = _geomean_figure(
        collectors, "total_cycles", BENCHMARK_NAMES, points, scale
    )
    text = (
        render_series(
            multipliers, gc_series,
            f"Figure {number}(a): GC time relative to best (geomean)",
        )
        + "\n\n"
        + render_series(
            multipliers, total_series,
            f"Figure {number}(b): total time relative to best (geomean)",
        )
        + "\n\n"
        + ascii_chart(
            multipliers, total_series,
            f"Figure {number}(b) as a chart (lower is better)",
        )
    )
    data = {"multipliers": multipliers, "gc": gc_series, "total": total_series}
    return multipliers, gc_series, total_series, text, data


def _mean_over(series: List[Optional[float]], indices: Sequence[int]) -> Optional[float]:
    values = [series[i] for i in indices if series[i] is not None]
    return geometric_mean(values) if values else None


def _paired_means(
    series_a: List[Optional[float]],
    series_b: List[Optional[float]],
    indices: Sequence[int],
) -> Tuple[Optional[float], Optional[float]]:
    """Geometric means of two series over the indices where *both* have
    values — gaps (failed runs) must not skew a head-to-head comparison."""
    shared = [
        i for i in indices if series_a[i] is not None and series_b[i] is not None
    ]
    if not shared:
        return None, None
    return (
        geometric_mean([series_a[i] for i in shared]),
        geometric_mean([series_b[i] for i in shared]),
    )


# ----------------------------------------------------------------------
# Table 1 — benchmark characteristics
# ----------------------------------------------------------------------
def table1(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Min heap, total allocation, and GCs at large & small heaps (Appel)."""
    rows = []
    data = {}
    checks = {}
    minima = min_heaps(list(BENCHMARK_NAMES), scale)
    stats = run_many(
        [
            (benchmark, BASELINE, heap, scale, 13)
            for benchmark in BENCHMARK_NAMES
            for heap in (minima[benchmark], 3 * minima[benchmark])
        ],
        **_grid,
    )
    for pair, benchmark in enumerate(BENCHMARK_NAMES):
        spec = benchmark_spec(benchmark, scale)
        minimum = minima[benchmark]
        small, large = stats[2 * pair], stats[2 * pair + 1]
        paper = spec.paper
        rows.append(
            [
                benchmark,
                paper.description,
                f"{paper.min_heap_bytes / KB:.0f}KB",
                f"{minimum / KB:.1f}KB",
                f"{paper.total_alloc_bytes / KB:.0f}KB",
                f"{large.allocated_bytes / KB:.0f}KB",
                f"{paper.gcs_large_heap}/{paper.gcs_small_heap}",
                f"{large.collections}/{small.collections}",
            ]
        )
        data[benchmark] = {
            "min_heap_bytes": minimum,
            "paper_min_heap_bytes": paper.min_heap_bytes,
            "total_alloc_bytes": large.allocated_bytes,
            "gcs_large": large.collections,
            "gcs_small": small.collections,
        }
        # Shape: small heaps need far more GCs; minima agree within 2x of
        # the (scaled) paper value.
        checks[f"{benchmark}_gcs_ratio"] = small.collections > 2 * large.collections
        ratio = minimum / paper.min_heap_bytes
        checks[f"{benchmark}_min_heap_band"] = 0.5 <= ratio <= 2.0
    text = render_table(
        [
            "benchmark",
            "description",
            "min(paper)",
            "min(ours)",
            "alloc(paper)",
            "alloc(ours)",
            "GCs l/s (paper)",
            "GCs l/s (ours)",
        ],
        rows,
        title="Table 1: benchmark characteristics (scaled 1024x; Appel baseline)",
    )
    return ExperimentResult("table1", text, data, checks)


# ----------------------------------------------------------------------
# Figure 1 — the cost of GC under the Appel baseline
# ----------------------------------------------------------------------
def figure1(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """(a) % time in GC vs heap size; (b) total time relative to best."""
    multipliers = heap_multipliers(points)
    min_heaps(list(BENCHMARK_NAMES), scale)
    gc_fraction: Dict[str, List[Optional[float]]] = {}
    total_rel: Dict[str, List[Optional[float]]] = {}
    for benchmark in BENCHMARK_NAMES:
        result = cached_sweep(benchmark, BASELINE, points, scale)
        gc_fraction[benchmark] = [
            None if v is None else 100.0 * v
            for v in result.series("gc_fraction")
        ]
        total_rel.update(
            {benchmark: relative_to_best({benchmark: result.series("total_cycles")})[benchmark]}
        )
    checks = {}
    for benchmark in BENCHMARK_NAMES:
        series = gc_fraction[benchmark]
        first, last = series[0], series[-1]
        checks[f"{benchmark}_gc_fraction_falls"] = (
            first is not None and last is not None and last < first
        )
    # GC can consume a large share of time in tight heaps (paper: ~35%+).
    tight = [s[0] for s in gc_fraction.values() if s[0] is not None]
    checks["tight_heap_gc_share_large"] = max(tight) > 25.0
    # Optimal total time is not always at the largest heap (pseudojbb pages).
    jbb = total_rel["pseudojbb"]
    finite = [v for v in jbb if v is not None]
    checks["pseudojbb_degrades_at_large_heaps"] = (
        jbb[-1] is not None and jbb[-1] > min(finite) * 1.02
    )
    text = (
        render_series(
            multipliers,
            gc_fraction,
            "Figure 1(a): % of time in GC (Appel), per benchmark",
            value_format="{:5.1f}%",
        )
        + "\n\n"
        + render_series(
            multipliers,
            total_rel,
            "Figure 1(b): total time relative to per-benchmark best (Appel)",
        )
    )
    return ExperimentResult(
        "figure1",
        text,
        {"multipliers": multipliers, "gc_fraction": gc_fraction, "total_rel": total_rel},
        checks,
    )


# ----------------------------------------------------------------------
# Figures 2 & 3 — belt/increment structure traces
# ----------------------------------------------------------------------
def figure23(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Structural traces of the six configurations of Figs. 2 and 3."""
    sections = []
    data = {}
    checks = {}
    configs = ["BSS", "Appel", "BOFM.25", "BOF.25", "25.25", "25.25.100"]
    for config in configs:
        vm = VM(heap_bytes=64 * 256, collector=config)
        node = vm.define_type("cnode", nrefs=2, nscalars=1)
        mu = MutatorContext(vm)
        keep: List = []
        snapshots = []
        targets = [2, 5, 9]  # snapshot after these collection counts
        for i in range(5000):
            handle = mu.alloc(node)
            if i % 12 == 0:
                keep.append(handle)
                if len(keep) > 40:
                    keep.pop(0).drop()
            else:
                handle.drop()
            if targets and len(vm.plan.collections) >= targets[0]:
                snapshots.append(vm.plan.describe_structure())
                targets.pop(0)
                if not targets:
                    break
        diagram = "\n--- after next collections ---\n".join(snapshots)
        sections.append(f"== {config} ==\n{diagram}")
        belts = len(vm.plan.belts)
        data[config] = {
            "belts": belts,
            "collections": len(vm.plan.collections),
            "flips": vm.plan.flips,
        }
        checks[f"{config}_ran"] = len(vm.plan.collections) >= 3
    checks["BSS_single_belt"] = data["BSS"]["belts"] == 1
    checks["Appel_two_belts"] = data["Appel"]["belts"] == 2
    checks["BOFM_single_belt"] = data["BOFM.25"]["belts"] == 1
    checks["25.25.100_three_belts"] = data["25.25.100"]["belts"] == 3
    text = "Figures 2/3: belt and increment structure over successive collections\n\n"
    text += "\n\n".join(sections)
    return ExperimentResult("figure23", text, data, checks)


# ----------------------------------------------------------------------
# Figure 4 — write barrier behaviour
# ----------------------------------------------------------------------
def figure4(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Fast/slow path statistics of the frame barrier vs the boundary
    barrier (the paper's separate statistics runs, §4.1)."""
    rows = []
    data = {}
    configs = ["25.25.100", "Appel", "BOF.25", "gctk:Appel"]
    benchmark = "javac"
    heap = 2 * min_heap(benchmark, scale)
    all_stats = run_many(
        [(benchmark, config, heap, scale, 13) for config in configs],
        **_grid,
    )
    for config, stats in zip(configs, all_stats):
        slow_pct = 100.0 * stats.barrier_slow / max(1, stats.barrier_fast)
        rows.append(
            [
                config,
                f"{stats.barrier_fast}",
                f"{stats.barrier_slow}",
                f"{slow_pct:.2f}%",
                f"{stats.remset_inserts}",
            ]
        )
        data[config] = {
            "fast": stats.barrier_fast,
            "slow": stats.barrier_slow,
            "slow_pct": slow_pct,
        }
    checks = {
        "slow_path_is_rare": all(d["slow_pct"] < 25.0 for d in data.values()),
        "barrier_executed": all(d["fast"] > 0 for d in data.values()),
        "incremental_configs_filter_most_stores": data["25.25.100"]["slow"]
        < data["25.25.100"]["fast"] * 0.25,
    }
    text = render_table(
        ["collector", "barrier fast", "barrier slow (taken)", "taken %", "remset inserts"],
        rows,
        title=f"Figure 4: write-barrier path statistics ({benchmark}, 2x min heap)",
    )
    return ExperimentResult("figure4", text, data, checks)


# ----------------------------------------------------------------------
# Figure 5 — Beltway as Appel
# ----------------------------------------------------------------------
def figure5(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Appel vs Beltway 100.100 vs 100.100.100 (geomean GC & total time)."""
    collectors = [BASELINE, "100.100", "100.100.100"]
    multipliers, gc_series, total_series, text, data = _geomean_panels(
        5, collectors, points, scale
    )
    checks = {}
    # Beltway 100.100 performs the same as the Appel baseline.
    indices = range(len(multipliers))
    b100_total, appel_total = _paired_means(
        total_series["100.100"], total_series[BASELINE], indices
    )
    checks["beltway_100_100_matches_appel"] = (
        appel_total is not None
        and b100_total is not None
        and abs(b100_total - appel_total) / appel_total < 0.12
    )
    # The third generation alone is not the source of X.X.100's advantage:
    # at most heap sizes 100.100.100 is no better than ~10% off Appel.
    mid = [i for i in indices if multipliers[i] >= 1.4]
    ba3_mid, appel_mid = _paired_means(
        total_series["100.100.100"], total_series[BASELINE], mid
    )
    checks["third_generation_alone_no_big_win"] = (
        appel_mid is not None
        and ba3_mid is not None
        and ba3_mid > appel_mid * 0.90
    )
    return ExperimentResult("figure5", text, data, checks)


# ----------------------------------------------------------------------
# Figure 6 — incrementality in generational collectors
# ----------------------------------------------------------------------
def figure6(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Fixed-size nurseries (10/25/50%) vs the flexible Appel nursery."""
    collectors = [BASELINE, "gctk:Fixed.10", "gctk:Fixed.25", "gctk:Fixed.50"]
    multipliers, gc_series, total_series, text, data = _geomean_panels(
        6, collectors, points, scale
    )
    checks = {}
    indices = [i for i in range(len(multipliers)) if multipliers[i] >= 1.2]
    beats = []
    for c in collectors:
        if c == BASELINE:
            continue
        fixed_mean, appel_mean = _paired_means(
            total_series[c], total_series[BASELINE], indices
        )
        if fixed_mean is not None and appel_mean is not None:
            beats.append(appel_mean <= fixed_mean * 1.02)
    checks["appel_beats_every_fixed_nursery"] = bool(beats) and all(beats)
    # Fixed nurseries fail at small heap sizes where Appel completes.
    checks["fixed_fails_in_tight_heaps"] = any(
        total_series[c][0] is None for c in collectors if c != BASELINE
    ) and total_series[BASELINE][0] is not None
    return ExperimentResult("figure6", text, data, checks)


# ----------------------------------------------------------------------
# Figure 7 — incrementality in Beltway X.X.100
# ----------------------------------------------------------------------
def figure7(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Beltway X.X.100 for X in {10, 25, 33, 50}."""
    collectors = ["10.10.100", "25.25.100", "33.33.100", "50.50.100"]
    multipliers, gc_series, total_series, text, data = _geomean_panels(
        7, collectors, points, scale
    )
    indices = [
        i
        for i in range(len(multipliers))
        if all(total_series[c][i] is not None for c in collectors)
    ]
    means = {c: _mean_over(total_series[c], indices) for c in collectors}
    checks = {}
    robust = [means[c] for c in ("25.25.100", "33.33.100", "50.50.100") if means[c]]
    checks["robust_across_increment_sizes"] = (
        len(robust) == 3 and max(robust) / min(robust) < 1.15
    )
    checks["smallest_increment_degrades"] = (
        means["10.10.100"] is not None
        and means["10.10.100"] > min(robust) * 1.02
    )
    data["means"] = means
    return ExperimentResult("figure7", text, data, checks)


# ----------------------------------------------------------------------
# Figure 8 — Beltway X.X versus X.X.100 (completeness trade-off)
# ----------------------------------------------------------------------
def figure8(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """25.25 vs 25.25.100 vs Appel, plus the javac completeness anecdote."""
    collectors = ["25.25", "25.25.100", BASELINE]
    multipliers, gc_series, total_series, text, data = _geomean_panels(
        8, collectors, points, scale
    )
    indices = range(len(multipliers))
    mean_xx, mean_complete = _paired_means(
        total_series["25.25"], total_series["25.25.100"], indices
    )
    checks = {
        "incomplete_no_geomean_win": mean_xx is not None
        and mean_complete is not None
        and abs(mean_xx - mean_complete) / mean_complete < 0.15,
    }
    # javac: 25.25 "never reclaims a large cyclic garbage structure"
    # (§4.2.4).  The robust observable is the reclamation floor — the
    # lowest post-collection occupancy late in the run: the incomplete
    # configuration's floor stays inflated by the retained
    # cross-increment cycles, the complete configuration's falls back
    # towards the live set at its full top-belt collections.
    javac_min = min_heap("javac", scale)
    javac_heap = int(1.5 * javac_min)
    xx, complete = run_many(
        [
            ("javac", "25.25", javac_heap, scale, 13),
            ("javac", "25.25.100", javac_heap, scale, 13),
        ],
        **_grid,
    )
    floor_xx = xx.late_occupancy_floor()
    floor_complete = complete.late_occupancy_floor()
    checks["javac_punishes_incompleteness"] = (not xx.completed) or (
        complete.completed and floor_xx > 1.5 * floor_complete
    )
    data["javac_floors"] = {"25.25": floor_xx, "25.25.100": floor_complete}
    text += (
        "\n\njavac reclamation floor @1.5x min heap (lower = more garbage"
        + " reclaimed):\n"
        + f"  25.25     {floor_xx} bytes retained"
        + f" ({'ok' if xx.completed else 'FAILED'})\n"
        + f"  25.25.100 {floor_complete} bytes retained"
        + f" ({'ok' if complete.completed else 'FAILED'})"
    )
    return ExperimentResult("figure8", text, data, checks)


# ----------------------------------------------------------------------
# Figure 9 — the headline: Beltway 25.25.100 vs generational collectors
# ----------------------------------------------------------------------
def figure9(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Beltway 25.25.100 vs Appel vs Fixed-25 (geomean GC & total time)."""
    collectors = ["25.25.100", BASELINE, "gctk:Fixed.25"]
    multipliers, gc_series, total_series, text, data = _geomean_panels(
        9, collectors, points, scale
    )
    small = [i for i, m in enumerate(multipliers) if m <= 1.6]
    large = [i for i, m in enumerate(multipliers) if m >= 2.2]
    # Head-to-head comparisons are made per benchmark over the heap sizes
    # where *both* collectors completed, then combined geometrically —
    # this keeps each benchmark's tight-heap points (where Beltway's
    # advantage is largest) in the comparison even when another benchmark
    # leaves a gap there.
    ratios_small = []
    ratios_large = []
    for benchmark in BENCHMARK_NAMES:
        raw_b = cached_sweep(benchmark, "25.25.100", points, scale).series("total_cycles")
        raw_a = cached_sweep(benchmark, BASELINE, points, scale).series("total_cycles")
        b_small, a_small = _paired_means(raw_b, raw_a, small)
        if b_small is not None:
            ratios_small.append(b_small / a_small)
        b_large, a_large = _paired_means(raw_b, raw_a, large)
        if b_large is not None:
            ratios_large.append(b_large / a_large)
    ratio_small = geometric_mean(ratios_small) if ratios_small else None
    ratio_large = geometric_mean(ratios_large) if ratios_large else None
    checks = {}
    checks["beltway_wins_small_heaps"] = (
        ratio_small is not None and ratio_small < 1.0
    )
    improvement = (
        improvement_percent(1.0, ratio_small) if ratio_small is not None else 0.0
    )
    checks["small_heap_improvement_at_least_5pct"] = improvement >= 5.0
    checks["competitive_at_large_heaps"] = (
        ratio_large is not None and ratio_large < 1.10
    )
    # GC time robustness in small heaps.
    gc_small_b, gc_small_a = _paired_means(
        gc_series["25.25.100"], gc_series[BASELINE], small
    )
    checks["gc_time_reduced_in_small_heaps"] = (
        gc_small_b is not None and gc_small_a is not None and gc_small_b < gc_small_a
    )
    text += (
        f"\n\nsmall-heap (<=1.6x) total-time improvement over Appel: "
        f"{improvement:.1f}%"
    )
    data["improvement_small_heaps_pct"] = improvement
    return ExperimentResult("figure9", text, data, checks)


# ----------------------------------------------------------------------
# Figure 10 — per-benchmark total time
# ----------------------------------------------------------------------
def figure10(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Per-benchmark total execution time, the paper's six panels."""
    collectors = ["25.25.100", BASELINE, "gctk:Fixed.25"]
    multipliers = heap_multipliers(points)
    min_heaps(list(BENCHMARK_NAMES), scale)
    sections = []
    data = {}
    checks = {}
    wins_at_small = 0
    for benchmark in BENCHMARK_NAMES:
        raw = {
            c: cached_sweep(benchmark, c, points, scale).series("total_cycles")
            for c in collectors
        }
        rel = relative_to_best(raw)
        sections.append(
            render_series(
                multipliers, rel, f"Figure 10 ({benchmark}): total time relative to best"
            )
        )
        data[benchmark] = rel
        # Compare at the smallest heap where Beltway completes: either it
        # beats Appel there, or Appel could not run at all at that size.
        first = next(
            (i for i, v in enumerate(rel["25.25.100"]) if v is not None), None
        )
        if first is not None:
            appel_there = rel[BASELINE][first]
            beltway_there = rel["25.25.100"][first]
            if appel_there is None or beltway_there <= appel_there * 1.02:
                wins_at_small += 1
    checks["beltway_wins_small_heaps_on_most_benchmarks"] = wins_at_small >= 4
    # Appel needs a substantially larger heap to match Beltway's tight-heap
    # performance: find the first multiplier where Appel gets within 5% of
    # Beltway's minimum-heap total, per benchmark.
    crossovers = {}
    for benchmark in BENCHMARK_NAMES:
        rel = data[benchmark]
        target = rel["25.25.100"][0]
        crossover = None
        if target is not None:
            for i, multiplier in enumerate(multipliers):
                value = rel[BASELINE][i]
                if value is not None and value <= target * 1.05:
                    crossover = multiplier
                    break
        crossovers[benchmark] = crossover
    matched = [c for c in crossovers.values() if c is not None]
    checks["appel_needs_bigger_heaps"] = (
        len(matched) == 0 or geometric_mean(matched) >= 1.2
    )
    data["crossovers"] = crossovers
    text = "\n\n".join(sections)
    text += "\n\nAppel heap multiplier needed to match Beltway@1.0x: " + ", ".join(
        f"{b}={c:.2f}x" if c else f"{b}=never" for b, c in crossovers.items()
    )
    return ExperimentResult("figure10", text, data, checks)


# ----------------------------------------------------------------------
# Figure 11 — responsiveness (MMU)
# ----------------------------------------------------------------------
def figure11(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """MMU curves for javac at two heap sizes (1.5x and 3x minimum)."""
    collectors = ["10.10", "10.10.100", "33.33", "33.33.100", BASELINE]
    javac_min = min_heap("javac", scale)
    sections = []
    data = {}
    checks = {}
    sizes = (("small", 1.5), ("large", 3.0))
    all_stats = run_many(
        [
            ("javac", collector, int(javac_min * ratio), scale, 13)
            for _label, ratio in sizes
            for collector in collectors
        ],
        **_grid,
    )
    for block, (label, ratio) in enumerate(sizes):
        heap = int(javac_min * ratio)
        curves = {}
        pauses = {}
        for offset, collector in enumerate(collectors):
            stats = all_stats[block * len(collectors) + offset]
            if not stats.completed:
                continue
            intervals = stats.pause_intervals()
            windows = _shared_windows(stats.total_cycles)
            curves[collector] = mmu_curve(intervals, stats.total_cycles, windows)
            pauses[collector] = {
                "max_pause": max_pause(intervals),
                "utilisation": overall_utilisation(intervals, stats.total_cycles),
            }
        sections.append(
            render_mmu(curves, f"Figure 11 ({label} heap = {ratio:.1f}x min): MMU")
        )
        data[label] = {"curves": curves, "pauses": pauses}
        if "10.10" in pauses and BASELINE in pauses:
            checks[f"{label}_heap_10_10_shorter_pauses_than_appel"] = (
                pauses["10.10"]["max_pause"] < pauses[BASELINE]["max_pause"]
            )
        if "10.10" in pauses and "33.33" in pauses:
            checks[f"{label}_heap_pause_grows_with_increment"] = (
                pauses["10.10"]["max_pause"] <= pauses["33.33"]["max_pause"]
            )
    if (
        "33.33" in data["small"]["pauses"]
        and "33.33" in data["large"]["pauses"]
    ):
        checks["max_pause_grows_with_heap_size"] = (
            data["large"]["pauses"]["33.33"]["max_pause"]
            >= data["small"]["pauses"]["33.33"]["max_pause"]
        )
    text = "\n\n".join(sections)
    return ExperimentResult("figure11", text, data, checks)


def _shared_windows(total_time: float, points: int = 16) -> List[float]:
    lo = total_time * 3e-4
    step = (1.0 / 3e-4) ** (1.0 / (points - 1))
    return [lo * step ** i for i in range(points)]


# ----------------------------------------------------------------------
# Extension: the responsiveness/throughput trade-off sweep (the paper's
# §4.3 calls this exploration out as future work: "we have not yet
# explored the configuration space fully ... to offer a tuning strategy")
# ----------------------------------------------------------------------
def responsiveness(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Sweep increment size at a fixed heap: pause/throughput tuning.

    For X.X.100 configurations the increment size is the responsiveness
    knob: smaller increments mean smaller collections (better worst-case
    pause and MMU) at the cost of more of them.  This experiment
    quantifies the trade-off on jess at 2x its minimum heap, with the
    Appel baseline for context.
    """
    collectors = ["10.10.100", "25.25.100", "33.33.100", "50.50.100", BASELINE]
    benchmark = "jess"
    heap = 2 * min_heap(benchmark, scale)
    rows = []
    data = {}
    all_stats = run_many(
        [(benchmark, collector, heap, scale, 13) for collector in collectors],
        **_grid,
    )
    for collector, stats in zip(collectors, all_stats):
        if not stats.completed:
            rows.append([collector, "FAILED", "", "", ""])
            continue
        intervals = stats.pause_intervals()
        window = 0.01 * stats.total_cycles
        utilisation = mmu_curve(intervals, stats.total_cycles, [window])[0][1]
        data[collector] = {
            "max_pause": max_pause(intervals),
            "mmu_1pct": utilisation,
            "throughput": overall_utilisation(intervals, stats.total_cycles),
            "collections": stats.collections,
            "total_cycles": stats.total_cycles,
        }
        rows.append(
            [
                collector,
                f"{data[collector]['max_pause']:.0f}",
                f"{utilisation:.3f}",
                f"{data[collector]['throughput']:.3f}",
                f"{stats.collections}",
            ]
        )
    checks = {}
    sized = ["10.10.100", "25.25.100", "33.33.100", "50.50.100"]
    present = [c for c in sized if c in data]
    pauses = [data[c]["max_pause"] for c in present]
    checks["pause_grows_with_increment_size"] = pauses == sorted(pauses)
    if "10.10.100" in data and BASELINE in data:
        checks["small_increments_beat_appel_pause"] = (
            data["10.10.100"]["max_pause"] < data[BASELINE]["max_pause"]
        )
    counts = [data[c]["collections"] for c in present]
    checks["collections_shrink_with_increment_size"] = counts == sorted(
        counts, reverse=True
    )
    text = render_table(
        ["collector", "max pause (cy)", "MMU@1pct window", "throughput", "GCs"],
        rows,
        title=f"Responsiveness sweep (extension): {benchmark} @2x min heap",
    )
    return ExperimentResult("responsiveness", text, data, checks)


# ----------------------------------------------------------------------
# Extension: SLO frontier — Beltway vs the Appel baseline under load
# (the production-shaped question the paper's throughput/MMU numbers
# circle: what rate can each collector sustain at a fixed heap?)
# ----------------------------------------------------------------------
def _slo_workload():
    """A small built-in kv-style server workload (no file dependency)."""
    from ..bench.engine import AllocSite
    from ..workloads.model import ArrivalSpec, RequestTask, ServerWorkloadSpec

    return ServerWorkloadSpec(
        name="slo-kv",
        arrival=ArrivalSpec(process="poisson", rate_rps=1200.0),
        duration_s=0.2,
        tasks=(
            RequestTask(
                name="get",
                weight=3.0,
                sites=(
                    AllocSite(
                        weight=1.0, type_name="small", lifetime="request"
                    ),
                ),
                request_bytes=(96, 256),
                cache_lookups=1,
            ),
            RequestTask(
                name="set",
                weight=1.0,
                sites=(
                    AllocSite(
                        weight=2.0, type_name="node", lifetime="request"
                    ),
                    AllocSite(weight=1.0, type_name="node", lifetime="cache"),
                ),
                request_bytes=(128, 384),
                work=6.0,
            ),
        ),
        description="built-in kv-style workload for the slo experiment",
    )


def slo(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """SLO frontier: Beltway vs the Appel baseline over a rate ladder.

    Runs the built-in kv workload at three offered rates against both
    collectors at a fixed heap, with the no-GC reference distillation.
    The shape checks pin the qualitative story: every measured cell
    completes, tails do not improve as offered load doubles, the no-GC
    references really never collect, and distilled GC cost is sane
    (overhead bounded below, inflation ratios at or above ~1).
    """
    from ..analysis.slo import render_frontier, render_frontier_comparison
    from ..slo import sweep_frontier

    spec = _slo_workload()
    collectors = ["25.25.100", BASELINE]
    heap = 192 * KB
    rates = [600.0, 1200.0, 2400.0]
    frontiers = [
        sweep_frontier(
            spec,
            collector,
            heap,
            rates,
            scale=scale,
            seed=13,
            **_grid,
        )
        for collector in collectors
    ]
    data = {
        frontier.collector: frontier.to_dict() for frontier in frontiers
    }
    checks = {}
    for frontier in frontiers:
        name = frontier.collector
        points = frontier.points
        checks[f"{name}_all_rates_complete"] = all(
            p.completed for p in points
        )
        p99s = [p.p99_cycles for p in points]
        checks[f"{name}_tail_monotone_with_load"] = all(
            later >= 0.95 * earlier  # tolerance: tails may plateau
            for earlier, later in zip(p99s, p99s[1:])
        )
        distilled = [p.distilled for p in points if p.distilled is not None]
        checks[f"{name}_distilled_every_point"] = len(distilled) == len(points)
        checks[f"{name}_no_gc_reference_clean"] = all(
            d.clean for d in distilled
        )
        checks[f"{name}_distilled_cost_sane"] = all(
            d.overhead_pct >= -1.0 and d.p99_inflation >= 0.95
            for d in distilled
        )
    text = "\n\n".join(
        [render_frontier(frontier) for frontier in frontiers]
        + [render_frontier_comparison(frontiers)]
    )
    return ExperimentResult("slo", text, data, checks)


# ----------------------------------------------------------------------
# Extension: ablations of the three mechanisms §3.3 credits, one at a time
# ----------------------------------------------------------------------
def _ablation_variants() -> List[BeltwayConfig]:
    """25.25.100 and its three single-mechanism ablations."""
    base = BeltwayConfig.parse("25.25.100")
    nursery = replace(base.belts[0], max_increments=None)
    return [
        base,
        replace(base, name="25.25.100-halfreserve", fixed_half_reserve=True),
        replace(base, name="25.25.100-nocombine", enable_combine=False),
        replace(base, name="25.25.100-multinursery",
                belts=(nursery,) + base.belts[1:]),
    ]


def ablations(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """Design-choice ablations on jess: a fixed half-heap copy reserve
    (§3.3.4), no collect-together (§3.3.2), a multi-increment nursery
    (§3.3.3).  The four minimum-heap searches run in lockstep; every
    variant then runs at 1.5x the baseline's minimum."""
    variants = _ablation_variants()
    minima = find_min_heaps(
        [("jess", config) for config in variants], scale=scale, **_grid
    )
    heap = int(1.5 * minima[("jess", variants[0])])
    all_stats = run_many(
        [("jess", config, heap, scale, 13) for config in variants], **_grid
    )
    lines = ["Ablations on jess (min heap; GCs measured at 1.5x the baseline minimum)"]
    data = {}
    for config, stats in zip(variants, all_stats):
        minimum = minima[("jess", config)]
        lines.append(
            f"  {config.name:28s} min={minimum / KB:6.1f}KB  "
            f"GCs={stats.collections:4d}  gc_cycles={stats.gc_cycles:12.0f}"
        )
        data[config.name] = {
            "min_heap_bytes": minimum, "completed": stats.completed,
            "collections": stats.collections, "gc_cycles": stats.gc_cycles,
        }
    base, half = data["25.25.100"], data["25.25.100-halfreserve"]
    # The dynamic reserve buys heap *utilisation*: with the fixed half-heap
    # reserve, collections come more often and GC work rises at the same
    # heap.  Every variant still completes (optimisations, not correctness
    # mechanisms).
    checks = {
        "half_reserve_collects_more": half["collections"] > base["collections"],
        "half_reserve_gc_work_up_20pct": half["gc_cycles"] > 1.2 * base["gc_cycles"],
    }
    checks.update({f"{name}_completes": d["completed"] for name, d in data.items()})
    return ExperimentResult("ablations", "\n".join(lines), data, checks)


# ----------------------------------------------------------------------
# Extension: a MOS (train algorithm) third belt, future work in §3.2/§5
# ----------------------------------------------------------------------
_MOS_CONFIGS = ("25.25", "25.25.100", "25.25.MOS")
_STRESS_HEAP = 18 * KB


def _cycle_stress(config: str):
    """Cross-increment cycles dropped under memory pressure: ``RunStats``."""
    vm = VM(heap_bytes=_STRESS_HEAP, collector=config)
    node = vm.define_type("node", nrefs=2, nscalars=1)
    mu = MutatorContext(vm)
    pending = None
    window = []
    try:
        for _generation in range(120):
            ring = [mu.alloc(node) for _ in range(4)]
            for i, handle in enumerate(ring):
                mu.write(handle, 0, ring[(i + 1) % 4])
            if pending is not None:
                mu.write(ring[0], 1, pending)
                mu.write(pending, 1, ring[0])
                pending.drop()
                pending = None
            else:
                pending = mu.copy_handle(ring[0])
            for handle in ring:
                handle.drop()
            for i in range(300):  # pressure with survivors
                junk = mu.alloc(node)
                if i % 6 == 0:
                    window.append(junk)
                    if len(window) > 40:
                        window.pop(0).drop()
                else:
                    junk.drop()
    except OutOfMemory:
        return vm.finish(completed=False, failure="OOM")
    return vm.finish()


def mos(points: int = 9, scale: float = 1.0) -> ExperimentResult:
    """25.25 vs 25.25.100 vs 25.25.MOS.  Under cyclic-garbage stress 25.25
    retains dead cross-increment cycles (or dies); MOS reclaims them with
    no full-heap collection, unlike 25.25.100.  On javac at 1.5x min heap
    MOS pauses (one car plus the lower belts) stay below 25.25.100's."""
    stress = {config: _cycle_stress(config) for config in _MOS_CONFIGS}
    heap = int(1.5 * min_heap("javac", scale))
    javac = dict(zip(_MOS_CONFIGS, run_many(
        [("javac", config, heap, scale, 13) for config in _MOS_CONFIGS], **_grid
    )))
    lines = [f"Cyclic-garbage stress ({_STRESS_HEAP // KB}KB heap):"]
    data = {"stress": {}, "javac": {}}
    for config, stats in stress.items():
        floor = stats.late_occupancy_floor()
        lines.append(
            f"  {config:10s} {'ok' if stats.completed else 'FAIL':5s} "
            f"GCs={stats.collections:4d} floor={floor:6d}B "
            f"full-heap GCs={stats.full_heap_collections}"
        )
        data["stress"][config] = {
            "completed": stats.completed, "collections": stats.collections,
            "floor": floor, "full_heap_collections": stats.full_heap_collections,
        }
    lines.append("javac @1.5x min heap:")
    for config, stats in javac.items():
        lines.append(
            f"  {config:10s} GCs={stats.collections:4d} "
            f"maxpause={stats.max_pause_cycles:10.0f} "
            f"total={stats.total_cycles:12.0f}"
        )
        data["javac"][config] = {key: getattr(stats, key) for key in (
            "completed", "collections", "max_pause_cycles", "total_cycles",
            "full_heap_collections")}
    xx_stress, mos_stress = data["stress"]["25.25"], data["stress"]["25.25.MOS"]
    mos_javac, complete_javac = data["javac"]["25.25.MOS"], data["javac"]["25.25.100"]
    checks = {
        # Completeness under cycle stress: MOS completes; the incomplete
        # configuration either dies or retains far more garbage.
        "mos_stress_completes": mos_stress["completed"],
        "mos_stress_no_full_heap_gc": mos_stress["full_heap_collections"] == 0,
        "incomplete_retains_cycles": not xx_stress["completed"]
        or xx_stress["floor"] > 1.3 * mos_stress["floor"],
        # Incrementality on javac: bounded pauses, below 25.25.100's.
        "mos_javac_completes": mos_javac["completed"],
        "mos_javac_pause_below_complete": mos_javac["max_pause_cycles"]
        < 0.95 * complete_javac["max_pause_cycles"],
        "mos_javac_no_full_heap_gc": mos_javac["full_heap_collections"] == 0,
    }
    return ExperimentResult("mos", "\n".join(lines), data, checks)


#: Every experiment, in paper order then the extensions (the one registry
#: ``beltway-bench experiment``, ``all`` and ``report`` read).
#: All share the ``(points=9, scale=1.0)`` signature; a table or single-
#: heap figure has no grid and ignores ``points``, figure 2/3 both.
ALL_EXPERIMENTS = {
    "table1": table1,
    "figure1": figure1,
    "figure23": figure23,
    "figure4": figure4,
    "figure5": figure5,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "responsiveness": responsiveness,
    "slo": slo,
    "ablations": ablations,
    "mos": mos,
}


def run_experiment(name: str, points: int, scale: float) -> ExperimentResult:
    """Run one registered experiment at the given resolution."""
    return ALL_EXPERIMENTS[name](points=points, scale=scale)
