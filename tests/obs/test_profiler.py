"""The GC profiler: parity, bit-identity, and demographic shape.

Acceptance criteria pinned here:

* **detached**: a VM that attached and then detached the profiler (and a
  run that never asked for one) reproduces the golden fixed-seed
  counters bit-identically for all six specs;
* **attached**: an attached run's RunStats still match the golden
  counters (reads-never-acts), and the report's pause percentiles, MMU
  curve, worst windows and cost attribution agree exactly with the
  post-hoc analysis layer on the same run;
* **shape**: nursery survivor fractions sit below old-object survivor
  fractions on jess and db at generational-shaped configurations.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.mmu import mmu_curve, mmu_curve_from_events
from repro.analysis.pauses import summarise
from repro.bench.engine import SyntheticMutator
from repro.bench.spec import BENCHMARK_NAMES, benchmark_spec
from repro.errors import ConfigError
from repro.harness.runner import RunOptions, run
from repro.obs import validate_events
from repro.obs.profiler import (
    DEFAULT_STREAM_WINDOWS,
    ProfileOptions,
    ProfileReport,
    attach_profiler,
)
from repro.runtime.vm import VM

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_counters.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

#: RunStats field -> golden key (the stats-visible subset of the fixture).
_STATS_KEYS = {
    "completed": "completed",
    "allocations": "allocations",
    "allocated_bytes": "allocated_bytes",
    "copied_bytes": "copied_bytes",
    "collections": "collections",
    "full_heap_collections": "full_heap_collections",
    "peak_remset_entries": "peak_remset_entries",
    "total_cycles": "total_cycles",
    "gc_cycles": "gc_cycles",
    "mutator_cycles": "mutator_cycles",
}


def _golden_stats(stats, golden):
    got = {g: getattr(stats, s) for s, g in _STATS_KEYS.items()}
    return got, {key: golden[key] for key in got}


# ----------------------------------------------------------------------
# End-to-end: attached runs match golden stats and post-hoc analytics
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_attached_run_matches_golden_and_posthoc(bench_name):
    """All six specs with the profiler attached: RunStats bit-identical to
    the golden counters; the report's percentiles/MMU identical to the
    post-hoc values computed from the same run's pause intervals and from
    its telemetry events (the ``mmu_curve_from_events`` point-identity),
    and every worst window really holds the pause time it claims."""
    cell = f"{bench_name}/25.25.100"
    golden = GOLDEN["cells"][cell]
    report = run(
        bench_name, "25.25.100", golden["heap_bytes"],
        options=RunOptions(
            scale=GOLDEN["scale"], seed=GOLDEN["seed"],
            profile="full", ring_buffer=0,
        ),
    )
    stats = report.stats
    got, expected = _golden_stats(stats, golden)
    assert got == expected

    profile = report.profile
    assert profile is not None

    # Pause percentiles: the report's == post-hoc nearest-rank on the run.
    intervals = stats.pause_intervals()
    posthoc = summarise(intervals)
    for field in ("count", "total", "mean", "p50", "p90", "p99", "max"):
        assert profile.pauses[field] == getattr(posthoc, field)

    # MMU: the report's curve == post-hoc curve from intervals == curve
    # recomputed from the telemetry event stream (point-identical).
    windows = [w for w, _ in profile.mmu_curve]
    assert windows == sorted(set(DEFAULT_STREAM_WINDOWS))
    assert profile.mmu_curve == mmu_curve(intervals, stats.total_cycles, windows)
    assert profile.mmu_curve == mmu_curve_from_events(
        report.events, stats.total_cycles, windows
    )

    # Worst windows: one row per window shorter than the run with MMU
    # below 1, each holding the pause time it claims by a direct sum.
    assert [row["window"] for row in profile.worst_windows] == [
        w for w, value in profile.mmu_curve
        if w < stats.total_cycles and value < 1.0
    ]
    for row in profile.worst_windows:
        t0, t1 = row["start"], row["start"] + row["window"]
        assert 0.0 <= t0 and t1 <= stats.total_cycles
        overlap = sum(max(0.0, min(e, t1) - max(s, t0)) for s, e in intervals)
        assert overlap == pytest.approx(row["paused"])
        assert row["utilisation"] == dict(profile.mmu_curve)[row["window"]]
        assert row["utilisation"] == pytest.approx(1.0 - overlap / row["window"])

    # Cost attribution: the modelled decomposition sums *exactly* to the
    # charged pause, per collection (whole-number cost constants).
    assert len(profile.attribution) == stats.collections
    for row in profile.attribution:
        assert row["modelled_cycles"] == row["pause_cycles"]
    totals = profile.attribution_totals
    assert totals["modelled_cycles"] == totals["pause_cycles"]
    assert totals["pause_cycles"] == stats.gc_cycles

    # Census conservation: every stamp resolves exactly once.
    demo = profile.demographics
    assert demo["stamped_objects"] == demo["died_objects"] + demo["censored_objects"]
    assert demo["stamped_bytes"] == demo["died_bytes"] + demo["censored_bytes"]
    assert demo["stamped_bytes"] == stats.allocated_bytes

    # The profiler's own events are schema-valid on the shared bus.
    assert validate_events(report.events) == len(report.events)
    kinds = {e.kind for e in report.events}
    assert "profiler.geometry" in kinds
    if profile.survival_by_collection:
        assert "profiler.survival" in kinds


@pytest.mark.parametrize("collector", ["25.25.MOS", "Appel", "gctk:Appel"])
def test_attached_run_other_collectors_spot_checks(collector):
    """jess across the other golden collectors: stats stay bit-identical
    with the profiler attached, attribution stays exact."""
    golden = GOLDEN["cells"][f"jess/{collector}"]
    report = run(
        "jess", collector, golden["heap_bytes"],
        options=RunOptions(
            scale=GOLDEN["scale"], seed=GOLDEN["seed"], profile="full",
        ),
    )
    got, expected = _golden_stats(report.stats, golden)
    assert got == expected
    for row in report.profile.attribution:
        assert row["modelled_cycles"] == row["pause_cycles"]
    intervals = report.stats.pause_intervals()
    posthoc = summarise(intervals)
    assert report.profile.pauses["p99"] == posthoc.p99
    assert report.profile.pauses["max"] == posthoc.max


# ----------------------------------------------------------------------
# Detached bit-identity (compiled out when disabled)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_attach_then_detach_is_bit_identical(bench_name):
    """Attach a profiler to a fresh VM, detach it, run: golden counters.

    Detach removes the instance-attribute wrappers, so from that point
    the VM executes structurally untouched code — same guarantee (and
    same fixture) as the tracer and the sanitizer."""
    cell = f"{bench_name}/25.25.100"
    golden = GOLDEN["cells"][cell]
    spec = benchmark_spec(bench_name, GOLDEN["scale"])
    vm = VM(
        golden["heap_bytes"], collector="25.25.100",
        locality=spec.locality, benchmark_name=spec.name,
    )
    profiler = attach_profiler(vm)
    profiler.detach()
    profiler.detach()  # idempotent
    assert "alloc" not in vars(vm)
    assert "release_frame" not in vars(vm.space)
    stats = SyntheticMutator(vm, spec, seed=GOLDEN["seed"]).run()
    got, expected = _golden_stats(stats, golden)
    assert got == expected


# ----------------------------------------------------------------------
# Demographic shape: the generational hypothesis, observed
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "bench_name,collector,heap_kb",
    [("jess", "Appel", 40), ("db", "25.25.100", 32)],
)
def test_nursery_survival_below_old_survival(bench_name, collector, heap_kb):
    """Belt-0 (nursery) survivor fraction sits below the older belts':
    young objects die, survivors that reached an old belt keep living."""
    report = run(
        bench_name, collector, heap_kb * 1024,
        options=RunOptions(scale=0.4, profile="full"),
    )
    assert report.completed
    by_label = {r["label"]: r for r in report.profile.survival_by_label}
    assert "belt0" in by_label
    older = [r for label, r in by_label.items() if label != "belt0"]
    assert older, "run never promoted anything — heap too large for the test"
    nursery = by_label["belt0"]["survivor_fraction"]
    assert nursery < max(r["survivor_fraction"] for r in older)

    # The survival curve exists, is byte-weighted, and is monotone
    # non-increasing in age by construction.
    curve = report.profile.survival_curve
    assert curve
    fractions = [row["surviving_fraction"] for row in curve]
    assert fractions == sorted(fractions, reverse=True)


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
def test_report_roundtrip_and_markdown():
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(scale=0.2, profile="full"),
    )
    profile = report.profile
    rebuilt = ProfileReport.from_dict(json.loads(profile.to_json()))
    assert rebuilt.to_dict() == profile.to_dict()
    assert rebuilt.mmu_curve == profile.mmu_curve

    markdown = profile.to_markdown()
    for section in ("# GC profile: jess / 25.25.100",
                    "## Lifetime demographics", "## Pause analytics",
                    "## Cost attribution", "## Heap geometry"):
        assert section in markdown

    # Geometry: every sample's per-label frames sum to frames_in_use.
    for row in profile.geometry:
        assert sum(c[0] for c in row["occupancy"].values()) == row["frames_in_use"]


def test_profile_true_keeps_legacy_meaning():
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(scale=0.1, profile=True),
    )
    assert report.phases is not None
    assert report.profile is None


def test_profile_options_instance_and_bad_value():
    report = run(
        "jess", "25.25.100", 48 * 1024,
        options=RunOptions(
            scale=0.1, profile=ProfileOptions(emit_events=False), ring_buffer=0,
        ),
    )
    assert report.profile is not None
    assert not any(e.kind.startswith("profiler.") for e in report.events)

    with pytest.raises(ConfigError):
        run("jess", "25.25.100", 48 * 1024,
            options=RunOptions(profile="yes please"))
