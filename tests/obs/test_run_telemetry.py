"""End-to-end telemetry through the consolidated ``run()`` API.

Two acceptance criteria from the telemetry-bus work live here:

* telemetry-**off** runs through ``run()`` reproduce the golden
  fixed-seed counters bit-identically for all six benchmark specs — the
  new API and the event layer change nothing when nobody subscribes;
* a subscribed JSONL sink yields schema-valid events whose totals
  (bytes copied, pauses) reconcile exactly with the returned RunStats.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.mmu import mmu_curve
from repro.analysis.pauses import summarise
from repro.bench.spec import BENCHMARK_NAMES
from repro.harness.runner import RunOptions, run
from repro.obs import iter_jsonl, pauses_from_events, validate_events

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


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_run_api_telemetry_off_matches_golden(bench_name):
    """All six specs through ``run()`` with no telemetry: bit-identical."""
    cell = f"{bench_name}/25.25.100"
    golden = GOLDEN["cells"][cell]
    report = run(
        bench_name, "25.25.100", golden["heap_bytes"],
        options=RunOptions(scale=GOLDEN["scale"], seed=GOLDEN["seed"]),
    )
    stats = report.stats
    got = {key: getattr(stats, field) for key, field in
           ((g, s) for s, g in _STATS_KEYS.items())}
    expected = {key: golden[key] for key in got}
    assert got == expected


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_trace_jsonl_schema_and_reconciliation(bench_name, tmp_path):
    """Every spec emits per-collection, per-phase and occupancy events
    whose totals reconcile with the returned RunStats."""
    out = tmp_path / f"{bench_name}.jsonl"
    report = run(
        bench_name, "25.25.100", 64 * 1024,
        options=RunOptions(scale=0.1, trace=str(out)),
    )
    stats = report.stats
    events = list(iter_jsonl(out))
    assert len(events) == report.trace_events_written
    assert validate_events(events) == len(events)

    kinds = {e["kind"] for e in events}
    assert {"run.start", "gc.start", "gc.end", "remset.batch",
            "heap.snapshot", "phase", "run.end"} <= kinds

    ends = [e for e in events if e["kind"] == "gc.end"]
    assert len(ends) == stats.collections
    assert sum(e["copied_bytes"] for e in ends) == stats.copied_bytes
    assert sum(e["pause_cycles"] for e in ends) == pytest.approx(stats.gc_cycles)

    (run_end,) = [e for e in events if e["kind"] == "run.end"]
    assert run_end["completed"] is True
    counters = run_end["counters"]
    assert counters["gc_collections_total"] == stats.collections
    assert counters["gc_copied_bytes_total"] == stats.copied_bytes
    assert counters["alloc_bytes_total"] == stats.allocated_bytes
    assert counters["run_total_cycles"] == stats.total_cycles

    batches = [e for e in events if e["kind"] == "remset.batch"]
    assert sum(b["inserts"] for b in batches) == counters["remset_inserts_total"]

    phases = [e for e in events if e["kind"] == "phase"]
    assert {p["name"] for p in phases} == {
        "mutator", "barrier", "collect", "verify", "total"
    }


def test_analysis_from_trace_matches_analysis_from_stats(tmp_path):
    """Figures regenerated from ``--trace`` JSONL match the in-process
    RunStats-based analysis."""
    out = tmp_path / "trace.jsonl"
    report = run(
        "javac", "25.25.100", 64 * 1024,
        options=RunOptions(scale=0.1, trace=str(out)),
    )
    stats = report.stats
    events = list(iter_jsonl(out))
    assert pauses_from_events(events) == stats.pause_intervals()
    assert summarise(pauses_from_events(events)) == summarise(stats.pause_intervals())
    windows = [stats.total_cycles * f for f in (0.01, 0.1, 0.5)]
    assert mmu_curve(pauses_from_events(events), stats.total_cycles, windows) == (
        mmu_curve(stats.pause_intervals(), stats.total_cycles, windows)
    )
    (run_end,) = [e for e in events if e["kind"] == "run.end"]
    counters = run_end["counters"]
    util = 1.0 - counters["gc_pause_cycles_total"] / counters["run_total_cycles"]
    assert util == pytest.approx(1.0 - stats.gc_fraction)


def test_trace_written_even_when_run_fails(tmp_path):
    out = tmp_path / "oom.jsonl"
    report = run(
        "jess", "gctk:Appel", 2 * 1024,
        options=RunOptions(scale=0.2, trace=str(out)),
    )
    assert not report.completed
    events = list(iter_jsonl(out))
    validate_events(events)
    (run_end,) = [e for e in events if e["kind"] == "run.end"]
    assert run_end["completed"] is False
    assert run_end["failure"]
