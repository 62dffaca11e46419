"""Fault-free sanitized runs: zero violations, zero observable footprint.

Two acceptance gates live here:

* every benchmark spec runs to completion under full checking with an
  empty violation list (the collectors actually satisfy the invariants
  the sanitizer enforces);
* a *sanitized* run's RunStats reproduce the golden fixed-seed counters
  bit-identically — the shadow graph and checkers read the heap without
  touching a single accounting counter, so checking a run does not
  change what it measures.
"""

import json
from pathlib import Path

import pytest

from repro.bench.spec import BENCHMARK_NAMES
from repro.harness.runner import RunOptions, run

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "data" / "golden_counters.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

_STATS_KEYS = (
    "completed",
    "allocations",
    "allocated_bytes",
    "copied_bytes",
    "collections",
    "full_heap_collections",
    "peak_remset_entries",
    "total_cycles",
    "gc_cycles",
    "mutator_cycles",
)


def _sanitized_golden_run(bench_name, collector, sanitize=True, **options):
    cell = GOLDEN["cells"][f"{bench_name}/{collector}"]
    report = run(
        bench_name, collector, cell["heap_bytes"],
        options=RunOptions(
            scale=GOLDEN["scale"], seed=GOLDEN["seed"], sanitize=sanitize,
            **options,
        ),
    )
    return report, cell


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_all_specs_clean_under_full_checking(bench_name):
    report, cell = _sanitized_golden_run(bench_name, "25.25.100")
    sanitizer = report.sanitizer
    assert report.completed
    assert sanitizer.ok
    assert sanitizer.violations == []
    assert sanitizer.faults_injected == []
    # Every collection hit a gc.end boundary check.
    assert sanitizer.collections_checked == report.stats.collections
    assert sanitizer.objects_compared > 0
    assert sanitizer.remset_edges_checked >= 0
    # Counter-free checking: the sanitized run's stats are the golden ones.
    got = {key: getattr(report.stats, key) for key in _STATS_KEYS}
    assert got == {key: cell[key] for key in _STATS_KEYS}


@pytest.mark.parametrize("bench_name", ("jess", "javac"))
def test_gctk_baseline_clean_under_full_checking(bench_name):
    report, cell = _sanitized_golden_run(bench_name, "gctk:Appel")
    assert report.completed
    assert report.sanitizer.ok
    assert report.sanitizer.collections_checked == report.stats.collections
    got = {key: getattr(report.stats, key) for key in _STATS_KEYS}
    assert got == {key: cell[key] for key in _STATS_KEYS}


def test_report_summary_and_serialisation():
    report, _ = _sanitized_golden_run("jess", "25.25.100")
    sanitizer = report.sanitizer
    data = sanitizer.to_dict()
    assert data["violations"] == []
    assert data["collections_checked"] == sanitizer.collections_checked
    assert data["objects_compared"] == sanitizer.objects_compared
    text = sanitizer.summary()
    assert text.startswith("sanitizer OK")
    assert str(sanitizer.collections_checked) in text


class _KindTally:
    """Bus sink counting events by kind."""

    def __init__(self):
        self.kinds = {}

    def accept(self, event):
        self.kinds[event.kind] = self.kinds.get(event.kind, 0) + 1


def test_sanitized_run_with_counters_shares_one_instrumentation(monkeypatch):
    """``sanitize`` + ``counters`` stacks nothing extra under the harness
    bus: one Instrumentation, one gc.start and one gc.end per collection,
    and the counter snapshot is the unsanitized run's (host-time phases
    aside)."""
    from repro.obs.instrument import Instrumentation

    built = []
    init = Instrumentation.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Instrumentation, "__init__", counting_init)
    tally = _KindTally()
    report, _ = _sanitized_golden_run(
        "jess", "25.25.100", counters=True, sinks=[tally]
    )
    assert len(built) == 1
    plain, _ = _sanitized_golden_run(
        "jess", "25.25.100", sanitize=False, counters=True
    )
    collections = report.stats.collections
    assert collections > 0 and report.sanitizer.ok
    assert tally.kinds["gc.start"] == tally.kinds["gc.end"] == collections
    assert report.sanitizer.collections_checked == collections

    def modelled(counters):
        return {
            key: value for key, value in counters.items()
            if not key.startswith("phase_")
        }

    assert modelled(report.counters) == modelled(plain.counters)
