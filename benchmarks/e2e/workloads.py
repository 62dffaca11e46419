"""The four benchmark workloads, as job tables and round runners.

A workload is a fixed table of public-API calls whose only free input is
``seed`` (and ``scale``, 1.0 except under ``--quick``).  Each exposes the
same three ways of running one *round* — every call of the table once:

* ``cold_round`` — closed loop, one client: the calls run back to back in
  this process with nothing cached;
* ``stored_round(dir, workers=n)`` — the same calls through the grid
  store, fanned out over ``n`` worker processes (a fresh ``dir`` is cold
  parallel; ``workers=None`` on a populated ``dir`` is a warm replay).
  Timed from opening the store to the last call's return; the store is
  closed after the stop-watch (a library caller need not close to read);
* ``jobs`` — the round's grid cells as ``(ref, collector, heap, scale,
  seed)`` tuples, for the traced run.

All results are returned in canonical JSON-able form so rounds compare by
digest; simulated statistics are checked for equality, never timed.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import repro
from repro import ResultStore, RunOptions
from repro.grid.store import stats_to_dict
from repro.harness import experiments
from repro.slo.distill import baseline_heap_bytes

KB = 1024
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Appel minimum heaps (bytes) at scale 1.0, seed 13 — fixed here so a
#: round never pays for (or depends on) a min-heap search.
MIN_HEAP = {
    "jess": 12800,
    "javac": 46080,
    "db": 29696,
    "pseudojbb": 77312,
    "raytrace": 14848,
    "jack": 17920,
}

#: Highest-first ladder the tail percentile is picked from.
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)

Job = Tuple[object, str, int, float, int]


@dataclass
class Outcome:
    """One round (or one store-backed replay of it)."""

    #: Host seconds of each public call, in table order.
    walls: List[float]
    #: Canonical JSON-able form of everything the calls returned.
    result: object
    #: Checks made on what came back (cells completed, requests served,
    #: paper shape checks) and the ones that failed.
    attempted: int = 0
    problems: List[str] = field(default_factory=list)
    #: Cells the store had to execute (store-backed rounds only).
    executed: int = 0
    #: ``digest(result)``, filled by the phase runner, which then drops
    #: ``result`` from every round but the first so memory stays flat.
    digest: str = ""

    @property
    def wall(self) -> float:
        return sum(self.walls)


class Checks:
    """Attempt/failure tally of a run's correctness checks."""

    def __init__(self):
        self.attempted = 0
        self.problems: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)

    def absorb(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.problems += outcome.problems


def digest(obj) -> str:
    """sha256 of the canonical JSON form: sorted keys, no whitespace,
    floats by ``repr`` (exact round trip), NaN rejected."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def tail_quantile(n: int, beyond: int = 10) -> Optional[float]:
    """The highest ladder percentile that still has ``beyond`` samples
    above its nearest-rank position among ``n``, or None when even the
    lowest rung lacks them (p90 needs n >= 100)."""
    for q in TAIL_LADDER:
        if n - math.ceil(q * n) >= beyond:
            return q
    return None


def read_store_cells(store_dir) -> List[Dict]:
    """Every cell of a closed store, as ``stats_to_dict`` payloads in key
    order — read from ``index.json``, the store's documented snapshot."""
    snapshot = json.loads((Path(store_dir) / "index.json").read_text("utf-8"))
    cells = snapshot["cells"]
    return [cells[key]["stats"] for key in sorted(cells)]


class CellWorkload:
    """A table of single cells, each one ``repro.run`` call."""

    scale = 1.0
    #: Whether ``jobs`` must read the cells back from a populated store.
    jobs_need_store = False

    def __init__(self, name: str, why: str, tier: str, table: Sequence[Tuple[str, str, int]]):
        self.name = name
        self.why = why
        self.tier = tier
        self.table = list(table)
        self.spec_refs = sorted({ref for ref, _plan, _heap in table})

    def jobs(self, seed: int, scale: float, store_dir=None) -> List[Job]:
        return [(ref, plan, heap, scale, seed) for ref, plan, heap in self.table]

    def cold_round(self, seed: int, scale: float, scratch) -> Outcome:
        out = Outcome([], [])
        options = RunOptions(scale=scale, seed=seed)
        for ref, plan, heap in self.table:
            t0 = time.perf_counter()
            report = repro.run(ref, plan, heap, options=options)
            out.walls.append(time.perf_counter() - t0)
            out.result.append(stats_to_dict(report.stats))
            out.attempted += 1
            if not report.completed:
                out.problems.append(
                    f"{ref}/{plan}@{heap}: did not complete ({report.stats.failure})"
                )
        return out

    def warm_up(self, seed: int, scale: float, scratch) -> None:
        """The first cell: imports and the compiled kernels.  What is
        still lazy after it lands in the first cycle, which best-of drops."""
        ref, plan, heap = self.table[0]
        repro.run(ref, plan, heap, options=RunOptions(scale=scale, seed=seed))

    def stored_round(self, seed: int, scale: float, store_dir, workers: Optional[int]) -> Outcome:
        t0 = time.perf_counter()
        store = ResultStore(store_dir)
        try:
            stats = repro.run_many(
                self.jobs(seed, scale),
                parallel=workers is not None,
                max_workers=workers,
                store=store,
            )
            wall = time.perf_counter() - t0
        finally:
            store.close()
        out = Outcome([wall], [stats_to_dict(s) for s in stats], len(stats), executed=store.puts)
        out.problems += [
            f"{s.benchmark}/{s.collector}@{s.heap_bytes}: did not complete ({s.failure})"
            for s in stats if not s.completed
        ]
        return out


class FrontierWorkload:
    """A table of rate ladders, each one ``repro.sweep_frontier`` call
    (measured cells plus their no-GC reference cells)."""

    scale = 1.0
    jobs_need_store = False

    def __init__(
        self,
        name: str,
        why: str,
        tier: str,
        table: Sequence[Tuple[str, str, int, float]],
        rate_multipliers: Sequence[float],
    ):
        self.name = name
        self.why = why
        self.tier = tier
        self.table = list(table)
        self.rate_multipliers = tuple(rate_multipliers)
        self.spec_refs = sorted({path for path, _plan, _heap, _rate in table})

    def _rates(self, declared: float) -> List[float]:
        return [m * declared for m in self.rate_multipliers]

    def jobs(self, seed: int, scale: float, store_dir=None) -> List[Job]:
        """The cells ``sweep_frontier`` generates, in its order."""
        jobs: List[Job] = []
        for path, plan, heap, declared in self.table:
            spec = repro.load_spec(path, scale)
            rates = sorted(self._rates(declared))
            jobs += [(spec.with_rate(r), plan, heap, 1.0, seed) for r in rates]
            reference = baseline_heap_bytes(spec)
            jobs += [(spec.with_rate(r), plan, reference, 1.0, seed) for r in rates]
        return jobs

    def _sweep(self, seed, scale, store, workers, table=None) -> Outcome:
        out = Outcome([], [])
        for path, plan, heap, declared in table or self.table:
            t0 = time.perf_counter()
            frontier = repro.sweep_frontier(
                path, plan, heap, self._rates(declared),
                scale=scale, seed=seed, store=store, distill=True,
                parallel=workers is not None, max_workers=workers,
            )
            out.walls.append(time.perf_counter() - t0)
            out.result.append(frontier.to_dict())
            out.attempted += len(frontier.points)
            for point in frontier.points:
                where = f"{frontier.benchmark}/{plan}@{point.rate_rps:g}rps"
                if not point.completed:
                    out.problems.append(f"{where}: did not complete")
                elif point.requests != point.offered:
                    out.problems.append(
                        f"{where}: served {point.requests} of {point.offered}"
                    )
        return out

    def cold_round(self, seed: int, scale: float, scratch) -> Outcome:
        return self._sweep(seed, scale, None, None)

    def warm_up(self, seed: int, scale: float, scratch) -> None:
        """The first frontier alone."""
        self._sweep(seed, scale, None, None, self.table[:1])

    def stored_round(self, seed: int, scale: float, store_dir, workers: Optional[int]) -> Outcome:
        t0 = time.perf_counter()
        store = ResultStore(store_dir)
        try:
            out = self._sweep(seed, scale, store, workers)
            wall = time.perf_counter() - t0
        finally:
            store.close()
        return Outcome([wall], out.result, out.attempted, out.problems, executed=store.puts)


class CampaignWorkload:
    """Paper experiments routed through a store, as ``beltway-bench
    experiment ... --store DIR`` runs them.

    ``harness.experiments`` fixes the cells' seed at 13 (the paper's
    tables are one seed), so ``seed`` does not reach this workload's
    cells; it still seeds the traced run's sample and probes.
    """

    #: Half-length cells: a cold campaign is ~3.5 s instead of ~7.5 s, so
    #: a run fits three of them; the grid layers this workload is about
    #: do the same work per cell at any length.
    scale = 0.5
    jobs_need_store = True

    def __init__(self, name: str, why: str, tier: str, experiment_names: Sequence[str]):
        self.name = name
        self.why = why
        self.tier = tier
        self.experiment_names = tuple(experiment_names)
        self.spec_refs = sorted(MIN_HEAP)

    def jobs(self, seed: int, scale: float, store_dir=None) -> List[Job]:
        """The campaign's cells, recovered from a populated store (the
        min-heap probes are chosen inside the library)."""
        return [
            (cell["benchmark"], cell["collector"], cell["heap_bytes"], scale, 13)
            for cell in read_store_cells(store_dir)
        ]

    def _run(self, names, scale, store_dir, workers) -> Outcome:
        t0 = time.perf_counter()
        store = ResultStore(store_dir)
        attempted = 0
        problems = []
        result = {}
        try:
            experiments.configure_grid(
                store=store, parallel=workers is not None, max_workers=workers
            )
            experiments.clear_caches()
            for name in names:
                outcome = experiments.ALL_EXPERIMENTS[name](scale=scale)
                result[name] = {"data": outcome.data, "text": outcome.text}
                attempted += len(outcome.checks)
                problems += [
                    f"{name}: shape check {check} failed"
                    for check in outcome.failed_checks()
                ]
            wall = time.perf_counter() - t0
        finally:
            experiments.configure_grid()
            experiments.clear_caches()
            store.close()
        result["cells"] = read_store_cells(store_dir)
        return Outcome([wall], result, attempted, problems, executed=store.puts)

    def cold_round(self, seed: int, scale: float, scratch) -> Outcome:
        store_dir = tempfile.mkdtemp(prefix="cold-", dir=scratch)
        try:
            return self._run(self.experiment_names, scale, store_dir, None)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def warm_up(self, seed: int, scale: float, scratch) -> None:
        """The last experiment alone: imports, the compiled kernels and
        one min-heap search, without paying a whole cold campaign."""
        store_dir = tempfile.mkdtemp(prefix="warmup-", dir=scratch)
        try:
            self._run(self.experiment_names[-1:], scale, store_dir, None)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def stored_round(self, seed: int, scale: float, store_dir, workers: Optional[int]) -> Outcome:
        return self._run(self.experiment_names, scale, store_dir, workers)


def _heap(benchmark: str, multiplier: float) -> int:
    return int(multiplier * MIN_HEAP[benchmark])


WORKLOADS = {
    w.name: w
    for w in (
        CellWorkload(
            "spec_mix",
            "six SPEC-like specs x {25.25.100, gctk:Appel} at 2x min heap, tier auto: "
            "the figure-building common case, ~90% mutator engine, collector almost idle",
            "auto",
            [
                (b, plan, _heap(b, 2.0))
                for b in MIN_HEAP
                for plan in ("25.25.100", "gctk:Appel")
            ],
        ),
        CellWorkload(
            "gc_tight",
            "javac/pseudojbb/jack x {25.25.100, 100.100, gctk:Appel} at 1.25x min heap, "
            "tier python: the one place tracer, barrier and remsets carry ~40% of host time",
            "python",
            [
                (b, plan, _heap(b, 1.25))
                for b in ("javac", "pseudojbb", "jack")
                for plan in ("25.25.100", "100.100", "gctk:Appel")
            ],
        ),
        FrontierWorkload(
            "serve_ladder",
            "kvstore/webfront x {25.25.100, gctk:Appel} x rates 0.5-4x via sweep_frontier: "
            "the other mutator engine (open-loop ServerMutator), slo and the serial executor",
            "auto",
            [
                (str(REPO_ROOT / "examples" / "workloads" / name), plan, heap_kb * KB, declared)
                for name, heap_kb, declared in (
                    ("kvstore.json", 256, 1200.0),
                    ("webfront.yaml", 512, 600.0),
                )
                for plan in ("25.25.100", "gctk:Appel")
            ],
            (0.5, 1.0, 2.0, 4.0),
        ),
        CampaignWorkload(
            "campaign",
            "table1 + figure4 through a ResultStore: mutator and collector constant, what "
            "varies is grid.store, grid.executor, grid.minsearch and figure rendering",
            "auto",
            ("table1", "figure4"),
        ),
    )
}
