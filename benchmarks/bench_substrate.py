#!/usr/bin/env python3
"""Substrate throughput benchmark: the perf trajectory of the hot paths.

Times the simulated-memory fast paths every experiment funnels through —
allocation, write-barrier stores, single-word loads/stores, remset
inserts and drains, the trace loop — plus the overhead of ``run()`` with
and without attachments, and
writes the numbers to ``BENCH_substrate.json`` at the repository root so
later PRs have a baseline to regress against.  (End-to-end cells and
campaigns are ``benchmarks/e2e``'s job.)

Usage::

    PYTHONPATH=src python benchmarks/bench_substrate.py            # full run, writes baseline
    PYTHONPATH=src python benchmarks/bench_substrate.py --quick    # short timing windows
    PYTHONPATH=src python benchmarks/bench_substrate.py --quick \\
        --check BENCH_substrate.json                               # CI regression gate

With ``--check`` the run compares its throughput metrics against the given
baseline file and exits non-zero if any regresses by more than
``--threshold`` (default 30%) on two readings — a metric that trips is
re-measured once at full length and judged on the better reading; the
baseline file is left untouched unless ``--output`` is passed explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.engine import (  # noqa: E402
    TAPES,
    SyntheticMutator,
    ensure_standard_types,
)
from repro.bench.spec import benchmark_spec  # noqa: E402
from repro.core.remset import RememberedSets  # noqa: E402
from repro.harness.runner import RunOptions, run as run_cell  # noqa: E402
from repro.heap.space import AddressSpace  # noqa: E402
from repro.kernels import TIER_ENV, available, resolve  # noqa: E402
from repro.runtime.mutator import MutatorContext  # noqa: E402
from repro.runtime.vm import VM  # noqa: E402
from repro.specs import load as load_spec  # noqa: E402
from repro.workloads.engine import RequestProgram, ServerMutator  # noqa: E402

#: Metrics gated by ``--check`` (end-to-end seconds are too noisy to gate);
#: ``check`` skips keys a baseline file predates.
GATED_METRICS = (
    "store_words_per_s",
    "load_words_per_s",
    "allocs_per_s",
    "barrier_stores_per_s",
    "remset_inserts_per_s",
    "remset_drain_slots_per_s",
    "beltway_traced_words_per_s",
    "gctk_traced_words_per_s",
    "grid_store_lookups_per_s",
    "grid_dispatch_jobs_per_s",
)


def _time_loop(fn, min_seconds: float):
    """Run ``fn`` in doubling batches until the batch exceeds the window."""
    fn()  # warm-up
    n = 1
    while True:
        start = time.perf_counter()
        for _ in range(n):
            fn()
        elapsed = time.perf_counter() - start
        if elapsed >= min_seconds:
            return n, elapsed
        n *= 2


def _best_of(fn, min_seconds: float) -> float:
    """Best (minimum) single-call wall time of ``fn`` over a window.

    The substrate-kernel metrics run at microsecond granularity where a
    shared runner's scheduling noise swamps a windowed average; the
    minimum is the standard robust estimator (same rationale as the
    best-of-rounds timing in :func:`bench_attachment`).
    """
    fn()  # warm-up
    best = float("inf")
    deadline = time.perf_counter() + min_seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
    return best


def bench_store_words(min_seconds: float) -> float:
    """Single-word store throughput (the barrier's memory half)."""
    space = AddressSpace(heap_frames=8, frame_shift=12)
    base = space.frame_base(space.acquire_frame("s"))
    nwords = space.frame_words

    def step():
        store = space.store
        for i in range(nwords):
            store(base + i * 4, i)

    n, elapsed = _time_loop(step, min_seconds)
    return n * nwords / elapsed


def bench_load_words(min_seconds: float) -> float:
    """Single-word load throughput (the scan loop's memory half)."""
    space = AddressSpace(heap_frames=8, frame_shift=12)
    base = space.frame_base(space.acquire_frame("s"))
    nwords = space.frame_words

    def step():
        load = space.load
        for i in range(nwords):
            load(base + i * 4)

    n, elapsed = _time_loop(step, min_seconds)
    return n * nwords / elapsed


def bench_alloc(min_seconds: float) -> float:
    """Allocations/s through a full VM (bump pointer + header + barrier),
    including the nursery collections the churn provokes."""

    def step():
        vm = VM(heap_bytes=64 * 1024, collector="25.25.100")
        node = vm.define_type("node", nrefs=2, nscalars=1)
        mu = MutatorContext(vm)
        for _ in range(2000):
            mu.alloc(node).drop()

    n, elapsed = _time_loop(step, min_seconds)
    return n * 2000 / elapsed


def bench_barrier(min_seconds: float) -> float:
    """Barriered reference stores/s (the paper's Fig. 4 fast path) through
    ``vm.write_ref`` — the compiled-Python closure every barriered store
    of every end-to-end workload goes through, the same on both tiers."""
    batch = 4096
    vm = VM(heap_bytes=256 * 1024, collector="25.25.100")
    node = vm.define_type("node", nrefs=2, nscalars=1)
    mu = MutatorContext(vm)
    a = mu.alloc(node).addr
    b = mu.alloc(node).addr

    def step():
        write_ref = vm.write_ref
        for _ in range(batch):
            write_ref(a, 0, b)

    return batch / _best_of(step, min_seconds)


def bench_remset_insert(min_seconds: float) -> float:
    """Remset inserts/s (the barrier slow path: pair lookup + dedup)."""
    inserts_per_step = 1024

    def step():
        rs = RememberedSets()
        insert = rs.insert
        for src in range(32):
            base = src << 10
            for k in range(32):
                insert(src, (src + 1 + (k & 7)) & 31, base + (k << 2))

    n, elapsed = _time_loop(step, min_seconds)
    return n * inserts_per_step / elapsed


def bench_remset_drain(min_seconds: float) -> float:
    """Drained slots/s of ``slots_into`` over a populated table (the
    collection-time remset walk, exercising the target-frame index).

    Shaped like the traffic that occurs — many pairs of one or two slots
    each (a pair holds 1.02–1.37 entries when drained on every e2e
    workload, DESIGN §9), not a few fat ones."""
    rs = RememberedSets()
    for src in range(2, 514):
        for k in range(1 + src % 2):
            rs.insert(src, 1, (src << 10) + (k << 2))  # into the target
        rs.insert(src, src + 1000, src << 10)  # noise pair, other target
    targets = {1}
    slots = len(rs.slots_into(targets, set()))

    def step():
        rs.slots_into(targets, set())

    n, elapsed = _time_loop(step, min_seconds)
    return n * slots / elapsed


def _bench_trace(collector: str, min_seconds: float, tier: str = None) -> float:
    """Words evacuated/s by forced collections over a linked object graph
    (the Cheney scan + copy loop — compiled on the cffi tier).

    2000 nodes (ISSUE 6: grown from the seed's 400) so the per-collection
    fixed costs — result bookkeeping, reclaim, the C view export — are
    amortised over enough copied words to measure the trace loop itself,
    and 4KB frames (the geometry the other substrate benches use) so the
    measurement is the scan/copy loop rather than per-frame grow
    bookkeeping — at the experiments' 64-word frames a 6-word object
    crosses a frame boundary every ~10 copies and refill accounting
    dominates every tier equally.
    """
    vm = VM(heap_bytes=1024 * 1024, collector=collector, frame_shift=12,
            tier=tier)
    node = vm.define_type("node", nrefs=2, nscalars=1)
    mu = MutatorContext(vm)
    handles = [mu.alloc(node) for _ in range(2000)]
    for i, h in enumerate(handles):
        mu.write(h, 0, handles[i - 1])
    per_call = vm.collect().copied_words  # constant: every node survives

    best = _best_of(lambda: vm.collect(), min_seconds)
    return per_call / best


#: Hard ceiling on the overhead of the ``run()`` API with nothing attached
#: versus driving the engine directly — the "compiled out when disabled"
#: criterion telemetry, the sanitizer and the profiler share (DESIGN §10):
#: a VM nothing attached to executes structurally untouched code.  Gated
#: on the *deterministic* interpreter-call ratio (see
#: :func:`bench_attachment`), which is exact and immune to the ±5%
#: wall-clock noise of shared CI runners.
UNATTACHED_MAX_OVERHEAD = 0.02


def _count_calls(fn) -> int:
    """Python + C calls executed by ``fn`` (``sys.setprofile`` hook).

    The workloads are fully seeded, so the count is deterministic — a
    noise-free proxy for "work done": any telemetry leaking into the
    disabled path (an event per store/alloc/collection) shows up as a
    percent-level jump where wall clock on a busy runner could not
    resolve it.  The cyclic GC is paused so finalizer timing cannot
    perturb the count.
    """
    import gc

    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
        if was_enabled:
            gc.enable()
    return count


#: ``run()`` variants :func:`bench_attachment` compares with the raw
#: engine: name -> ``RunOptions`` keywords.  ``unattached`` is the gated
#: one; the rest are informational — full checking, census and event
#: streaming cost what they cost and are reported so the trajectory stays
#: visible, not bounded.
ATTACH_VARIANTS = {
    "unattached": {},
    "telemetry_jsonl": {"trace": os.devnull},
    "sanitizer_on": {"sanitize": True},
    "profiler_on": {"profile": "full"},
}


def bench_attachment(quick: bool) -> dict:
    """Attachment overhead: ``run()`` unattached (gated) and attached.

    The identical fixed-seed cell is driven ``raw`` (VM +
    SyntheticMutator directly, the pre-API shape) and through ``run()``
    once per entry of :data:`ATTACH_VARIANTS`.  The *gated* number is
    ``unattached_overhead_frac``, the ``unattached``/``raw`` interpreter-call
    ratio (deterministic — see :func:`_count_calls`; the whole footprint
    of an unattached ``run()`` is a handful of falsy option checks and
    one class-attribute ``is None`` test per mutator context).  Every
    variant also reports calls, best-of-rounds seconds and both ratios to
    ``raw``, informationally: on shared runners single-run timing noise
    is ±5%, far above the 2% bound.

    Every variant is warmed once, so all replay the (spec, seed) tape
    from the engine's cache — ``raw_seconds`` is a tape *hit*, timed
    again once per available tier as ``mutator_tape_replay_seconds@tier``
    (the cffi tier replays in C, DESIGN §13; the python tier in Python) beside
    ``mutator_tape_record_replay_seconds``, the same raw cell with the
    cache cleared first (a *miss*: record the program, then replay it),
    and ``mutator_tape_replay_bail_ratio``: records the compiled kernel
    handed back ÷ records on the tape, an exact count.
    """
    benchmark, heap, scale, seed = "jess", 48 * 1024, 0.2, 13
    rounds = 5 if quick else 9

    def run_raw(tier=None):
        spec = benchmark_spec(benchmark, scale)
        vm = VM(heap, collector="25.25.100", locality=spec.locality,
                benchmark_name=spec.name, tier=tier)
        engine = SyntheticMutator(vm, spec, seed=seed)
        engine.run()
        return engine.replay_path

    def run_miss():
        TAPES.clear()
        run_raw()

    def through_api(options):
        return lambda: run_cell(
            benchmark, "25.25.100", heap,
            options=RunOptions(scale=scale, seed=seed, **options),
        )

    variants = {"raw": run_raw}
    for name, options in ATTACH_VARIANTS.items():
        variants[name] = through_api(options)
    for fn in variants.values():
        fn()  # warm-up
    calls = {name: _count_calls(fn) for name, fn in variants.items()}
    tiers = [t for t, status in available().items() if status.startswith("ok")]
    timed = dict(variants, miss=run_miss)
    timed.update({f"@{tier}": partial(run_raw, tier) for tier in tiers})
    best = {name: float("inf") for name in timed}
    for _ in range(rounds):
        for name, fn in timed.items():
            start = time.perf_counter()
            returned = fn()
            best[name] = min(best[name], time.perf_counter() - start)
            if name == "raw":
                path = returned
    out = {"mutator_tape_record_replay_seconds": best["miss"]}
    for tier in tiers:
        out[f"mutator_tape_replay_seconds@{tier}"] = best[f"@{tier}"]
    if path.path == "cffi":
        out["mutator_tape_replay_bail_ratio"] = path.bail_ratio
    for name in variants:
        out[f"{name}_seconds"] = best[name]
        out[f"{name}_calls"] = calls[name]
        if name != "raw":
            out[f"{name}_overhead_frac"] = calls[name] / calls["raw"] - 1.0
            out[f"{name}_wall_frac"] = best[name] / best["raw"] - 1.0
    return out


def bench_grid_store(min_seconds: float) -> float:
    """Warm-store lookups/s: ``ResultStore.get`` including deserialisation.

    This is the whole cost of a warm campaign cell (DESIGN §14), so it
    bounds how fast a cached figure can replay.
    """
    import shutil
    import tempfile

    from repro.grid import ResultStore, cell_key

    stats = run_cell(
        "jess", "25.25.100", 24 * 1024, options=RunOptions(scale=0.2)
    ).stats
    root = tempfile.mkdtemp(prefix="grid-bench-store-")
    try:
        with ResultStore(root) as store:
            keys = [
                cell_key("jess", "25.25.100", 24 * 1024, 0.2, seed)
                for seed in range(128)
            ]
            for key in keys:
                store.put(key, stats)
        warm = ResultStore(root)

        def step():
            get = warm.get
            for key in keys:
                get(key)

        n, elapsed = _time_loop(step, min_seconds)
        return n * len(keys) / elapsed
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_grid_dispatch(min_seconds: float) -> float:
    """Jobs/s through ``execute_jobs`` with a no-op cell runner: pure
    executor overhead (keying, cost ordering, bookkeeping, events off)."""
    from repro.grid import execute_jobs
    from repro.sim.stats import RunStats

    jobs = [("jess", "25.25.100", (16 + i) * 1024, 0.2, 13) for i in range(64)]
    stub = RunStats(benchmark="jess", collector="25.25.100", heap_bytes=0)

    def step():
        execute_jobs(jobs, parallel=False, cell_runner=lambda job: stub)

    n, elapsed = _time_loop(step, min_seconds)
    return n * len(jobs) / elapsed


#: Timing window per metric: ``--quick`` (the CI smoke) and full length.
def bench_server_tape(quick: bool) -> dict:
    """The server engine's tape (DESIGN §15), informational: kvstore at its
    declared 1200 rps under ``gctk:Appel`` @ 256 KB.

    ``server_tape_record_seconds`` is the request program alone (no VM
    operation); ``server_tape_replay_seconds@tier`` a tape *hit*, on the
    Python replay and through the compiled kernel; and
    ``server_tape_marks_per_request`` the hand-backs to the engine's
    boundary handler each request costs on either — an exact count.
    """
    ref = str(REPO_ROOT / "examples" / "workloads" / "kvstore.json")
    spec, seed = load_spec(ref), 13
    rounds = 5 if quick else 9

    def cell(tier):
        vm = VM(256 * 1024, collector="gctk:Appel", locality=spec.locality,
                benchmark_name=spec.name, tier=tier)
        engine = ServerMutator(vm, spec, seed=seed)
        return engine.run().requests.count, engine.replay_path

    def record():
        vm = VM(256 * 1024)
        ensure_standard_types(vm)
        program = RequestProgram(spec, seed, vm.types)
        return sum(map(len, program.segments(requests)))

    requests, path = cell("python")  # also the warm-up: the tape is cached
    timed = {"record": record}
    timed.update({
        f"replay_seconds@{tier}": partial(cell, tier)
        for tier in ("python", "cffi") if available()[tier].startswith("ok")
    })
    best = {name: float("inf") for name in timed}
    for _ in range(rounds):
        for name, fn in timed.items():
            start = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - start)
    out = {"server_tape_record_seconds": best.pop("record")}
    out.update({f"server_tape_{name}": value for name, value in best.items()})
    out["server_tape_marks_per_request"] = path.marks / requests
    return out


QUICK_SECONDS, FULL_SECONDS = 0.1, 0.4

#: Gated throughput metric -> its benchmark, ``bench(min_seconds)``.
METRIC_BENCHES = {
    "store_words_per_s": bench_store_words,
    "load_words_per_s": bench_load_words,
    "allocs_per_s": bench_alloc,
    "barrier_stores_per_s": bench_barrier,
    "remset_inserts_per_s": bench_remset_insert,
    "remset_drain_slots_per_s": bench_remset_drain,
    "beltway_traced_words_per_s":
        lambda s, tier=None: _bench_trace("25.25.100", s, tier),
    "gctk_traced_words_per_s":
        lambda s, tier=None: _bench_trace("gctk:SS", s, tier),
    "grid_store_lookups_per_s": bench_grid_store,
    "grid_dispatch_jobs_per_s": bench_grid_dispatch,
}

#: The kernel-sensitive metrics, also measured once per *available* tier
#: under ``metric@tier`` keys so the ``--check`` gate covers each backend
#: individually (ISSUE 6 satellite: a tier that silently loses its kernels
#: regresses its own gated entries, not just the auto-tier headlines).
TIERED_METRICS = (
    "beltway_traced_words_per_s",
    "gctk_traced_words_per_s",
)


def measure(key: str, min_seconds: float) -> float:
    """One reading of ``metric`` or ``metric@tier``."""
    name, _, tier = key.partition("@")
    bench = METRIC_BENCHES[name]
    return bench(min_seconds, tier) if tier else bench(min_seconds)


def run(quick: bool) -> dict:
    min_seconds = QUICK_SECONDS if quick else FULL_SECONDS
    keys = list(METRIC_BENCHES) + [
        f"{name}@{tier}"
        for tier, status in available().items() if status.startswith("ok")
        for name in TIERED_METRICS
    ]
    metrics = {key: measure(key, min_seconds) for key in keys}
    return {
        "schema": 1,
        "mode": "quick" if quick else "full",
        "substrate_tier": resolve(None).name,
        "tiers_available": available(),
        "metrics": metrics,
        "attachment": bench_attachment(quick),
        "server_tape": bench_server_tape(quick),
    }


def check(report: dict, baseline_path: Path, threshold: float) -> int:
    """Exit status 1 if any gated metric regressed more than ``threshold``.

    One short wall-clock reading against a baseline recorded on another
    host is noisy (a 2-CPU runner has shown 0.64x then 0.92x back to back
    on untouched code), so a metric that trips is re-measured once at full
    length and judged on the better of the two readings, both printed.
    """
    baseline = json.loads(baseline_path.read_text())
    failures = []
    # Gate the fixed metric list plus every per-tier ``metric@tier`` entry
    # the baseline recorded (skipping tiers this runner lacks, so a
    # python-only environment still checks cleanly against a full baseline).
    gated = list(GATED_METRICS) + sorted(
        key for key in baseline.get("metrics", {})
        if "@" in key and key in report["metrics"]
    )
    for key in gated:
        base = baseline.get("metrics", {}).get(key)
        now = report["metrics"][key]
        if not base:
            continue
        ratio = now / base
        if ratio < 1.0 - threshold:
            again = measure(key, FULL_SECONDS)
            print(f"  {key:<30} {now:14.0f} vs baseline {base:14.0f}  "
                  f"({ratio:5.2f}x) tripped; re-measured at full length: "
                  f"{again:.0f} ({again / base:5.2f}x)")
            now = max(now, again)
            ratio = now / base
        status = "OK" if ratio >= 1.0 - threshold else "REGRESSED"
        print(f"  {key:<30} {now:14.0f} vs baseline {base:14.0f}  "
              f"({ratio:5.2f}x) {status}")
        if ratio < 1.0 - threshold:
            failures.append(key)
    # Unattached overhead: an absolute gate, not a baseline ratio — with
    # nothing attached the run() API must stay within 2% of driving the
    # engine raw (DESIGN §10).  Measured as the deterministic
    # interpreter-call ratio, so the gate never flakes on a noisy runner.
    overhead = report["attachment"]["unattached_overhead_frac"]
    ok = overhead <= UNATTACHED_MAX_OVERHEAD
    print(f"  {'unattached_overhead':<24} {overhead:14.4f} "
          f"(limit {UNATTACHED_MAX_OVERHEAD:.2f})  "
          f"{'OK' if ok else 'REGRESSED'}")
    if not ok:
        failures.append("unattached_overhead_frac")
    if failures:
        print(f"FAIL: throughput regressed >{threshold:.0%} on: "
              f"{', '.join(failures)}")
        return 1
    print(f"PASS: no gated metric regressed more than {threshold:.0%}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="short timing windows (CI smoke)")
    parser.add_argument("--check", metavar="BASELINE", type=Path,
                        help="compare against a baseline JSON instead of "
                             "overwriting it; exit 1 on regression")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="allowed fractional regression (default 0.30)")
    parser.add_argument("--output", type=Path, default=None,
                        help="where to write the JSON report (default: "
                             "BENCH_substrate.json at the repo root; "
                             "suppressed in --check mode unless given)")
    parser.add_argument("--tier", choices=("python", "cffi", "auto"),
                        help="force the substrate-kernel tier for the "
                             "headline metrics (sets " + TIER_ENV + ")")
    args = parser.parse_args(argv)
    if args.tier:
        os.environ[TIER_ENV] = args.tier
    if args.check and not args.check.is_file():
        parser.error(f"baseline file not found: {args.check}")

    report = run(args.quick)
    for key, value in report["metrics"].items():
        print(f"{key:<28} {value:14.0f} /s")
    for block in ("attachment", "server_tape"):
        for key, value in report[block].items():
            print(f"{key:<36} {value:10.4f}")

    if args.check:
        status = check(report, args.check, args.threshold)
        if args.output:
            args.output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
        return status

    output = args.output or REPO_ROOT / "BENCH_substrate.json"
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
