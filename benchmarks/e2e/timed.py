"""The timed (untraced) run: what a user of one workload waits on.

A closed loop with one client.  After one untimed warm-up call the
``--seconds`` budget is spent on whole *cycles*, each one round three ways:

* **cold** — the round's calls back to back in this process;
* **parallel** — the same round through a fresh ``ResultStore`` on
  ``nproc`` worker processes (the only phase whose cells run in other
  processes), twice;
* **warm** — the same round replayed from that populated store, 5 times;

and one fresh interpreter for ``setup_s``.

Interleaving the phases spreads each one over the whole run, so a noisy
stretch of the host cannot land on one metric alone.  Every round's
results must digest equal to the first cold round's.  Timings are host
seconds; each call's cost is its best over the cycles.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional

import repro
from repro import kernels
from repro.quantiles import percentile

from workloads import REPO_ROOT, Checks, Outcome, digest, read_store_cells, tail_quantile

#: Fresh interpreters ``setup_s`` is the best of, at least.
SETUP_REPEATS = 5
#: Cycles a run makes even when one outlasts the budget.
MIN_CYCLES = 3
#: Parallel rounds per cycle: the phase that needs every CPU quiet at
#: once is the noisiest, so it gets the most samples.
PARALLEL_PER_CYCLE = 2
#: Warm replays (milliseconds each) per cycle.
WARM_PER_CYCLE = 5
#: ``--quick`` shortens every cell, not the checks.
QUICK_SCALE = 0.25


def capture_env(tier: str) -> Dict[str, object]:
    """Pin the workload's tier for this process and record the host.

    A run is ``comparable`` only if it executed the program it names:
    ``auto`` must resolve to the fastest tier, a pinned tier to itself.
    """
    if tier == "auto":
        os.environ.pop(kernels.TIER_ENV, None)
    else:
        os.environ[kernels.TIER_ENV] = tier
    available = kernels.available()  # compiles the cffi backend on first use
    resolved = kernels.resolve().name
    wanted = kernels.TIER_ORDER[0] if tier == "auto" else tier
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "repro_version": repro.__version__,
        "git_sha": sha,
        "load_1min": os.getloadavg()[0],
        "kernels_available": available,
        "tier_requested": tier,
        "tier_resolved": resolved,
        "comparable": resolved == wanted,
    }


def measure_setup(workload, repeats: int) -> List[float]:
    """``import repro`` + ``kernels.resolve()`` + the workload's specs, in
    ``repeats`` fresh interpreters (each reports its own seconds)."""
    command = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe"]
    command += [str(ref) for ref in workload.spec_refs]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _attempt(sample: Callable[[], Outcome], reference: Optional[Outcome], checks: Checks) -> Optional[Outcome]:
    """One round.  A round that raises is a failure and yields no timing;
    any other is checked, and digested against ``reference`` (whose full
    result alone is kept, so memory stays flat over the run)."""
    try:
        outcome = sample()
    except Exception:  # the benchmark must report, not die, on a broken round
        traceback.print_exc()
        checks.expect(False, f"round raised: {traceback.format_exc(limit=1).splitlines()[-1]}")
        return None
    checks.absorb(outcome)
    outcome.digest = digest(outcome.result)
    if reference is not None:
        checks.expect(outcome.digest == reference.digest, "results differ from the first cold round")
        outcome.result = None
    return outcome


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


def run_timed(workload, seed: int, seconds: float, quick: bool, scratch):
    """One timed run.  Returns ``(metrics, extra, checks, sim_digest)``."""
    checks = Checks()
    scale = QUICK_SCALE if quick else workload.scale
    workers = os.cpu_count() or 1
    setup: List[float] = []
    if not quick:
        workload.warm_up(seed, scale, scratch)

    cold: List[Outcome] = []
    parallel: List[Outcome] = []
    warm: List[Outcome] = []
    store_dir = os.path.join(scratch, "store")
    cycle_s = 0.0
    t0 = time.perf_counter()
    while len(cold) < (1 if quick else MIN_CYCLES) or time.perf_counter() - t0 + cycle_s <= seconds:
        c0 = time.perf_counter()
        setup += measure_setup(workload, 1)  # one per cycle: spread over the run
        reference = cold[0] if cold else None
        outcome = _attempt(lambda: workload.cold_round(seed, scale, scratch), reference, checks)
        if outcome is None:
            if reference is None:
                raise RuntimeError(f"{workload.name}: the first cold round failed")
            continue
        cold.append(outcome)
        for _ in range(PARALLEL_PER_CYCLE):
            shutil.rmtree(store_dir, ignore_errors=True)
            fresh = _attempt(
                lambda: workload.stored_round(seed, scale, store_dir, workers), cold[0], checks
            )
            if fresh is not None:
                parallel.append(fresh)
        if fresh is None:
            continue  # the store may be half filled: nothing to replay
        for _ in range(WARM_PER_CYCLE):
            replay = _attempt(
                lambda: workload.stored_round(seed, scale, store_dir, None), cold[0], checks
            )
            if replay is not None:
                checks.expect(replay.executed == 0, f"warm replay executed {replay.executed} cells")
                warm.append(replay)
        cycle_s = time.perf_counter() - c0
    if not (parallel and warm):
        raise RuntimeError(f"{workload.name}: no store-backed round completed")
    if not quick:
        setup += measure_setup(workload, max(0, SETUP_REPEATS - len(setup)))
    cells = read_store_cells(store_dir)

    # The host's noise is one-sided (bursts that only ever slow a call
    # down), so each call's cost is its best over the cycles.
    best = [min(walls) for walls in zip(*(outcome.walls for outcome in cold))]
    round_s = sum(best)
    allocated_mb = sum(cell["allocated_bytes"] for cell in cells) / (1 << 20)
    metrics = {
        "setup_s": min(setup),
        "cells_per_s": len(cells) / round_s,
        "call_s_p50": percentile(sorted(best), 0.5),
        "alloc_mb_per_s": allocated_mb / round_s,
        "parallel_s": min(outcome.wall for outcome in parallel),
        "warm_s": min(outcome.wall for outcome in warm),
        "peak_rss_mb": peak_rss_mb(),
    }
    calls = sorted(wall for outcome in cold for wall in outcome.walls)
    tail = tail_quantile(len(calls))
    extra = {
        "scale": scale,
        "cells_per_round": len(cells),
        "calls_per_round": len(best),
        "samples": {
            "setup": len(setup), "cold_rounds": len(cold), "calls": len(calls),
            "parallel_rounds": len(parallel), "warm_rounds": len(warm),
        },
        "round_s": round_s,
        "round_s_median": statistics.median(outcome.wall for outcome in cold),
        "call_s_median_of_all": percentile(calls, 0.5),
        "call_s_tail_of_all": None if tail is None else {
            "percentile": tail, "value": percentile(calls, tail), "n": len(calls),
        },
        "parallel_workers": workers,
        "parallel_speedup": round_s / metrics["parallel_s"],
        "warm_share_of_cold": metrics["warm_s"] / round_s,
        "sim_allocated_mb_per_round": allocated_mb,
    }
    requests = sum(cell["requests"]["count"] for cell in cells if cell["requests"])
    if requests:
        extra["sim_requests_per_round"] = requests
        extra["requests_per_s"] = requests / round_s
    return metrics, extra, checks, digest({"result": cold[0].result, "cells": cells})
