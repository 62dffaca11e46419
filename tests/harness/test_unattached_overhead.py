"""Nothing attached costs nothing (DESIGN §10) — as a count, not a timing.

``run()`` with default ``RunOptions`` must execute a cell the way a
hand-driven ``VM`` + ``SyntheticMutator`` does.  The cell is seeded, so
its interpreter-call count is exact: telemetry leaking into the disabled
path is a percent-level jump no stopwatch on a shared runner resolves.
"""

import gc
import os
import sys

from repro import VM
from repro.bench.engine import SyntheticMutator
from repro.bench.spec import benchmark_spec
from repro.harness.runner import RunOptions, run

CELL, SCALE, SEED = ("jess", "25.25.100", 48 * 1024), 0.2, 13


def _raw():
    benchmark, collector, heap = CELL
    spec = benchmark_spec(benchmark, SCALE)
    vm = VM(heap, collector=collector, locality=spec.locality,
            benchmark_name=spec.name)
    SyntheticMutator(vm, spec, seed=SEED).run()


def _through_run(**attach):
    return lambda: run(*CELL, options=RunOptions(scale=SCALE, seed=SEED, **attach))


def _calls(fn) -> int:
    """Python + C calls of ``fn`` on a warm tape, the cyclic GC paused so
    finalizer timing cannot perturb the count."""
    fn()  # the (spec, seed) tape is recorded once a process
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    previous = sys.getprofile()
    gc.disable()
    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        gc.enable()
    return count


def test_run_with_nothing_attached_costs_what_the_raw_engine_costs():
    raw = _calls(_raw)
    bound = raw * 1.02  # option checks and the report, nothing per operation
    assert raw > 10_000  # the cell really ran under the hook
    assert _calls(_through_run()) <= bound
    # Not vacuous: the same measure sees each way of attaching something.
    assert _calls(_through_run(counters=True)) > bound
    assert _calls(_through_run(trace=os.devnull)) > bound
