"""Shared machinery for the experiment benchmark targets.

Each target (the cases of ``bench_paper.py``, the extension modules)
reproduces one table or figure under ``pytest-benchmark`` timing, asserts
its qualitative shape checks, and writes the rendered rows/series to
``benchmarks/output/`` so the reproduced artefacts can be inspected and
diffed after a run.

Grid resolution and workload length are tunable through environment
variables (defaults keep the full suite in the minutes range)::

    REPRO_BENCH_POINTS=33 REPRO_BENCH_SCALE=1.0 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.harness import experiments
from repro.harness.experiments import ExperimentResult

#: Heap-grid points per sweep (the paper used 33).
POINTS = int(os.environ.get("REPRO_BENCH_POINTS", "7"))
#: Workload length multiplier.
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

OUTPUT_DIR = Path(__file__).parent / "output"


def run_experiment(name: str) -> ExperimentResult:
    """Run one experiment at the configured resolution and persist it."""
    result = experiments.run_experiment(name, POINTS, SCALE)
    OUTPUT_DIR.mkdir(exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    checks = "\n".join(
        f"  [{'PASS' if ok else 'FAIL'}] {check}" for check, ok in result.checks.items()
    )
    path.write_text(f"{result.text}\n\nShape checks:\n{checks}\n")
    return result


def assert_shape(result: ExperimentResult) -> None:
    assert result.all_checks_pass, (
        f"{result.name}: failed shape checks {result.failed_checks()}\n{result.text}"
    )
