"""Experiment harness: runners, per-figure experiments, and the CLI."""

from .experiments import (
    ALL_EXPERIMENTS,
    BASELINE,
    ExperimentResult,
    cached_sweep,
    clear_caches,
    min_heap,
)
from .runner import (
    FRAME_BYTES,
    RunOptions,
    RunReport,
    find_min_heap,
    run,
    run_many,
)

__all__ = [
    "ALL_EXPERIMENTS",
    "BASELINE",
    "ExperimentResult",
    "FRAME_BYTES",
    "RunOptions",
    "RunReport",
    "cached_sweep",
    "clear_caches",
    "find_min_heap",
    "min_heap",
    "run",
    "run_many",
]
