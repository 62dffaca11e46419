"""Synthetic SPEC workload substrate (six benchmarks + the engine)."""

from .engine import (
    AllocSite,
    STANDARD_TYPES,
    SyntheticMutator,
    Table1Row,
    WorkloadSpec,
)
from .lifetime import DeathSchedule, LifetimeClass
from .spec import (
    BENCHMARK_NAMES,
    KB,
    all_specs,
    benchmark_spec,
    canonical_name,
)

__all__ = [
    "AllocSite",
    "BENCHMARK_NAMES",
    "DeathSchedule",
    "KB",
    "LifetimeClass",
    "STANDARD_TYPES",
    "SyntheticMutator",
    "Table1Row",
    "WorkloadSpec",
    "all_specs",
    "benchmark_spec",
    "canonical_name",
]
