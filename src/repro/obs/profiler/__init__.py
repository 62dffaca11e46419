"""repro.obs.profiler — the GC profiler on top of the telemetry bus.

Lifetime demographics (birth-stamped allocation accounting, survival
curves by age in bytes allocated, per-belt survivor fractions), pause
analytics (percentiles, MMU curve and worst-window identification, from
``repro.analysis`` over the finished run's pause list), heap-geometry
timelines and exact per-collection cost attribution — attached to a VM
only at ``attach_profiler`` time, so an unprofiled run executes untouched
code.

Typical use through the harness::

    report = repro.run("jess", "25.25.100", 48 * 1024,
                       options=repro.RunOptions(profile="full"))
    print(report.profile.to_markdown())

or standalone on a hand-built VM::

    from repro.obs.profiler import attach_profiler

    profiler = attach_profiler(vm)
    ...  # run the workload
    print(profiler.finalise(vm.finish()).to_json())
"""

from .attach import Profiler, attach_profiler
from .attribution import CostAttribution
from .demographics import CollectionTally, LifetimeCensus
from .geometry import GeometryTimeline
from .report import (
    DEFAULT_STREAM_WINDOWS,
    ProfileReport,
    aggregate_by_label,
)

__all__ = [
    "CollectionTally",
    "CostAttribution",
    "DEFAULT_STREAM_WINDOWS",
    "GeometryTimeline",
    "LifetimeCensus",
    "ProfileReport",
    "Profiler",
    "aggregate_by_label",
    "attach_profiler",
]
