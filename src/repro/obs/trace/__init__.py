"""repro.obs.trace — span timelines and Perfetto export.

Derives hierarchical spans (campaign → job, run → gc cycle → phase,
request service intervals) purely from the telemetry event stream and
renders them in the Chrome trace-event JSON format, so any run, serve,
slo, or campaign artefact opens in ``ui.perfetto.dev``::

    from repro.obs.trace import build_timeline, write_perfetto
    from repro.obs.sinks import iter_jsonl

    timeline = build_timeline(iter_jsonl("campaign.jsonl", validate=True))
    write_perfetto(timeline, "campaign.perfetto.json")

Or in one step from the command line::

    beltway-bench trace campaign.jsonl -o campaign.perfetto.json
"""

from .export import (
    TraceExportSink,
    to_perfetto,
    validate_perfetto,
    write_perfetto,
)
from .spans import (
    PHASE_COMPONENTS,
    Span,
    Timeline,
    build_timeline,
    partition_runs,
)

__all__ = [
    "PHASE_COMPONENTS",
    "Span",
    "Timeline",
    "TraceExportSink",
    "build_timeline",
    "partition_runs",
    "to_perfetto",
    "validate_perfetto",
    "write_perfetto",
]
