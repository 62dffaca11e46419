"""Diff two run artefacts: what regressed, what improved, by how much.

``beltway-bench compare A B`` answers the question the span layer only
frames: *between these two runs, which metric moved past its threshold?*
Artefacts are the files the harness already writes — a ``--trace`` JSONL
event stream (run, serve, minheap, slo, campaign) or an ``slo --json``
document — and A is the baseline, B the candidate.

Metric extraction is artefact-shaped:

* **trace JSONL**: per run partition, the ``run.end`` counter snapshot
  (host wall-time names are skipped — they are machine noise, not
  results), pause percentiles (p50/p99/max via the shared nearest-rank
  definition in :mod:`repro.quantiles`) and MMU at a 1% window derived
  from the ``gc.end`` pause intervals.  Runs are matched by position:
  grid-tagged partitions by input ordinal (``job0.``; the n-th run of a
  re-dispatched ordinal ``job0#n.``), untagged runs in stream order
  (``run1.``) — the span builder's partitions; a single-run trace gets
  bare names.
* **slo JSON**: every numeric per-point field of each frontier
  (``frontier.<collector>@<heap>.r<rate>.<field>``) and each search
  result's knee (``search.<collector>@<heap>.rate_rps``).

Only metrics with a known *direction* can regress: pause/latency/GC
volume metrics are higher-is-worse, MMU/completion/throughput metrics
are lower-is-worse, and everything else (collector identity, heap size,
event counts) is reported on mismatch but never drives the verdict.
The verdict line is grep-stable::

    compare: verdict=OK|REGRESSION regressions=N improvements=N checked=N threshold=P%

Exit contract (enforced by the CLI): 0 same-or-better, 1 regression,
2 usage (unreadable or unrecognisable artefact).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..quantiles import percentile
from .mmu import mmu

#: Substrings marking a higher value as a regression.
_HIGHER_IS_WORSE = (
    "pause",
    "latency",
    "gc_",
    "queue",
    "collections",
    "copied",
    "overhead",
    "inflation",
    "barrier",
    "remset",
    "footprint",
    "paused",
    "dropped",
    "timeout",
    "p50",
    "p90",
    "p99",
    "max_cycles",
    "mean_cycles",
)

#: Substrings marking a lower value as a regression.
_LOWER_IS_WORSE = (
    "mmu",
    "completed",
    "requests",
    "rate_rps",
    "knee",
    "utilisation",
    "throughput",
)


def metric_direction(name: str) -> int:
    """+1 higher-is-worse, -1 lower-is-worse, 0 direction unknown.

    The leaf metric name decides; higher-is-worse wins ties because the
    names that contain both marks (``paused_requests``-style) count bad
    events, not good ones.
    """
    leaf = name.rsplit(".", 1)[-1]
    if any(mark in leaf for mark in _HIGHER_IS_WORSE):
        return +1
    if any(mark in leaf for mark in _LOWER_IS_WORSE):
        return -1
    return 0


@dataclass
class MetricDelta:
    """One compared metric: values, relative change, classification."""

    name: str
    baseline: float
    candidate: float
    #: Relative change in the *worse* direction (0.0 when equal/better or
    #: when the metric has no direction).
    regression: float
    verdict: str  # "ok" | "regression" | "improvement" | "info"

    def line(self) -> str:
        return (
            f"  {self.verdict:<11} {self.name}: "
            f"{self.baseline!r} -> {self.candidate!r}"
        )


@dataclass
class CompareResult:
    """Outcome of one A/B comparison."""

    baseline: str
    candidate: str
    threshold: float
    deltas: List[MetricDelta] = field(default_factory=list)
    #: Metrics present in exactly one artefact (never drive the verdict).
    only_baseline: List[str] = field(default_factory=list)
    only_candidate: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "regression"]

    @property
    def improvements(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.verdict == "improvement"]

    @property
    def checked(self) -> int:
        return sum(1 for d in self.deltas if d.verdict != "info")

    @property
    def ok(self) -> bool:
        return not self.regressions

    def verdict_line(self) -> str:
        """The grep-stable summary line (CI asserts on its shape)."""
        return (
            f"compare: verdict={'OK' if self.ok else 'REGRESSION'} "
            f"regressions={len(self.regressions)} "
            f"improvements={len(self.improvements)} "
            f"checked={self.checked} "
            f"threshold={self.threshold * 100:g}%"
        )

    def render(self, verbose: bool = False) -> str:
        lines: List[str] = []
        for delta in self.deltas:
            if delta.verdict in ("regression", "improvement") or (
                verbose and delta.verdict != "ok"
            ):
                lines.append(delta.line())
        for name in self.only_baseline:
            lines.append(f"  only-in-A    {name}")
        for name in self.only_candidate:
            lines.append(f"  only-in-B    {name}")
        lines.append(self.verdict_line())
        return "\n".join(lines)


class ArtefactError(ValueError):
    """The file is not a readable trace/report artefact (usage error)."""


#: ``run.end`` counter names that measure the host, not the program.
_HOST_NOISE = ("wall", "seconds", "_s")


def _is_host_noise(name: str) -> bool:
    return any(mark in name for mark in _HOST_NOISE)


def _partition_metrics(events) -> Dict[str, float]:
    """Metrics of one run partition (``(kind, time, data)`` triples from
    :func:`repro.obs.trace.partition_runs`): counters + pause stats + MMU."""
    metrics: Dict[str, float] = {}
    pauses: List[Tuple[float, float]] = []
    total_cycles: Optional[float] = None
    for kind, _, data in events:
        if kind == "run.end":
            for name, value in data.get("counters", {}).items():
                if isinstance(value, (int, float)) and not _is_host_noise(name):
                    metrics[name] = float(value)
            total_cycles = metrics.get("run_total_cycles")
        elif kind == "gc.end":
            pauses.append(
                (float(data["pause_start"]), float(data["pause_end"]))
            )
        elif kind == "run.replay":
            metrics["run_completed"] = float(bool(data["completed"]))
            metrics["run_total_cycles"] = float(data["total_cycles"])
            metrics["run_gc_cycles"] = float(data["gc_cycles"])
            metrics["gc_collections_total"] = float(data["collections"])
            total_cycles = float(data["total_cycles"])
            pauses.extend((float(p[0]), float(p[1])) for p in data["pauses"])
    if pauses:
        durations = sorted(end - start for start, end in pauses)
        metrics["gc_pause_p50_cycles"] = percentile(durations, 0.50)
        metrics["gc_pause_p99_cycles"] = percentile(durations, 0.99)
        metrics["gc_max_pause_cycles"] = durations[-1]
    if total_cycles:
        metrics["mmu_1pct"] = mmu(pauses, total_cycles, 0.01 * total_cycles)
    return metrics


def _slo_metrics(doc: dict) -> Dict[str, float]:
    metrics: Dict[str, float] = {}
    for frontier in doc.get("frontiers", []):
        who = f"frontier.{frontier['collector']}@{frontier['heap_bytes']}"
        for point in frontier.get("points", []):
            where = f"{who}.r{point['rate_rps']:g}"
            for name, value in point.items():
                if isinstance(value, bool):
                    metrics[f"{where}.{name}"] = float(value)
                elif isinstance(value, (int, float)):
                    metrics[f"{where}.{name}"] = float(value)
                elif isinstance(value, dict):  # distilled sub-report
                    for sub, subvalue in value.items():
                        if isinstance(subvalue, (int, float)):
                            metrics[f"{where}.{name}.{sub}"] = float(subvalue)
    search = doc.get("search", {})
    for result in search.get("results", []):
        who = f"search.{result['collector']}@{result['heap_bytes']}"
        metrics[f"{who}.rate_rps"] = float(result["rate_rps"])
        metrics[f"{who}.probes"] = float(result["probes"])
    return metrics


def extract_metrics(path: Union[str, Path]) -> Dict[str, float]:
    """Read one artefact and flatten it to comparable ``name -> value``.

    Raises :class:`ArtefactError` when the file is unreadable or neither
    a trace JSONL nor an slo JSON document (the CLI maps that to exit 2).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise ArtefactError(f"cannot read {path}: {error}") from None
    stripped = text.lstrip()
    if not stripped:
        raise ArtefactError(f"{path} is empty")
    if stripped.startswith("{") and not _looks_jsonl(stripped):
        try:
            doc = json.loads(text)
        except ValueError as error:
            raise ArtefactError(f"{path} is not valid JSON: {error}") from None
        if "frontiers" in doc or "search" in doc:
            return _slo_metrics(doc)
        raise ArtefactError(
            f"{path}: unrecognised JSON artefact "
            "(expected an 'slo --json' document or a trace JSONL)"
        )
    # JSONL trace: skip-don't-raise loading and the span builder's own
    # partitioning, so a metric prefix names the run a span id names.
    from ..obs.sinks import JsonlLoadReport, iter_jsonl
    from ..obs.trace import partition_runs

    report = JsonlLoadReport()
    events = list(iter_jsonl(path, validate=True, report=report))
    if not events:
        raise ArtefactError(
            f"{path}: no parseable telemetry events "
            f"({report.corrupt} corrupt, {report.invalid} invalid lines)"
        )
    partitions, _, _ = partition_runs(events)
    metrics: Dict[str, float] = {}
    if len(partitions) == 1:
        metrics.update(_partition_metrics(partitions[0][1]))
    else:
        for prefix, segment in partitions:
            prefix = prefix.replace(":", "")  # job:0#2 -> job0#2, run:1 -> run1
            for name, value in _partition_metrics(segment).items():
                metrics[f"{prefix}.{name}"] = value
    if not metrics:
        raise ArtefactError(f"{path}: no run metrics in the trace")
    return metrics


def _looks_jsonl(stripped: str) -> bool:
    """One telemetry event per line (vs one JSON document).

    A compact single-line document also parses line-wise, so the first
    line must look like an *event* — a JSON object with a ``kind`` key —
    not merely be valid JSON.
    """
    first_line = stripped.splitlines()[0].strip()
    try:
        parsed = json.loads(first_line)
    except ValueError:
        return False
    return isinstance(parsed, dict) and "kind" in parsed


def compare_metrics(
    baseline: Dict[str, float],
    candidate: Dict[str, float],
    *,
    threshold: float = 0.05,
    metric_thresholds: Optional[Dict[str, float]] = None,
    baseline_name: str = "A",
    candidate_name: str = "B",
) -> CompareResult:
    """Classify every shared metric; thresholds are relative fractions.

    A directional metric regresses when it moves past its threshold in
    the worse direction (``metric_thresholds`` keys override per leaf
    name or full name); it improves when it moves past the threshold the
    other way.  Direction-free metrics that differ are reported as
    ``info`` but never affect the verdict.
    """
    metric_thresholds = metric_thresholds or {}
    result = CompareResult(
        baseline=baseline_name, candidate=candidate_name, threshold=threshold
    )
    for name in sorted(set(baseline) | set(candidate)):
        if name not in candidate:
            result.only_baseline.append(name)
            continue
        if name not in baseline:
            result.only_candidate.append(name)
            continue
        a, b = baseline[name], candidate[name]
        limit = metric_thresholds.get(
            name, metric_thresholds.get(name.rsplit(".", 1)[-1], threshold)
        )
        direction = metric_direction(name)
        if direction == 0:
            verdict = "ok" if a == b else "info"
            result.deltas.append(MetricDelta(name, a, b, 0.0, verdict))
            continue
        # Relative move in the worse direction; the baseline's magnitude
        # is the denominator, with a 1.0 floor so zero baselines (no
        # pauses, empty queue) still compare without dividing by zero.
        move = (b - a) * direction
        rel = move / max(abs(a), 1.0)
        if rel > limit:
            verdict = "regression"
        elif rel < -limit:
            verdict = "improvement"
        else:
            verdict = "ok"
        result.deltas.append(
            MetricDelta(name, a, b, max(0.0, rel), verdict)
        )
    return result


def compare_artefacts(
    baseline_path: Union[str, Path],
    candidate_path: Union[str, Path],
    *,
    threshold: float = 0.05,
    metric_thresholds: Optional[Dict[str, float]] = None,
) -> CompareResult:
    """Extract and compare two artefact files (see module docstring)."""
    return compare_metrics(
        extract_metrics(baseline_path),
        extract_metrics(candidate_path),
        threshold=threshold,
        metric_thresholds=metric_thresholds,
        baseline_name=str(baseline_path),
        candidate_name=str(candidate_path),
    )
