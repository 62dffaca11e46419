"""Regenerate profiler figures from a :class:`ProfileReport`.

The profiler's report (``RunReport.profile`` / ``beltway-bench profile
--json``) is self-contained: every table here is a pure function of the
report (or of its dict/JSON round trip), so survival curves, pause
percentiles, MMU ladders and heap-geometry heatmaps can be
re-rendered — and re-styled — without re-running the benchmark.  Accepts
either the live :class:`~repro.obs.profiler.ProfileReport` or the plain
dict a JSON file parses to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Union

from .tables import render_table

ReportLike = Union[Dict[str, Any], object]

#: Canonical attribution-component order (JSON round trips sort dict
#: keys, so renderers must not depend on insertion order).
COMPONENT_ORDER = ("setup", "copy", "scan", "roots", "remset", "free", "boot")


def _ordered_components(components: Dict[str, Any]) -> List[str]:
    known = [name for name in COMPONENT_ORDER if name in components]
    return known + sorted(set(components) - set(known))


def _as_dict(report: ReportLike) -> Dict[str, Any]:
    """A ProfileReport or its (parsed-JSON) dict, as the dict."""
    if isinstance(report, dict):
        return report
    to_dict = getattr(report, "to_dict", None)
    if to_dict is None:
        raise TypeError(
            f"expected a ProfileReport or its dict, got {type(report).__name__}"
        )
    return to_dict()


def survival_table(report: ReportLike) -> str:
    """The survival curve: byte-weighted deaths by log2 age bucket."""
    data = _as_dict(report)
    rows = []
    for row in data.get("survival_curve", []):
        rows.append([
            f"{row['age_lo_bytes']}..{row['age_hi_bytes']}",
            str(row["died_objects"]),
            str(row["died_bytes"]),
            str(row["censored_bytes"]),
            f"{row['surviving_fraction']:.3f}",
        ])
    return render_table(
        ["age (bytes alloc'd)", "died objs", "died bytes", "censored bytes",
         "surviving"],
        rows,
        title=f"survival curve: {data.get('benchmark', '?')}"
        f"/{data.get('collector', '?')}",
    )


def survival_by_label_table(report: ReportLike) -> str:
    """Per-belt/space survivor fractions aggregated over the whole run."""
    data = _as_dict(report)
    rows = []
    for row in data.get("survival_by_label", []):
        rows.append([
            row["label"],
            str(row["collections"]),
            str(row["survived_bytes"]),
            str(row["died_bytes"]),
            f"{row['survivor_fraction']:.3f}",
        ])
    return render_table(
        ["label", "collections", "survived bytes", "died bytes",
         "survivor fraction"],
        rows,
        title="survivor fraction by belt/space",
    )


def pause_table(report: ReportLike) -> str:
    """The pause percentile summary as one table row."""
    data = _as_dict(report)
    p = data.get("pauses", {})
    row = [
        f"{p.get('count', 0):.0f}",
        f"{p.get('total', 0):.0f}",
        f"{p.get('mean', 0):.0f}",
        f"{p.get('p50', 0):.0f}",
        f"{p.get('p90', 0):.0f}",
        f"{p.get('p99', 0):.0f}",
        f"{p.get('max', 0):.0f}",
    ]
    return render_table(
        ["pauses", "total", "mean", "p50", "p90", "p99", "max"],
        [row],
        title="pause percentiles (cycles)",
    )


def mmu_table(report: ReportLike) -> str:
    """The MMU ladder with worst-window locations."""
    data = _as_dict(report)
    worst = {w["window"]: w for w in data.get("worst_windows", [])}
    rows = []
    for window, value in data.get("mmu_curve", []):
        at = worst.get(window)
        rows.append([
            f"{window:.0f}",
            f"{value:.4f}",
            f"{at['start']:.0f}" if at else "--",
            f"{at['paused']:.0f}" if at else "--",
        ])
    return render_table(
        ["window", "MMU", "worst start", "paused"],
        rows,
        title="minimum mutator utilisation",
    )


def geometry_heatmap(report: ReportLike, value: str = "frames") -> str:
    """The heap-geometry timeline: per-label frames (or words) over time."""
    data = _as_dict(report)
    labels: List[str] = list(data.get("geometry_labels", []))
    index = 0 if value == "frames" else 1
    rows = []
    for row in data.get("geometry", []):
        cells = [f"{row['time']:.0f}", row["trigger"]]
        for label in labels:
            cell = row["occupancy"].get(label)
            cells.append(str(cell[index]) if cell else "0")
        rows.append(cells)
    return render_table(
        ["time", "trigger", *labels],
        rows,
        title=f"heap geometry ({value} per label)",
    )


def attribution_table(report: ReportLike) -> str:
    """Whole-run collection-cost decomposition by component."""
    data = _as_dict(report)
    totals = data.get("attribution_totals", {})
    components = totals.get("components", {})
    shares = totals.get("shares", {})
    rows = [
        [name, f"{components[name]:.0f}", f"{100.0 * shares.get(name, 0.0):.1f}%"]
        for name in _ordered_components(components)
    ]
    return render_table(
        ["component", "cycles", "share"],
        rows,
        title="collection cost attribution",
    )


def render_profile(report: ReportLike) -> str:
    """Every table, in report order — the console twin of ``to_markdown``."""
    return "\n\n".join([
        survival_by_label_table(report),
        survival_table(report),
        pause_table(report),
        mmu_table(report),
        attribution_table(report),
        geometry_heatmap(report),
    ])
