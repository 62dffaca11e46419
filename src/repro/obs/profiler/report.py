"""ProfileReport: the self-contained artefact one profiled run produces.

Everything the profiler computed — lifetime demographics, pause
analytics, heap-geometry timeline, per-collection cost attribution — in
one plain-data object that serialises to JSON (``to_json``) and renders
as a self-contained markdown report (``to_markdown``).  A saved
``profile --json`` file re-renders without re-running the benchmark:
``ProfileReport.from_dict(json.load(f)).to_markdown()`` gives the same
markdown as the live report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

#: The MMU window ladder (cycles) of every profile: geometric steps of 4x
#: from about 1e3 to 1e9 cycles, bracketing every scaled workload's pauses
#: and run lengths.  A window longer than the run clamps to the run length.
DEFAULT_STREAM_WINDOWS: Tuple[float, ...] = tuple(
    float(4 ** k) for k in range(5, 16)
)


@dataclass
class ProfileReport:
    """One profiled run, as data."""

    benchmark: str = ""
    collector: str = ""
    heap_bytes: int = 0
    scale: float = 1.0
    seed: int = 0
    completed: bool = False
    total_cycles: float = 0.0
    gc_cycles: float = 0.0
    allocated_bytes: int = 0

    #: Aggregate census counts (stamped/died/moved/censored).
    demographics: Dict[str, Any] = field(default_factory=dict)
    #: Survival curve rows (log2 age buckets, byte-weighted).
    survival_curve: List[dict] = field(default_factory=list)
    #: Per-(label, increment) survivor accounting, one row per collection.
    survival_by_collection: List[dict] = field(default_factory=list)
    #: Whole-run per-label aggregate (nursery vs older belts).
    survival_by_label: List[dict] = field(default_factory=list)

    #: Percentile summary (count/total/mean/p50/p90/p99/max), the fields
    #: of :class:`repro.analysis.pauses.PauseSummary`.
    pauses: Dict[str, float] = field(default_factory=dict)
    #: (window, mmu) ladder over :data:`DEFAULT_STREAM_WINDOWS`.
    mmu_curve: List[Tuple[float, float]] = field(default_factory=list)
    #: Where the minimum-utilisation window sits, per window length
    #: shorter than the run with MMU below 1.
    worst_windows: List[dict] = field(default_factory=list)

    #: Heap-geometry samples (per-label frames/words over time).
    geometry: List[dict] = field(default_factory=list)
    #: First-seen-order label list for the geometry table columns.
    geometry_labels: List[str] = field(default_factory=list)

    #: Per-collection cost decomposition rows.
    attribution: List[dict] = field(default_factory=list)
    #: Whole-run component totals and shares.
    attribution_totals: Dict[str, Any] = field(default_factory=dict)

    #: Host wall-time phase split (``Instrumentation.end``), if measured.
    phases: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "collector": self.collector,
            "heap_bytes": self.heap_bytes,
            "scale": self.scale,
            "seed": self.seed,
            "completed": self.completed,
            "total_cycles": self.total_cycles,
            "gc_cycles": self.gc_cycles,
            "allocated_bytes": self.allocated_bytes,
            "demographics": dict(self.demographics),
            "survival_curve": list(self.survival_curve),
            "survival_by_collection": list(self.survival_by_collection),
            "survival_by_label": list(self.survival_by_label),
            "pauses": dict(self.pauses),
            "mmu_curve": [list(point) for point in self.mmu_curve],
            "worst_windows": list(self.worst_windows),
            "geometry": list(self.geometry),
            "geometry_labels": list(self.geometry_labels),
            "attribution": list(self.attribution),
            "attribution_totals": dict(self.attribution_totals),
            "phases": dict(self.phases),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)

    @classmethod
    def from_dict(cls, obj: Dict[str, Any]) -> "ProfileReport":
        report = cls()
        for field in vars(report):
            if field in obj:
                setattr(report, field, obj[field])
        report.mmu_curve = [tuple(point) for point in report.mmu_curve]
        return report

    # ------------------------------------------------------------------
    # Markdown rendering
    # ------------------------------------------------------------------
    def to_markdown(self) -> str:
        lines = [
            f"# GC profile: {self.benchmark} / {self.collector}",
            "",
            f"- heap: {self.heap_bytes} bytes, scale {self.scale}, "
            f"seed {self.seed}",
            f"- completed: {self.completed}",
            f"- total cycles: {self.total_cycles:.0f} "
            f"(GC: {self.gc_cycles:.0f}, "
            f"{100.0 * self.gc_cycles / self.total_cycles:.1f}%)"
            if self.total_cycles else "- total cycles: 0",
            f"- allocated: {self.allocated_bytes} bytes",
            "",
        ]
        lines += self._demographics_md()
        lines += self._pauses_md()
        lines += self._attribution_md()
        lines += self._geometry_md()
        return "\n".join(lines) + "\n"

    def _demographics_md(self) -> List[str]:
        demo = self.demographics
        lines = ["## Lifetime demographics", ""]
        if demo:
            lines.append(
                f"{demo.get('stamped_objects', 0)} objects stamped "
                f"({demo.get('stamped_bytes', 0)} bytes); "
                f"{demo.get('died_objects', 0)} died, "
                f"{demo.get('moved_objects', 0)} copies observed, "
                f"{demo.get('censored_objects', 0)} alive at exit "
                f"(censored)."
            )
            lines.append("")
        if self.survival_by_label:
            lines += _md_table(
                ["label", "collections", "survived bytes", "died bytes",
                 "survivor fraction"],
                [[r["label"], r["collections"], r["survived_bytes"],
                  r["died_bytes"], f"{r['survivor_fraction']:.3f}"]
                 for r in self.survival_by_label],
            )
            lines.append("")
        if self.survival_curve:
            lines.append("### Survival by age (bytes allocated)")
            lines.append("")
            lines += _md_table(
                ["age bucket (bytes)", "died bytes", "censored bytes",
                 "surviving fraction"],
                [[f"{r['age_lo_bytes']}–{r['age_hi_bytes']}",
                  r["died_bytes"], r["censored_bytes"],
                  f"{r['surviving_fraction']:.3f}"]
                 for r in self.survival_curve],
            )
            lines.append("")
        return lines

    def _pauses_md(self) -> List[str]:
        lines = ["## Pause analytics", ""]
        p = self.pauses
        if p:
            lines.append(
                f"n={p.get('count', 0):.0f} total={p.get('total', 0):.0f} "
                f"mean={p.get('mean', 0):.0f} p50={p.get('p50', 0):.0f} "
                f"p90={p.get('p90', 0):.0f} p99={p.get('p99', 0):.0f} "
                f"max={p.get('max', 0):.0f} (cycles)"
            )
            lines.append("")
        if self.mmu_curve:
            lines.append("### Minimum mutator utilisation")
            lines.append("")
            worst = {w["window"]: w for w in self.worst_windows}
            rows = []
            for window, value in self.mmu_curve:
                at = worst.get(window)
                rows.append([
                    f"{window:.0f}", f"{value:.4f}",
                    f"{at['start']:.0f}" if at else "--",
                    f"{at['paused']:.0f}" if at else "--",
                ])
            lines += _md_table(
                ["window (cycles)", "MMU", "worst window start",
                 "paused in worst"],
                rows,
            )
            lines.append("")
        return lines

    def _attribution_md(self) -> List[str]:
        lines = ["## Cost attribution", ""]
        totals = self.attribution_totals
        if totals:
            shares = totals.get("shares", {})
            components = totals.get("components", {})
            # Canonical order: JSON round trips sort dict keys, so the
            # rendering must not depend on insertion order.
            order = ("setup", "copy", "scan", "roots", "remset", "free", "boot")
            names = [c for c in order if c in components]
            names += sorted(set(components) - set(names))
            lines += _md_table(
                ["component", "cycles", "share"],
                [[c, f"{components[c]:.0f}",
                  f"{100.0 * shares.get(c, 0.0):.1f}%"]
                 for c in names],
            )
            lines.append("")
            lines.append(
                f"{totals.get('collections', 0)} collections, "
                f"{totals.get('pause_cycles', 0):.0f} pause cycles "
                f"({totals.get('wall_s', 0):.4f}s host wall)."
            )
            lines.append("")
        return lines

    def _geometry_md(self) -> List[str]:
        lines = ["## Heap geometry (frames per label)", ""]
        if not self.geometry:
            return lines + ["(no samples)", ""]
        labels = self.geometry_labels
        rows = []
        for row in self.geometry:
            cells = [f"{row['time']:.0f}", row["trigger"]]
            for label in labels:
                cell = row["occupancy"].get(label)
                cells.append(str(cell[0]) if cell else "0")
            rows.append(cells)
        lines += _md_table(["time", "trigger", *labels], rows)
        lines.append("")
        return lines


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> List[str]:
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "|".join(" --- " for _ in headers) + "|"]
    for row in rows:
        out.append("| " + " | ".join(str(c) for c in row) + " |")
    return out


def aggregate_by_label(rows: Sequence[dict]) -> List[dict]:
    """Collapse per-collection survivor rows to one row per label."""
    by_label: Dict[str, List[float]] = {}
    collections: Dict[str, set] = {}
    for row in rows:
        cell = by_label.setdefault(row["label"], [0, 0, 0, 0])
        cell[0] += row["survived_objects"]
        cell[1] += row["survived_bytes"]
        cell[2] += row["died_objects"]
        cell[3] += row["died_bytes"]
        collections.setdefault(row["label"], set()).add(row["collection"])
    out = []
    for label in sorted(by_label):
        so, sb, do, db = by_label[label]
        denominator = sb + db
        out.append({
            "label": label,
            "collections": len(collections[label]),
            "survived_objects": so,
            "survived_bytes": sb,
            "died_objects": do,
            "died_bytes": db,
            "survivor_fraction": sb / denominator if denominator else 0.0,
        })
    return out
