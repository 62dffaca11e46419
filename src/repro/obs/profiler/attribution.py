"""Phase cost attribution: where did each collection's pause go?

Every pause in this reproduction is charged through
:meth:`repro.sim.cost.CostModel.collection_cost`, a linear decomposition
over the collection's work counters.  That makes per-collection cost
attribution *exact*, not sampled:
:meth:`~repro.sim.cost.CostModel.collection_components` applied to the
counters carried on the enriched ``gc.end`` event splits each pause into
setup / copy / scan / root-scan / remset-drain / frame-free / boot-scan
cycles that sum to the charged pause by construction (a property the
tests assert).  Host wall time per collection (``wall_s``) rides along
for the copy/scan/drain wall-time view of the same split.
"""

from __future__ import annotations

from typing import Dict, List

from ...sim.cost import COLLECTION_COMPONENTS as _COMPONENTS


class CostAttribution:
    """Per-collection cycle decomposition from enriched ``gc.end`` events."""

    def __init__(self, cost_model):
        self.cost_model = cost_model
        self.rows: List[dict] = []

    def on_gc_end(self, data: Dict) -> dict:
        """Decompose one collection; returns (and stores) the row."""
        components = self.cost_model.collection_components(**data)
        row = {
            "collection": data["id"],
            "reason": data["reason"],
            "belts": list(data["belts"]),
            "pause_cycles": data["pause_cycles"],
            "wall_s": data["wall_s"],
            **components,
            "copied_objects": data["copied_objects"],
            "copied_words": data["copied_words"],
            "scanned_ref_slots": data.get("scanned_ref_slots", 0),
            "root_slots": data.get("root_slots", 0),
            "remset_slots": data["remset_slots"],
            "freed_frames": data["freed_frames"],
            "boot_slots_scanned": data.get("boot_slots_scanned", 0),
        }
        row["modelled_cycles"] = sum(components.values())
        self.rows.append(row)
        return row

    def totals(self) -> dict:
        """Whole-run component totals plus their share of all GC cycles."""
        totals = {c: 0.0 for c in _COMPONENTS}
        pause_cycles = 0.0
        wall_s = 0.0
        for row in self.rows:
            for c in _COMPONENTS:
                totals[c] += row[c]
            pause_cycles += row["pause_cycles"]
            wall_s += row["wall_s"]
        modelled = sum(totals.values())
        return {
            "collections": len(self.rows),
            "pause_cycles": pause_cycles,
            "modelled_cycles": modelled,
            "wall_s": wall_s,
            "components": totals,
            "shares": {
                c: (totals[c] / modelled if modelled else 0.0)
                for c in _COMPONENTS
            },
        }
